//! Cluster hardware description and EEVFS policy configuration.
//!
//! [`ClusterSpec`] encodes the paper's Table I testbed (one storage server,
//! four Type 1 and four Type 2 storage nodes) and [`EevfsConfig`] encodes
//! the Table II knobs plus the policy toggles the ablation benchmarks
//! exercise.

use crate::overload::OverloadOptions;
use disk_model::DiskSpec;
use net_model::Link;
use serde::{Deserialize, Serialize};
use sim_core::SimDuration;

/// One storage node: NIC, buffer disk, data disks, and the node's constant
/// base power draw (CPU + RAM + NIC + fans — everything the paper's wall
/// meters saw besides the drives).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Human-readable name for reports.
    pub name: String,
    /// The node's network port.
    pub nic: Link,
    /// The always-on buffer disk (in the prototype, the OS disk).
    pub buffer_disk: DiskSpec,
    /// The data disks this node manages.
    pub data_disks: Vec<DiskSpec>,
    /// Constant node power excluding disks, watts.
    pub base_power_w: f64,
}

impl NodeSpec {
    /// A Type 1 storage node from Table I: 3.2 GHz P4, 1 GB RAM, gigabit
    /// NIC, ATA/133 drives at 58 MB/s, with `data_disks` data drives.
    pub fn type1(name: impl Into<String>, data_disks: usize) -> NodeSpec {
        NodeSpec {
            name: name.into(),
            nic: Link::gigabit(),
            buffer_disk: DiskSpec::ata133_type1(),
            data_disks: vec![DiskSpec::ata133_type1(); data_disks],
            base_power_w: 50.0,
        }
    }

    /// A Type 2 storage node from Table I: 2.4 GHz P4, 512 MB RAM, fast
    /// Ethernet, ATA/133 drives at 34 MB/s.
    pub fn type2(name: impl Into<String>, data_disks: usize) -> NodeSpec {
        NodeSpec {
            name: name.into(),
            nic: Link::fast_ethernet(),
            buffer_disk: DiskSpec::ata133_type2(),
            data_disks: vec![DiskSpec::ata133_type2(); data_disks],
            base_power_w: 42.0,
        }
    }

    /// Total number of drives (buffer + data).
    pub fn disk_count(&self) -> usize {
        1 + self.data_disks.len()
    }
}

/// The whole cluster: server, nodes, interconnect characteristics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Server NIC (Table I: gigabit).
    pub server_nic: Link,
    /// Aggregate client-side NIC (the compute nodes' ingress).
    pub client_nic: Link,
    /// The server's metadata disk (Table I: 120 GB SATA).
    pub server_disk: DiskSpec,
    /// Server base power, watts.
    pub server_base_power_w: f64,
    /// Storage nodes.
    pub nodes: Vec<NodeSpec>,
    /// Switch store-and-forward latency per hop.
    pub switch_latency: SimDuration,
    /// Serialized per-request metadata handling time on the server (the
    /// prototype parses the request, looks up the node, and hands off over
    /// TCP in a per-node thread on a 2.0 GHz P4).
    pub server_proc_time: SimDuration,
    /// Per-hop software overhead for control messages.
    pub software_overhead: SimDuration,
}

impl ClusterSpec {
    /// The paper's testbed: 1 server + 8 storage nodes (4 Type 1, 4 Type
    /// 2), each node with one buffer disk and `data_disks_per_node` data
    /// disks.
    pub fn paper_testbed_with(data_disks_per_node: usize) -> ClusterSpec {
        let mut nodes = Vec::with_capacity(8);
        for i in 0..4 {
            nodes.push(NodeSpec::type1(
                format!("node{}-t1", i + 1),
                data_disks_per_node,
            ));
        }
        for i in 0..4 {
            nodes.push(NodeSpec::type2(
                format!("node{}-t2", i + 5),
                data_disks_per_node,
            ));
        }
        ClusterSpec {
            server_nic: Link::gigabit(),
            client_nic: Link::gigabit(),
            server_disk: DiskSpec::sata_server(),
            server_base_power_w: 60.0,
            nodes,
            switch_latency: SimDuration::from_micros(50),
            server_proc_time: SimDuration::from_millis(8),
            software_overhead: SimDuration::from_millis(5),
        }
    }

    /// The paper's testbed with the default two data disks per node.
    pub fn paper_testbed() -> ClusterSpec {
        Self::paper_testbed_with(2)
    }

    /// Number of storage nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Data-disk counts per node, as the placement planner needs them.
    pub fn data_disk_counts(&self) -> Vec<usize> {
        self.nodes.iter().map(|n| n.data_disks.len()).collect()
    }

    /// Sanity checks.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("cluster has no storage nodes".into());
        }
        for n in &self.nodes {
            if n.data_disks.is_empty() {
                return Err(format!("node {} has no data disks", n.name));
            }
            n.buffer_disk
                .validate()
                .map_err(|e| format!("{}: buffer disk: {e}", n.name))?;
            for d in &n.data_disks {
                d.validate()
                    .map_err(|e| format!("{}: data disk: {e}", n.name))?;
            }
            if !(n.base_power_w >= 0.0 && n.base_power_w.is_finite()) {
                return Err(format!("node {} base power invalid", n.name));
            }
        }
        self.server_disk
            .validate()
            .map_err(|e| format!("server disk: {e}"))?;
        Ok(())
    }
}

/// How files are spread across nodes and a node's data disks (§III-B and
/// the §II-related baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// The paper's policy: most popular file to node 1/disk 1, next to
    /// node 2/disk 1, ... — round-robin in popularity order, which
    /// balances load *and* groups hot files predictably.
    PopularityRoundRobin,
    /// Naive round-robin by file id, popularity-blind.
    PlainRoundRobin,
    /// PDC-style concentration [Pinheiro & Bianchini]: fill the first
    /// disk with the most popular files, then the second, ...
    PdcConcentration,
}

/// What the buffer disk caches (§IV-B and the MAID baseline from §II).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BufferPolicy {
    /// No buffer-disk caching: the paper's NPF configuration.
    None,
    /// EEVFS prefetching: the top `k` most popular files are copied into
    /// buffer disks before the run.
    PrefetchTopK {
        /// Number of files to prefetch ("# of files to prefetch", Table II).
        k: u32,
    },
    /// MAID-style on-demand caching with LRU eviction, at most
    /// `capacity_bytes` of buffered data per node.
    MaidLru {
        /// Per-node buffer capacity in bytes.
        capacity_bytes: u64,
    },
}

/// When data disks are sent to standby (§III-C, §IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PowerPolicy {
    /// The paper's policy: the storage node predicts idle windows from the
    /// access pattern it received from the server, *as reshaped by
    /// prefetching*; a disk sleeps only across predicted windows longer
    /// than the idle threshold. Without prefetching this policy finds no
    /// trustworthy windows and never sleeps (the paper's NPF runs show no
    /// transitions).
    PrefetchAware,
    /// Classic DPM fallback: spin down after the disk has been idle for
    /// the threshold, no prediction. Used by the MAID baseline and the
    /// threshold ablation.
    IdleTimer,
    /// Never spin anything down (energy-oblivious baseline).
    None,
}

/// Which copy serves a read when a file has several replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplicaSelection {
    /// Prefer a buffer-resident copy, then a copy whose home data disk is
    /// already spinning, and only wake a standby disk when every healthy
    /// copy is cold. This keeps replication from eroding the paper's
    /// energy savings: a redundant copy that happens to sit behind an
    /// awake spindle is free, a spin-up is not.
    EnergyAware,
    /// Uniform choice among healthy copies (deterministic, seeded by the
    /// request index). The natural load-balancing baseline the faults
    /// ablation compares energy-aware selection against.
    RandomHealthy,
    /// Always the first healthy copy in placement order (primary unless
    /// it is down). Mirrors an R=1 system plus pure failover.
    Primary,
}

/// How the client replays the trace (§V-B: "we have added 0 to 1000 ms
/// of inter-arrival delay between requests").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArrivalMode {
    /// Requests arrive at their trace timestamps regardless of responses
    /// (a load generator). The default for the figure reproductions.
    OpenLoop,
    /// The prototype's replayer: `streams` concurrent clients, each
    /// issuing its next request one inter-arrival delay after its previous
    /// response. Queues cannot grow unboundedly; response time feeds back
    /// into arrival times.
    ClosedLoop {
        /// Number of concurrent replay streams.
        streams: u32,
    },
}

/// Full EEVFS policy configuration for one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EevfsConfig {
    /// Buffer-disk caching policy (PF / NPF / MAID).
    pub buffer: BufferPolicy,
    /// Disk power-management policy.
    pub power: PowerPolicy,
    /// Disk idle threshold (Table II fixes 5 s).
    pub idle_threshold: SimDuration,
    /// Application hints (§IV-C): when true, the node trusts its predicted
    /// windows and sleeps a disk immediately at the window start; when
    /// false it falls back to waiting out the idle threshold first.
    pub hints: bool,
    /// Placement policy.
    pub placement: PlacementPolicy,
    /// Use spare buffer-disk space as a write buffer for the data disks
    /// (§III-C).
    pub write_buffer: bool,
    /// Stripe file I/O across all of a node's data disks (§VII future
    /// work: "striping techniques within EEVFS that can help improve the
    /// performance of EEVFS, while still maintaining energy savings").
    /// With striping, a physical access touches every data disk of the
    /// owning node for `size / n` bytes in parallel — faster service, but
    /// the whole node's disk array must be awake to serve a miss.
    pub striping: bool,
    /// Trace replay discipline.
    pub arrival: ArrivalMode,
    /// Copies kept of every file (1 = the paper's unreplicated layout).
    /// Replicas are placed with node anti-affinity on top of the
    /// placement policy; values above the node count are clamped.
    pub replication: u32,
    /// Read-side replica choice when `replication > 1`.
    pub replica_selection: ReplicaSelection,
    /// Overload control plane at the server: the admission gate and
    /// brownout ladder the prototype's server runs (`None` = the legacy
    /// unbounded server queue, bit-identical to pre-overload runs;
    /// defaulted for old serialized configs).
    #[serde(default)]
    pub overload: Option<OverloadOptions>,
}

impl EevfsConfig {
    /// The paper's PF configuration with `k` files to prefetch.
    pub fn paper_pf(k: u32) -> EevfsConfig {
        EevfsConfig {
            buffer: BufferPolicy::PrefetchTopK { k },
            power: PowerPolicy::PrefetchAware,
            idle_threshold: SimDuration::from_secs(5),
            hints: true,
            placement: PlacementPolicy::PopularityRoundRobin,
            write_buffer: true,
            striping: false,
            arrival: ArrivalMode::OpenLoop,
            replication: 1,
            replica_selection: ReplicaSelection::EnergyAware,
            overload: None,
        }
    }

    /// EEVFS-PF replayed closed-loop behind a bounded admission gate
    /// (`max_inflight` slots) with the derived brownout ladder.
    pub fn paper_pf_overload(k: u32, streams: u32, max_inflight: usize) -> EevfsConfig {
        EevfsConfig {
            arrival: ArrivalMode::ClosedLoop { streams },
            overload: Some(OverloadOptions::bounded(max_inflight)),
            ..Self::paper_pf(k)
        }
    }

    /// EEVFS-PF with `r`-way replication and energy-aware read selection.
    pub fn paper_pf_replicated(k: u32, r: u32) -> EevfsConfig {
        EevfsConfig {
            replication: r,
            ..Self::paper_pf(k)
        }
    }

    /// EEVFS-PF replayed closed-loop with `streams` concurrent clients
    /// (the prototype's replay discipline).
    pub fn paper_pf_closed_loop(k: u32, streams: u32) -> EevfsConfig {
        EevfsConfig {
            arrival: ArrivalMode::ClosedLoop { streams },
            ..Self::paper_pf(k)
        }
    }

    /// EEVFS-PF with intra-node striping enabled (§VII future work).
    pub fn paper_pf_striped(k: u32) -> EevfsConfig {
        EevfsConfig {
            striping: true,
            ..Self::paper_pf(k)
        }
    }

    /// The paper's NPF configuration: prefetching disabled, everything
    /// else identical.
    pub fn paper_npf() -> EevfsConfig {
        EevfsConfig {
            buffer: BufferPolicy::None,
            ..Self::paper_pf(0)
        }
    }

    /// Number of files to prefetch, zero unless prefetching.
    pub fn prefetch_k(&self) -> u32 {
        match self.buffer {
            BufferPolicy::PrefetchTopK { k } => k,
            _ => 0,
        }
    }

    /// True when any buffer-disk caching is active.
    pub fn caching_enabled(&self) -> bool {
        !matches!(self.buffer, BufferPolicy::None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_matches_table_one() {
        let c = ClusterSpec::paper_testbed();
        assert_eq!(c.node_count(), 8);
        let t1 = c.nodes.iter().filter(|n| n.nic == Link::gigabit()).count();
        let t2 = c
            .nodes
            .iter()
            .filter(|n| n.nic == Link::fast_ethernet())
            .count();
        assert_eq!((t1, t2), (4, 4));
        assert_eq!(c.server_disk.bandwidth_bps, 100 * 1_000_000);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn node_presets_have_expected_drives() {
        let n1 = NodeSpec::type1("a", 2);
        assert_eq!(n1.disk_count(), 3);
        assert_eq!(n1.data_disks[0].bandwidth_bps, 58 * 1_000_000);
        let n2 = NodeSpec::type2("b", 1);
        assert_eq!(n2.data_disks[0].bandwidth_bps, 34 * 1_000_000);
        assert!(n2.nic.bandwidth_bps < n1.nic.bandwidth_bps);
    }

    #[test]
    fn pf_npf_differ_only_in_buffer_policy() {
        let pf = EevfsConfig::paper_pf(70);
        let npf = EevfsConfig::paper_npf();
        assert_eq!(pf.prefetch_k(), 70);
        assert_eq!(npf.prefetch_k(), 0);
        assert!(pf.caching_enabled());
        assert!(!npf.caching_enabled());
        assert_eq!(pf.power, npf.power);
        assert_eq!(pf.idle_threshold, npf.idle_threshold);
        assert_eq!(pf.placement, npf.placement);
    }

    #[test]
    fn idle_threshold_default_is_five_seconds() {
        // Table II: Disk Idle Threshold (sec) = 5.
        assert_eq!(
            EevfsConfig::paper_pf(70).idle_threshold,
            SimDuration::from_secs(5)
        );
    }

    #[test]
    fn validation_catches_broken_clusters() {
        let mut c = ClusterSpec::paper_testbed();
        c.nodes.clear();
        assert!(c.validate().is_err());

        let mut c = ClusterSpec::paper_testbed();
        c.nodes[0].data_disks.clear();
        assert!(c.validate().is_err());

        let mut c = ClusterSpec::paper_testbed();
        c.nodes[3].base_power_w = f64::NAN;
        assert!(c.validate().is_err());
    }

    #[test]
    fn data_disk_counts_reflect_construction() {
        let c = ClusterSpec::paper_testbed_with(3);
        assert_eq!(c.data_disk_counts(), vec![3; 8]);
    }
}
