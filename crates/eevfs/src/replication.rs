//! R-way replica placement and read-replica selection.
//!
//! The paper's EEVFS stores exactly one copy of each file, which makes a
//! single disk or node failure lose data and — just as bad for the
//! paper's goal — forces a spin-up whenever the one home disk is asleep.
//! Replication layered on the popularity round-robin changes both:
//! degraded-mode reads fail over to a surviving replica, and an
//! *energy-aware* read selector can prefer whichever replica's disk is
//! already spinning, waking a standby disk only when every copy is cold.
//!
//! Placement keeps the paper's §III-B shape: the primary copy is exactly
//! where [`crate::placement::place`] put it; replica `i` goes to node
//! `(primary + i) mod N` (anti-affinity by construction — replicas of a
//! file never share a node) and round-robins over that node's data disks
//! in arrival order, continuing the node's creation counter.

use crate::config::ReplicaSelection;
use crate::placement::PlacementPlan;
use serde::{Deserialize, Serialize};
use workload::record::FileId;

/// Where every copy of every file lives. `replicas[f][0]` is the primary
/// (identical to the placement plan); later entries are backups.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaPlan {
    /// `replicas[file]` = `(node, disk)` per copy, primary first.
    pub replicas: Vec<Vec<(u32, u32)>>,
}

impl ReplicaPlan {
    /// Number of files covered.
    pub fn file_count(&self) -> usize {
        self.replicas.len()
    }

    /// All copies of a file, primary first.
    pub fn of(&self, file: FileId) -> &[(u32, u32)] {
        &self.replicas[file.index()]
    }

    /// The replication factor in force (copies of file 0, or 1 when
    /// empty).
    pub fn factor(&self) -> usize {
        self.replicas.first().map_or(1, Vec::len)
    }
}

/// Expands a placement plan to `r` copies per file with node
/// anti-affinity. `r` is clamped to the node count (a replica set larger
/// than the cluster cannot avoid co-location).
pub fn replicate(plan: &PlacementPlan, r: usize, disks_per_node: &[usize]) -> ReplicaPlan {
    let n_nodes = disks_per_node.len();
    let r = r.clamp(1, n_nodes);
    // Continue each node's local disk round-robin where primary creation
    // left off, so replicas spread over spindles the same way primaries
    // do.
    let mut next_disk: Vec<usize> = (0..n_nodes).map(|n| plan.files_on(n).len()).collect();
    let mut replicas: Vec<Vec<(u32, u32)>> = Vec::with_capacity(plan.file_count());
    for f in 0..plan.file_count() {
        let primary_node = plan.node_of_file[f] as usize;
        let mut copies = Vec::with_capacity(r);
        copies.push((plan.node_of_file[f], plan.disk_of_file[f]));
        for k in 1..r {
            let node = (primary_node + k) % n_nodes;
            let disk = next_disk[node] % disks_per_node[node];
            next_disk[node] += 1;
            copies.push((node as u32, disk as u32));
        }
        replicas.push(copies);
    }
    ReplicaPlan { replicas }
}

/// Why the selector settled on a replica — lets the driver account
/// redirects and avoided spin-ups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// A copy is buffer-resident on a healthy node: no data disk touched.
    Buffered,
    /// A healthy replica's home disk is already spinning.
    Warm,
    /// Every healthy copy is on a standby disk: this one pays a spin-up.
    Cold,
}

/// One selected copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selected {
    /// Index into the file's replica list (0 = primary).
    pub replica: usize,
    /// Owning node.
    pub node: usize,
    /// Local data disk.
    pub disk: usize,
    /// What made this copy attractive.
    pub choice: Choice,
}

/// Picks the copy to serve a read from.
///
/// `copy_ok(node, disk)` must report whether that copy can serve at all
/// (node up, and either the home disk up or the file buffer-resident
/// there); `buffered(node)` whether the node holds the file in its buffer
/// disk; `disk_awake(node, disk)` whether the copy's home disk is
/// spinning. `tiebreak` feeds the [`ReplicaSelection::RandomHealthy`]
/// policy deterministically (the driver passes the request index).
/// Returns `None` when no copy is serviceable.
pub fn select_replica(
    copies: &[(u32, u32)],
    policy: ReplicaSelection,
    copy_ok: impl Fn(usize, usize) -> bool,
    buffered: impl Fn(usize) -> bool,
    disk_awake: impl Fn(usize, usize) -> bool,
    tiebreak: u64,
) -> Option<Selected> {
    // Healthy copies in placement order, as (replica, node, disk). The
    // closures are pure, so walking the list again is the same as
    // keeping it, and no route allocates.
    let healthy = || {
        copies.iter().enumerate().filter_map(|(i, &(n, d))| {
            let (n, d) = (n as usize, d as usize);
            copy_ok(n, d).then_some((i, n, d))
        })
    };
    let first = healthy().next()?;
    let pick = |(replica, node, disk): (usize, usize, usize), choice| Selected {
        replica,
        node,
        disk,
        choice,
    };
    let classify = |(_, node, disk): (usize, usize, usize)| {
        if buffered(node) {
            Choice::Buffered
        } else if disk_awake(node, disk) {
            Choice::Warm
        } else {
            Choice::Cold
        }
    };
    match policy {
        ReplicaSelection::Primary => Some(pick(first, classify(first))),
        ReplicaSelection::RandomHealthy => {
            // SplitMix64 finaliser over the caller's tiebreak: decorrelates
            // consecutive request indices without any shared RNG state.
            let mut z = tiebreak.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let c = healthy().nth((z % healthy().count() as u64) as usize)?;
            Some(pick(c, classify(c)))
        }
        ReplicaSelection::EnergyAware => {
            // The first buffered copy wins outright; failing that, the
            // first awake one; failing that, the first healthy one.
            let mut warm = None;
            for c in healthy() {
                if buffered(c.1) {
                    return Some(pick(c, Choice::Buffered));
                }
                if warm.is_none() && disk_awake(c.1, c.2) {
                    warm = Some(c);
                }
            }
            Some(match warm {
                Some(c) => pick(c, Choice::Warm),
                None => pick(first, Choice::Cold),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlacementPolicy;
    use crate::placement::place;
    use proptest::prelude::*;
    use workload::popularity::PopularityTable;

    fn plan(files: usize, nodes: usize, disks: usize) -> PlacementPlan {
        let pop =
            PopularityTable::from_counts((0..files as u64).map(|i| files as u64 - i).collect());
        place(
            PlacementPolicy::PopularityRoundRobin,
            &pop,
            &vec![disks; nodes],
        )
    }

    #[test]
    fn replicas_never_share_a_node() {
        let p = plan(50, 4, 2);
        for r in 1..=4 {
            let rp = replicate(&p, r, &[2; 4]);
            assert_eq!(rp.factor(), r);
            for copies in &rp.replicas {
                let mut nodes: Vec<u32> = copies.iter().map(|&(n, _)| n).collect();
                nodes.sort_unstable();
                nodes.dedup();
                assert_eq!(nodes.len(), copies.len(), "co-located replicas: {copies:?}");
            }
        }
    }

    #[test]
    fn primary_copy_matches_placement() {
        let p = plan(20, 3, 2);
        let rp = replicate(&p, 2, &[2; 3]);
        for f in 0..20 {
            assert_eq!(rp.replicas[f][0], (p.node_of_file[f], p.disk_of_file[f]));
        }
    }

    #[test]
    fn r_clamped_to_cluster_size() {
        let p = plan(10, 2, 1);
        let rp = replicate(&p, 5, &[1; 2]);
        assert_eq!(rp.factor(), 2);
    }

    #[test]
    fn replica_disks_in_range() {
        let p = plan(33, 3, 2);
        let rp = replicate(&p, 3, &[2, 2, 2]);
        for copies in &rp.replicas {
            for &(n, d) in copies {
                assert!((n as usize) < 3);
                assert!((d as usize) < 2);
            }
        }
    }

    #[test]
    fn energy_aware_prefers_buffered_then_warm() {
        let copies = vec![(0u32, 0u32), (1, 0), (2, 0)];
        // Node 2 has the file buffered: pick it even though 0 is healthy.
        let s = select_replica(
            &copies,
            ReplicaSelection::EnergyAware,
            |_, _| true,
            |n| n == 2,
            |_, _| false,
            0,
        )
        .unwrap();
        assert_eq!((s.node, s.choice), (2, Choice::Buffered));
        // No buffer copies; node 1's disk spins: pick node 1.
        let s = select_replica(
            &copies,
            ReplicaSelection::EnergyAware,
            |_, _| true,
            |_| false,
            |n, _| n == 1,
            0,
        )
        .unwrap();
        assert_eq!((s.node, s.choice), (1, Choice::Warm));
        // Everything cold: primary pays the spin-up.
        let s = select_replica(
            &copies,
            ReplicaSelection::EnergyAware,
            |_, _| true,
            |_| false,
            |_, _| false,
            0,
        )
        .unwrap();
        assert_eq!((s.node, s.choice), (0, Choice::Cold));
    }

    #[test]
    fn dead_nodes_are_skipped() {
        let copies = vec![(0u32, 0u32), (1, 1)];
        let s = select_replica(
            &copies,
            ReplicaSelection::Primary,
            |n, _| n != 0,
            |_| false,
            |_, _| true,
            0,
        )
        .unwrap();
        assert_eq!((s.replica, s.node, s.disk), (1, 1, 1));
        assert!(select_replica(
            &copies,
            ReplicaSelection::EnergyAware,
            |_, _| false,
            |_| false,
            |_, _| true,
            0,
        )
        .is_none());
    }

    /// The selector as it was when it collected the healthy copies into
    /// a `Vec` on every call: the reference the allocation-free one must
    /// match exactly.
    fn collecting_reference(
        copies: &[(u32, u32)],
        policy: ReplicaSelection,
        copy_ok: impl Fn(usize, usize) -> bool,
        buffered: impl Fn(usize) -> bool,
        disk_awake: impl Fn(usize, usize) -> bool,
        tiebreak: u64,
    ) -> Option<Selected> {
        let healthy: Vec<(usize, usize, usize)> = copies
            .iter()
            .enumerate()
            .filter(|&(_, &(n, d))| copy_ok(n as usize, d as usize))
            .map(|(i, &(n, d))| (i, n as usize, d as usize))
            .collect();
        if healthy.is_empty() {
            return None;
        }
        let pick = |&(replica, node, disk): &(usize, usize, usize), choice| Selected {
            replica,
            node,
            disk,
            choice,
        };
        let classify = |c: &(usize, usize, usize)| {
            if buffered(c.1) {
                Choice::Buffered
            } else if disk_awake(c.1, c.2) {
                Choice::Warm
            } else {
                Choice::Cold
            }
        };
        match policy {
            ReplicaSelection::Primary => Some(pick(&healthy[0], classify(&healthy[0]))),
            ReplicaSelection::RandomHealthy => {
                let mut z = tiebreak.wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                let c = &healthy[(z % healthy.len() as u64) as usize];
                Some(pick(c, classify(c)))
            }
            ReplicaSelection::EnergyAware => {
                if let Some(c) = healthy.iter().find(|&&(_, n, _)| buffered(n)) {
                    return Some(pick(c, Choice::Buffered));
                }
                if let Some(c) = healthy.iter().find(|&&(_, n, d)| disk_awake(n, d)) {
                    return Some(pick(c, Choice::Warm));
                }
                Some(pick(&healthy[0], Choice::Cold))
            }
        }
    }

    proptest! {
        /// Up to 40 copies (more than any small inline buffer holds), with
        /// random health, buffer residency and spinning disks: every policy
        /// picks exactly the copy and reason the collecting selector does.
        #[test]
        fn selector_matches_the_collecting_reference(
            n_copies in 1usize..40,
            ok in any::<u64>(),
            buf in any::<u64>(),
            awake in any::<u64>(),
            tiebreak in any::<u64>(),
        ) {
            // Copy i lives on node i, disk i % 3; each mask bit is a node.
            let copies: Vec<(u32, u32)> =
                (0..n_copies as u32).map(|i| (i, i % 3)).collect();
            let bit = |mask: u64, n: usize| mask >> n & 1 == 1;
            for policy in [
                ReplicaSelection::Primary,
                ReplicaSelection::RandomHealthy,
                ReplicaSelection::EnergyAware,
            ] {
                let got = select_replica(
                    &copies,
                    policy,
                    |n, _| bit(ok, n),
                    |n| bit(buf, n),
                    |n, _| bit(awake, n),
                    tiebreak,
                );
                let want = collecting_reference(
                    &copies,
                    policy,
                    |n, _| bit(ok, n),
                    |n| bit(buf, n),
                    |n, _| bit(awake, n),
                    tiebreak,
                );
                prop_assert_eq!(got, want, "{:?}", policy);
            }
        }
    }

    #[test]
    fn random_healthy_is_deterministic_and_healthy_only() {
        let copies = vec![(0u32, 0u32), (1, 0), (2, 0)];
        for t in 0..64u64 {
            let a = select_replica(
                &copies,
                ReplicaSelection::RandomHealthy,
                |n, _| n != 1,
                |_| false,
                |_, _| true,
                t,
            )
            .unwrap();
            let b = select_replica(
                &copies,
                ReplicaSelection::RandomHealthy,
                |n, _| n != 1,
                |_| false,
                |_, _| true,
                t,
            )
            .unwrap();
            assert_eq!(a, b);
            assert_ne!(a.node, 1, "picked a dead node");
        }
    }
}
