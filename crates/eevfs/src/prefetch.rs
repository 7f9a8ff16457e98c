//! Energy-aware prefetch planning (§IV-B, PRE-BUD lineage).
//!
//! The storage server ranks files by popularity and instructs storage
//! nodes to copy the global top-K into their buffer disks. Planning also
//! runs the paper's "energy prediction model" (§III-C): from the expected
//! access pattern it derives the idle windows prefetching would create and
//! estimates the joules a run would save. When the estimate is negative
//! the server tells nodes not to bother — "if there are none then EEVFS
//! will not place disks into the standby state" (§IV-C).

use crate::config::EevfsConfig;
use crate::placement::PlacementPlan;
use disk_model::breakeven::sleep_benefit_joules;
use disk_model::DiskSpec;
use serde::{Deserialize, Serialize};
use sim_core::SimTime;
use workload::lookahead::idle_windows;
use workload::popularity::PopularityTable;
use workload::record::{FileId, Op, Trace};

/// The prefetch directive the server sends each node (§IV-A step 3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrefetchPlan {
    /// The global prefetch set, by descending popularity.
    pub files: Vec<FileId>,
    /// Per-node slices of the set (files each node hosts), popularity
    /// order — the order the node streams them into its buffer disk.
    pub per_node: Vec<Vec<FileId>>,
    /// Files that did not fit in their node's buffer disk.
    pub dropped: Vec<FileId>,
}

impl PrefetchPlan {
    /// An empty plan (NPF).
    pub fn empty(n_nodes: usize) -> Self {
        PrefetchPlan {
            files: Vec::new(),
            per_node: vec![Vec::new(); n_nodes],
            dropped: Vec::new(),
        }
    }

    /// Fast membership test table over the file population.
    pub fn membership(&self, files: usize) -> Vec<bool> {
        let mut m = vec![false; files];
        for f in &self.files {
            m[f.index()] = true;
        }
        m
    }
}

/// Plans a top-K prefetch, respecting each node's buffer capacity.
///
/// `buffer_capacity[n]` is the byte budget of node `n`'s buffer disk
/// (minus any write-buffer reservation the caller makes). Files that do
/// not fit are dropped, never spilled to other nodes — a copy on the wrong
/// node could not serve requests, since the server routes by file.
pub fn plan_topk(
    k: u32,
    popularity: &PopularityTable,
    placement: &PlacementPlan,
    sizes: &[u64],
    buffer_capacity: &[u64],
) -> PrefetchPlan {
    let n_nodes = buffer_capacity.len();
    let mut per_node: Vec<Vec<FileId>> = vec![Vec::new(); n_nodes];
    let mut used = vec![0u64; n_nodes];
    let mut files = Vec::new();
    let mut dropped = Vec::new();
    for &f in popularity.top_k(k as usize) {
        let node = placement.node_of_file[f.index()] as usize;
        let size = sizes[f.index()];
        if used[node] + size <= buffer_capacity[node] {
            used[node] += size;
            per_node[node].push(f);
            files.push(f);
        } else {
            dropped.push(f);
        }
    }
    PrefetchPlan {
        files,
        per_node,
        dropped,
    }
}

/// Outcome of the energy prediction model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenefitReport {
    /// Predicted joules saved by sleeping through every window the policy
    /// would act on (gross of prefetch cost).
    pub predicted_window_benefit_j: f64,
    /// Predicted extra joules spent copying the prefetch set.
    pub prefetch_cost_j: f64,
    /// Number of actionable windows found.
    pub windows: usize,
    /// Whether power management should engage at all.
    pub worthwhile: bool,
}

impl BenefitReport {
    /// Net predicted joules saved.
    pub fn net_j(&self) -> f64 {
        self.predicted_window_benefit_j - self.prefetch_cost_j
    }
}

/// Runs the energy prediction model over the expected pattern.
///
/// For each data disk, the predicted *physical* touch times are the
/// arrivals of requests that prefetching will not absorb; the gaps longer
/// than the idle threshold are sleep candidates whose benefit is summed
/// with [`sleep_benefit_joules`]. Prefetch cost models the extra active
/// time on data and buffer disks ((p_active − p_idle) × transfer time per
/// copy).
/// `data_disk_specs` and `buffer_specs` are generic over ownership so
/// callers can pass either owned tables (`Vec<Vec<DiskSpec>>`, tests) or
/// views borrowed straight from a [`ClusterSpec`](crate::config::ClusterSpec)
/// (`Vec<&[DiskSpec]>` / `Vec<&DiskSpec>`, the driver) without cloning a
/// spec per run.
pub fn predict_benefit<D, B>(
    trace: &Trace,
    placement: &PlacementPlan,
    plan: &PrefetchPlan,
    data_disk_specs: &[D],
    buffer_specs: &[B],
    cfg: &EevfsConfig,
) -> BenefitReport
where
    D: AsRef<[DiskSpec]>,
    B: std::borrow::Borrow<DiskSpec>,
{
    let member = plan.membership(trace.file_count());
    // Collect per-disk predicted physical touch times.
    let n_nodes = data_disk_specs.len();
    let mut touches: Vec<Vec<Vec<SimTime>>> = data_disk_specs
        .iter()
        .map(|disks| vec![Vec::new(); disks.as_ref().len()])
        .collect();
    for r in &trace.records {
        let absorbed = match r.op {
            Op::Read => member[r.file.index()],
            Op::Write => cfg.write_buffer,
        };
        if absorbed {
            continue;
        }
        let node = placement.node_of_file[r.file.index()] as usize;
        let disk = placement.disk_of_file[r.file.index()] as usize;
        touches[node][disk].push(r.at);
    }

    let horizon = trace.end_time();
    let mut benefit = 0.0;
    let mut windows = 0usize;
    for node in 0..n_nodes {
        for (disk, spec) in data_disk_specs[node].as_ref().iter().enumerate() {
            let ws = idle_windows(
                &touches[node][disk],
                SimTime::ZERO,
                horizon,
                cfg.idle_threshold,
            );
            windows += ws.len();
            for w in &ws {
                benefit += sleep_benefit_joules(spec, w.len());
            }
        }
    }

    // Prefetch copy cost: read on the data disk + write on the buffer disk.
    let mut cost = 0.0;
    for (node, files) in plan.per_node.iter().enumerate() {
        for &f in files {
            let size = trace.file_sizes[f.index()];
            let disk = placement.disk_of_file[f.index()] as usize;
            let dspec = &data_disk_specs[node].as_ref()[disk];
            let bspec = buffer_specs[node].borrow();
            let read_s = size as f64 / dspec.bandwidth_bps as f64;
            let write_s = size as f64 / bspec.bandwidth_bps as f64;
            cost += read_s * (dspec.p_active_w - dspec.p_idle_w)
                + write_s * (bspec.p_active_w - bspec.p_idle_w);
        }
    }

    BenefitReport {
        predicted_window_benefit_j: benefit,
        prefetch_cost_j: cost,
        windows,
        worthwhile: benefit - cost > 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlacementPolicy;
    use crate::placement::place;
    use workload::synthetic::{generate, SyntheticSpec};

    fn setup(mu: f64, k: u32) -> (Trace, PopularityTable, PlacementPlan, PrefetchPlan) {
        let trace = generate(&SyntheticSpec {
            mu,
            files: 100,
            requests: 200,
            ..SyntheticSpec::paper_default()
        });
        let pop = PopularityTable::from_trace(&trace);
        let plan = place(PlacementPolicy::PopularityRoundRobin, &pop, &[2; 4]);
        let capacity = vec![80_000_000_000u64; 4];
        let pf = plan_topk(k, &pop, &plan, &trace.file_sizes, &capacity);
        (trace, pop, plan, pf)
    }

    #[test]
    fn plan_topk_groups_by_owner() {
        let (_, pop, plan, pf) = setup(10.0, 8);
        assert_eq!(pf.files.len(), 8);
        assert!(pf.dropped.is_empty());
        for (node, files) in pf.per_node.iter().enumerate() {
            for f in files {
                assert_eq!(plan.node_of_file[f.index()] as usize, node);
            }
        }
        // The union of per-node lists is the global set.
        let total: usize = pf.per_node.iter().map(|v| v.len()).sum();
        assert_eq!(total, 8);
        // Set contents are the popularity top-8.
        assert_eq!(pf.files, pop.top_k(8));
    }

    #[test]
    fn capacity_limits_drop_files() {
        let (trace, pop, plan, _) = setup(10.0, 8);
        // Tiny buffers: only one 10 MB file fits per node.
        let pf = plan_topk(8, &pop, &plan, &trace.file_sizes, &[10_000_000u64; 4]);
        assert!(pf.files.len() <= 4, "kept {}", pf.files.len());
        assert_eq!(pf.files.len() + pf.dropped.len(), 8);
        for node in 0..4 {
            assert!(pf.per_node[node].len() <= 1);
        }
    }

    #[test]
    fn membership_table() {
        let (trace, _, _, pf) = setup(10.0, 8);
        let m = pf.membership(trace.file_count());
        assert_eq!(m.iter().filter(|&&b| b).count(), pf.files.len());
        for f in &pf.files {
            assert!(m[f.index()]);
        }
    }

    #[test]
    fn zero_k_is_empty_plan() {
        let (_, pop, plan, _) = setup(10.0, 0);
        let pf = plan_topk(0, &pop, &plan, &vec![1; 100], &[1000; 4]);
        assert!(pf.files.is_empty());
        assert!(pf.dropped.is_empty());
        let _ = (pop, plan);
    }

    #[test]
    fn benefit_grows_with_coverage() {
        let (trace, pop, plan, _) = setup(10.0, 0);
        let specs: Vec<Vec<DiskSpec>> = vec![vec![DiskSpec::ata133_type1(); 2]; 4];
        let buffers = vec![DiskSpec::ata133_type1(); 4];
        let cfg = EevfsConfig::paper_pf(0);
        let capacity = vec![80_000_000_000u64; 4];

        let small = plan_topk(2, &pop, &plan, &trace.file_sizes, &capacity);
        let large = plan_topk(50, &pop, &plan, &trace.file_sizes, &capacity);
        let b_small = predict_benefit(&trace, &plan, &small, &specs, &buffers, &cfg);
        let b_large = predict_benefit(&trace, &plan, &large, &specs, &buffers, &cfg);
        assert!(
            b_large.predicted_window_benefit_j > b_small.predicted_window_benefit_j,
            "large {} <= small {}",
            b_large.predicted_window_benefit_j,
            b_small.predicted_window_benefit_j
        );
        assert!(b_large.prefetch_cost_j > b_small.prefetch_cost_j);
    }

    #[test]
    fn full_coverage_at_small_mu_is_worthwhile() {
        // MU=10 over 100 files: the top-50 prefetch absorbs everything;
        // every disk sleeps the whole trace.
        let (trace, pop, plan, pf) = setup(10.0, 50);
        let specs: Vec<Vec<DiskSpec>> = vec![vec![DiskSpec::ata133_type1(); 2]; 4];
        let buffers = vec![DiskSpec::ata133_type1(); 4];
        let cfg = EevfsConfig::paper_pf(50);
        let report = predict_benefit(&trace, &plan, &pf, &specs, &buffers, &cfg);
        assert!(report.worthwhile, "report: {report:?}");
        assert!(report.net_j() > 0.0);
        let _ = pop;
    }

    #[test]
    fn npf_has_no_windows_to_act_on_under_heavy_uniform_load() {
        // A dense trace (0 ms inter-arrival) with no prefetching: no
        // window clears the 5 s threshold, so the predicted benefit is ~0.
        let trace = generate(&SyntheticSpec {
            mu: 1000.0,
            inter_arrival: sim_core::SimDuration::ZERO,
            ..SyntheticSpec::paper_default()
        });
        let pop = PopularityTable::from_trace(&trace);
        let plan = place(PlacementPolicy::PopularityRoundRobin, &pop, &[2; 8]);
        let pf = PrefetchPlan::empty(8);
        let specs: Vec<Vec<DiskSpec>> = vec![vec![DiskSpec::ata133_type1(); 2]; 8];
        let buffers = vec![DiskSpec::ata133_type1(); 8];
        let cfg = EevfsConfig::paper_npf();
        let report = predict_benefit(&trace, &plan, &pf, &specs, &buffers, &cfg);
        assert_eq!(report.windows, 0);
        assert!(!report.worthwhile);
    }
}
