//! The energy attribution ledger: every joule of a run's
//! [`RunMetrics::total_energy_j`] apportioned to requests, nodes, and
//! power states — with each view **closed bit-exactly** against the
//! `RunMetrics` totals.
//!
//! ## The closure argument (DESIGN.md §14)
//!
//! Floating-point addition is not associative, so a ledger that
//! recomputes energy bottom-up (power × residency) can never promise
//! bit-equality with the driver's meters. Instead every view closes *by
//! construction*: rows that exist in `RunMetrics` are **exact copies**
//! (per-node meters, the SSD tier, the scrub meter), estimated rows are
//! derived from spans and residency, and each view ends in an explicit
//! **residual pair** — a main residual `parent − fold(other rows)` plus
//! a sub-ULP `rounding-carry` row computed exactly via Sterbenz's lemma
//! — so that re-folding the rows in ledger order reproduces the parent
//! bit-for-bit (`closing_residual`, private). The main
//! residual is not error swept under a rug — it is itself meaningful
//! (the server disk's idle draw in the disk view, the meter-vs-model gap
//! in the power-state view) and [`EnergyLedger::verify_closure`] bounds
//! it where theory says it must be small.
//!
//! What the verifier then attests — on every chaos scenario and under
//! the proptest plane — is the conjunction of: exact-copy rows match
//! `RunMetrics` bit-for-bit, every fold closes bit-exactly, request
//! shares are finite, non-negative, and never over-allocate
//! (`unattributed ≥ 0`), and the per-node/SSD semantic identities hold.

use crate::span::{RequestSpan, ResidencyTable, ServeSource};
use disk_model::{DiskSpec, PowerState};
use eevfs::config::ClusterSpec;
use eevfs::RunMetrics;
use serde::{Deserialize, Serialize};

/// One named row of a ledger view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerRow {
    /// Stable row name (deterministic order within its view).
    pub name: String,
    /// Joules attributed to this row.
    pub joules: f64,
}

/// The joules one request carries out of the attribution pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestShare {
    /// Request ID.
    pub req: u64,
    /// File the request touched.
    pub file: u64,
    /// Serving node, when observed.
    pub node: Option<u32>,
    /// Request size in bytes.
    pub bytes: u64,
    /// Attributed joules: the request's share of its node's disk pool
    /// (active transfer + spin-up transient) or of the SSD tier's draw.
    pub joules: f64,
}

/// Per-state power draw of one disk, watts.
#[derive(Debug, Clone, Copy)]
struct StatePowers {
    active_w: f64,
    idle_w: f64,
    standby_w: f64,
    spinup_w: f64,
    spindown_w: f64,
}

impl StatePowers {
    fn of(spec: &DiskSpec) -> StatePowers {
        StatePowers {
            active_w: spec.p_active_w,
            idle_w: spec.p_idle_w,
            standby_w: spec.p_standby_w,
            spinup_w: spec.p_spinup_w,
            spindown_w: spec.p_spindown_w,
        }
    }

    fn power(&self, state: PowerState) -> f64 {
        match state {
            PowerState::Active => self.active_w,
            PowerState::Idle => self.idle_w,
            PowerState::Standby => self.standby_w,
            PowerState::SpinningUp => self.spinup_w,
            PowerState::SpinningDown => self.spindown_w,
        }
    }
}

/// The watt model attribution prices spans against, extracted from the
/// cluster spec the run used.
#[derive(Debug, Clone)]
pub struct AttributionModel {
    nodes: Vec<NodePowers>,
}

#[derive(Debug, Clone)]
struct NodePowers {
    buffer: StatePowers,
    data: Vec<StatePowers>,
}

impl AttributionModel {
    /// Builds the model from the cluster spec (pure; no defaults hidden
    /// inside — attribution must price spans with the same constants the
    /// simulator metered).
    pub fn from_cluster(cluster: &ClusterSpec) -> AttributionModel {
        AttributionModel {
            nodes: cluster
                .nodes
                .iter()
                .map(|n| NodePowers {
                    buffer: StatePowers::of(&n.buffer_disk),
                    data: n.data_disks.iter().map(StatePowers::of).collect(),
                })
                .collect(),
        }
    }

    /// Power of `(node, disk)` in `state`; `disk == u32::MAX` addresses
    /// the buffer disk. Unknown coordinates price at zero (they then
    /// land in the residual row instead of inventing joules).
    fn power(&self, node: u32, disk: u32, state: PowerState) -> f64 {
        let Some(n) = self.nodes.get(node as usize) else {
            return 0.0;
        };
        if disk == u32::MAX {
            return n.buffer.power(state);
        }
        n.data
            .get(disk as usize)
            .map(|d| d.power(state))
            .unwrap_or(0.0)
    }
}

/// The closed ledger over one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyLedger {
    /// Exact copy of [`RunMetrics::total_energy_j`].
    pub total_j: f64,
    /// Exact copy of [`RunMetrics::disk_energy_j`].
    pub disk_j: f64,
    /// Exact copy of [`RunMetrics::base_energy_j`].
    pub base_j: f64,
    /// Exact copy of [`RunMetrics::scrub_energy_j`] (overlay meter: the
    /// integrity work's joules are *also* inside the disk/base rows).
    pub scrub_j: f64,
    /// Exact copy of the prefetch warm-up energy, which the paper — and
    /// therefore `total_j` — excludes.
    pub warmup_j: f64,
    /// Disk view: per-node disk meters, the SSD tier, then the
    /// server-disk residual. Folds to `disk_j` bit-exactly.
    pub disk_rows: Vec<LedgerRow>,
    /// Base view: per-node base meters, then the server-base residual.
    /// Folds to `base_j` bit-exactly.
    pub base_rows: Vec<LedgerRow>,
    /// Power-state view: residency × spec watts per state, the base
    /// power and SSD rows copied exactly, then the meter-model residual.
    /// Folds to `total_j` bit-exactly.
    pub state_rows: Vec<LedgerRow>,
    /// Request view, in span order (request-ID order).
    pub requests: Vec<RequestShare>,
    /// Joules attribution assigned to requests: `fold(requests)`.
    pub attributed_j: f64,
    /// Joules no request caused (idle residency, base power, scrub,
    /// residuals): closes the request view to `total_j` together with
    /// [`carry_j`](EnergyLedger::carry_j).
    pub unattributed_j: f64,
    /// Sub-ULP rounding carry of the request view:
    /// `(attributed + unattributed) + carry == total` bit-exactly.
    /// Usually 0.0; never larger than one ULP of `total_j`.
    pub carry_j: f64,
}

/// Left-fold in row order — THE summation order every closure check and
/// re-reader must use.
fn fold(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |acc, x| acc + x)
}

/// The residual pair that closes a view bit-exactly: a main residual
/// `r = fl(parent − partial)` plus a sub-ULP rounding carry
/// `c = parent − fl(partial + r)`.
///
/// No *single* float can always close a fold — when `partial ≪ parent`,
/// round-to-nearest-even can make `fl(partial + r)` skip over `parent`
/// for every representable `r`. The pair is guaranteed: `fl(partial+r)`
/// lands within one ULP of `parent`, so their difference is computed
/// **exactly** (Sterbenz's lemma — the operands are within a factor of
/// two), and `fl(fl(partial + r) + c) = fl(parent) = parent` holds
/// bit-for-bit. The carry is 0.0 in the common case and never exceeds an
/// ULP of the parent.
fn closing_residual(parent: f64, partial: f64) -> (f64, f64) {
    let r = parent - partial;
    let v = partial + r;
    if v == parent {
        return (r, 0.0);
    }
    (r, parent - v)
}

/// Builds the closed ledger for one observed run.
///
/// Attribution policy, per request: a disk-served request's raw cost is
/// `transfer × p_active` of its serving disk plus `spinup_wait ×
/// p_spinup` when it woke a drive; raw costs are scaled down (never up)
/// so a node's requests can never claim more than that node's metered
/// disk energy. SSD-tier hits split the SSD meter by bytes served.
/// DRAM hits cost zero disk joules (DRAM draw lives in base power).
/// Everything unclaimed — idle/standby residency, base power, scrub
/// overhead, hedging losers' duplicate work — stays in `unattributed_j`.
pub fn build_ledger(
    metrics: &RunMetrics,
    spans: &[RequestSpan],
    residency: &ResidencyTable,
    model: &AttributionModel,
) -> EnergyLedger {
    // --- disk + base views: exact per-node copies, residual closes. ---
    let mut disk_rows: Vec<LedgerRow> = Vec::with_capacity(metrics.per_node.len() + 2);
    let mut base_rows: Vec<LedgerRow> = Vec::with_capacity(metrics.per_node.len() + 1);
    for (i, n) in metrics.per_node.iter().enumerate() {
        disk_rows.push(LedgerRow {
            name: format!("n{i}.disks"),
            joules: n.buffer_disk_energy_j + n.data_disk_energy_j,
        });
        base_rows.push(LedgerRow {
            name: format!("n{i}.base"),
            joules: n.base_energy_j,
        });
    }
    disk_rows.push(LedgerRow {
        name: "ssd-tier".into(),
        joules: metrics.tier.ssd_energy_j,
    });
    let disk_partial = fold(disk_rows.iter().map(|r| r.joules));
    let (disk_residual, disk_carry) = closing_residual(metrics.disk_energy_j, disk_partial);
    disk_rows.push(LedgerRow {
        name: "server-disk".into(),
        joules: disk_residual,
    });
    disk_rows.push(LedgerRow {
        name: "rounding-carry".into(),
        joules: disk_carry,
    });
    let base_partial = fold(base_rows.iter().map(|r| r.joules));
    let (base_residual, base_carry) = closing_residual(metrics.base_energy_j, base_partial);
    base_rows.push(LedgerRow {
        name: "server-base".into(),
        joules: base_residual,
    });
    base_rows.push(LedgerRow {
        name: "rounding-carry".into(),
        joules: base_carry,
    });

    // --- power-state view: residency × spec watts, residual closes. ---
    let mut by_state = [0.0f64; 5];
    for (&(node, disk), r) in &residency.disks {
        let charge =
            |state: PowerState, us: u64| model.power(node, disk, state) * (us as f64 / 1e6);
        by_state[0] += charge(PowerState::Active, r.active_us);
        by_state[1] += charge(PowerState::Idle, r.idle_us);
        by_state[2] += charge(PowerState::Standby, r.standby_us);
        by_state[3] += charge(PowerState::SpinningUp, r.spinup_us);
        by_state[4] += charge(PowerState::SpinningDown, r.spindown_us);
    }
    let mut state_rows = vec![
        LedgerRow {
            name: "disks-active".into(),
            joules: by_state[0],
        },
        LedgerRow {
            name: "disks-idle".into(),
            joules: by_state[1],
        },
        LedgerRow {
            name: "disks-standby".into(),
            joules: by_state[2],
        },
        LedgerRow {
            name: "disks-spinup".into(),
            joules: by_state[3],
        },
        LedgerRow {
            name: "disks-spindown".into(),
            joules: by_state[4],
        },
        LedgerRow {
            name: "base-power".into(),
            joules: metrics.base_energy_j,
        },
        LedgerRow {
            name: "ssd-tier".into(),
            joules: metrics.tier.ssd_energy_j,
        },
    ];
    let state_partial = fold(state_rows.iter().map(|r| r.joules));
    let (state_residual, state_carry) = closing_residual(metrics.total_energy_j, state_partial);
    state_rows.push(LedgerRow {
        name: "meter-residual".into(),
        joules: state_residual,
    });
    state_rows.push(LedgerRow {
        name: "rounding-carry".into(),
        joules: state_carry,
    });

    // --- request view: raw watt-priced costs, capped per node pool. ---
    let nodes = metrics.per_node.len();
    let mut raw: Vec<f64> = Vec::with_capacity(spans.len());
    let mut node_raw = vec![0.0f64; nodes];
    let mut ssd_weight: Vec<u64> = Vec::with_capacity(spans.len());
    let mut ssd_total_weight: u64 = 0;
    for s in spans {
        let mut j = 0.0;
        let mut w = 0u64;
        if let Some(node) = s.node {
            match s.source {
                ServeSource::Buffer | ServeSource::Data => {
                    let disk = s.disk.unwrap_or(u32::MAX);
                    j = model.power(node, disk, PowerState::Active) * (s.transfer_us as f64 / 1e6)
                        + model.power(node, disk, PowerState::SpinningUp)
                            * (s.spinup_us as f64 / 1e6);
                    if let Some(n) = node_raw.get_mut(node as usize) {
                        *n += j;
                    }
                }
                ServeSource::Ssd => {
                    // Weight by bytes; a zero-byte request still weighs 1
                    // so the SSD pool cannot strand on degenerate sizes.
                    w = s.bytes.max(1);
                    ssd_total_weight += w;
                }
                ServeSource::Dram | ServeSource::Unserved => {}
            }
        }
        raw.push(j);
        ssd_weight.push(w);
    }
    let scale: Vec<f64> = (0..nodes)
        .map(|i| {
            let pool =
                metrics.per_node[i].buffer_disk_energy_j + metrics.per_node[i].data_disk_energy_j;
            if node_raw[i] > pool && node_raw[i] > 0.0 {
                pool / node_raw[i]
            } else {
                1.0
            }
        })
        .collect();
    let requests: Vec<RequestShare> = spans
        .iter()
        .zip(raw.iter().zip(&ssd_weight))
        .map(|(s, (&j, &w))| {
            let scaled = match s.node {
                Some(n) => j * scale.get(n as usize).copied().unwrap_or(1.0),
                None => j,
            };
            let ssd_share = if w > 0 && ssd_total_weight > 0 {
                metrics.tier.ssd_energy_j * (w as f64 / ssd_total_weight as f64)
            } else {
                0.0
            };
            RequestShare {
                req: s.req,
                file: s.file,
                node: s.node,
                bytes: s.bytes,
                joules: scaled + ssd_share,
            }
        })
        .collect();
    let attributed_j = fold(requests.iter().map(|r| r.joules));
    let (unattributed_j, carry_j) = closing_residual(metrics.total_energy_j, attributed_j);

    EnergyLedger {
        total_j: metrics.total_energy_j,
        disk_j: metrics.disk_energy_j,
        base_j: metrics.base_energy_j,
        scrub_j: metrics.scrub_energy_j,
        warmup_j: metrics.prefetch.energy_j,
        disk_rows,
        base_rows,
        state_rows,
        requests,
        attributed_j,
        unattributed_j,
        carry_j,
    }
}

fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

impl EnergyLedger {
    /// The hard invariant the chaos plane and the proptests attest: the
    /// ledger sums bit-exactly to the `RunMetrics` totals.
    ///
    /// Checks, in order: every exact-copy row matches `metrics`
    /// bit-for-bit; `disk + base == total` exactly (the driver's own
    /// identity); each view re-folds to its parent bit-exactly; request
    /// shares are finite, non-negative, and never over-allocate; all
    /// rows are finite.
    pub fn verify_closure(&self, metrics: &RunMetrics) -> Result<(), String> {
        // Exact copies.
        let copies = [
            ("total", self.total_j, metrics.total_energy_j),
            ("disk", self.disk_j, metrics.disk_energy_j),
            ("base", self.base_j, metrics.base_energy_j),
            ("scrub", self.scrub_j, metrics.scrub_energy_j),
            ("warmup", self.warmup_j, metrics.prefetch.energy_j),
        ];
        for (name, ours, theirs) in copies {
            if !bits_eq(ours, theirs) {
                return Err(format!("{name} copy {ours} != RunMetrics {theirs}"));
            }
        }
        // The driver's own total identity, bit-exact.
        if !bits_eq(self.disk_j + self.base_j, self.total_j) {
            return Err(format!(
                "disk {} + base {} != total {}",
                self.disk_j, self.base_j, self.total_j
            ));
        }
        // View folds.
        let views = [
            ("disk view", &self.disk_rows, self.disk_j),
            ("base view", &self.base_rows, self.base_j),
            ("state view", &self.state_rows, self.total_j),
        ];
        for (name, rows, parent) in views {
            let sum = fold(rows.iter().map(|r| r.joules));
            if !bits_eq(sum, parent) {
                return Err(format!("{name} folds to {sum}, parent is {parent}"));
            }
            if let Some(bad) = rows.iter().find(|r| !r.joules.is_finite()) {
                return Err(format!("{name} row {} is {}", bad.name, bad.joules));
            }
        }
        // Per-node rows mirror the metrics bit-for-bit.
        for (i, n) in metrics.per_node.iter().enumerate() {
            let disk_row = self
                .disk_rows
                .get(i)
                .ok_or_else(|| format!("missing disk row for node {i}"))?;
            if !bits_eq(
                disk_row.joules,
                n.buffer_disk_energy_j + n.data_disk_energy_j,
            ) {
                return Err(format!("disk row n{i} diverges from the node meter"));
            }
            let base_row = self
                .base_rows
                .get(i)
                .ok_or_else(|| format!("missing base row for node {i}"))?;
            if !bits_eq(base_row.joules, n.base_energy_j) {
                return Err(format!("base row n{i} diverges from the node meter"));
            }
        }
        // Request view: closed, finite, non-negative, never over-allocated.
        let attributed = fold(self.requests.iter().map(|r| r.joules));
        if !bits_eq(attributed, self.attributed_j) {
            return Err(format!(
                "request fold {attributed} != recorded attributed {}",
                self.attributed_j
            ));
        }
        if !bits_eq(
            (self.attributed_j + self.unattributed_j) + self.carry_j,
            self.total_j,
        ) {
            return Err(format!(
                "attributed {} + unattributed {} + carry {} != total {}",
                self.attributed_j, self.unattributed_j, self.carry_j, self.total_j
            ));
        }
        // The carry is a rounding artifact, not a place to hide energy.
        if !self.carry_j.is_finite() || self.carry_j.abs() > self.total_j.abs() * 1e-12 {
            return Err(format!("rounding carry {} is not sub-ULP", self.carry_j));
        }
        if let Some(bad) = self
            .requests
            .iter()
            .find(|r| !r.joules.is_finite() || r.joules < 0.0)
        {
            return Err(format!("request {} share is {}", bad.req, bad.joules));
        }
        if !self.unattributed_j.is_finite() || self.unattributed_j < 0.0 {
            return Err(format!(
                "attribution over-allocated: unattributed pool is {}",
                self.unattributed_j
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::span::reconstruct_spans;
    use eevfs::config::EevfsConfig;
    use eevfs::driver::{simulate, Scenario};
    use eevfs_obs::{Recorder, TraceEvent};
    use workload::synthetic::{generate, SyntheticSpec};

    fn observed_ledger(requests: u32, seed: u64) -> (RunMetrics, EnergyLedger) {
        let trace = generate(&SyntheticSpec {
            requests,
            seed,
            ..SyntheticSpec::paper_default()
        });
        let cluster = ClusterSpec::paper_testbed();
        let cfg = EevfsConfig::paper_pf(70);
        let scenario = Scenario::new(&cluster, &cfg, &trace);
        let (metrics, report) = simulate(&scenario, Some(Recorder::default())).unwrap();
        let report = report.unwrap();
        let events: Vec<TraceEvent> = report.recorder.events().cloned().collect();
        let spans = reconstruct_spans(&events);
        assert_eq!(spans.len() as u32, requests);
        let warmup_us = metrics.prefetch.warmup_us;
        let end_us = warmup_us + (metrics.duration_s * 1e6).round() as u64;
        let residency = ResidencyTable::from_events(&events, warmup_us, end_us);
        let model = AttributionModel::from_cluster(&cluster);
        let ledger = build_ledger(&metrics, &spans, &residency, &model);
        (metrics, ledger)
    }

    #[test]
    fn ledger_closes_bit_exactly_on_the_paper_workload() {
        let (metrics, ledger) = observed_ledger(120, 7);
        ledger.verify_closure(&metrics).unwrap();
        // The run does real work, so some energy must be attributed…
        assert!(ledger.attributed_j > 0.0);
        // …but base power and idle residency dominate a PF run.
        assert!(ledger.unattributed_j > ledger.attributed_j);
    }

    #[test]
    fn ledger_is_deterministic() {
        let (_, a) = observed_ledger(60, 11);
        let (_, b) = observed_ledger(60, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn closure_detects_tampering() {
        let (metrics, mut ledger) = observed_ledger(40, 3);
        ledger.requests[0].joules += 0.5;
        assert!(ledger.verify_closure(&metrics).is_err());
    }

    #[test]
    fn closing_residual_closes_hard_cases() {
        for (parent, partial) in [
            (1.0e9, 1.0e9 - 1.0),
            (0.1 + 0.2, 0.1),
            (5.0e5, 3.0),
            (0.0, 0.0),
            (7.25e4, 7.24999e4),
            // From a real chaos campaign: no single residual closes this
            // pair (round-to-nearest-even skips the parent), so the
            // carry must be non-zero.
            (99408.28702529999, 1463.068944999999),
            (43249.7785198, 1393.2988159999986),
        ] {
            let (r, c) = closing_residual(parent, partial);
            assert_eq!(
                ((partial + r) + c).to_bits(),
                parent.to_bits(),
                "parent {parent}, partial {partial}"
            );
            assert!(
                c.abs() <= parent.abs() * 1e-12,
                "carry {c} not sub-ULP of {parent}"
            );
        }
    }
}
