//! The observation plane (DESIGN §9): a structured trace of every request,
//! disk and power event, a 1 s queue-depth series, and an end-of-run fold
//! into an [`ObsReport`]. Observation is passive: it records from inside
//! the event handlers and never schedules an event, so an observed run's
//! metrics equal the unobserved run's. Without a recorder the plane is
//! disengaged: it records nothing, allocates nothing and schedules no
//! event.

use super::{NodeState, Scenario};
use crate::metrics::RunMetrics;
use eevfs_obs::{EventKind, MetricsRegistry, PredictionSample, Recorder, Sampler};
use sim_core::{SimDuration, SimTime, TimeSeries};

/// The artefacts an observed run captures on top of [`RunMetrics`].
#[derive(Debug)]
pub struct ObsReport {
    /// The trace-event buffer, time-sorted and ready for JSONL export.
    pub recorder: Recorder,
    /// The run's final counters, the cluster queue-depth series
    /// (`queue_depth`, sampled every second) and each node's power-draw
    /// series (`power_w.n{node}`, 120 uniform windows, base power
    /// included).
    pub registry: MetricsRegistry,
    /// One entry per sleep decision, scored against breakeven.
    pub samples: Vec<PredictionSample>,
    /// The whole-cluster cumulative-energy curve: `(time, joules-so-far)`
    /// at 241 uniform points over the run, warm-up and node/server base
    /// power included. Differentiating it gives power over time.
    pub energy_curve: TimeSeries,
}

/// One run's observation state; `None` inside when the run has no
/// recorder.
pub(super) struct ObsPlane(Option<Engaged>);

/// The live state of an engaged plane.
struct Engaged {
    rec: Recorder,
    registry: MetricsRegistry,
    /// Gate for the periodic queue-depth series. The sampler is consulted
    /// from inside the event handler instead of scheduling its own events,
    /// so the event queue — and therefore the simulated outcome — stays
    /// exactly identical to an unobserved run.
    sampler: Sampler,
    /// Trace requests issued and not yet answered.
    outstanding: u64,
}

impl ObsPlane {
    /// The plane over `recorder`. An engaged plane turns on the disks'
    /// cumulative-energy traces (for the power-draw series and the energy
    /// curve) and the data and buffer disks' state logs (for
    /// `DiskTransition` events).
    pub(super) fn new(recorder: Option<Recorder>, nodes: &mut [NodeState]) -> Self {
        if recorder.is_some() {
            for n in nodes {
                n.buffer_disk.enable_trace();
                n.buffer_disk.enable_state_log();
                for d in &mut n.data_disks {
                    d.enable_trace();
                    d.enable_state_log();
                }
                if let Some(s) = n.ssd.as_mut() {
                    s.enable_trace();
                }
            }
        }
        ObsPlane(recorder.map(|rec| Engaged {
            rec,
            registry: MetricsRegistry::new(),
            sampler: Sampler::new(SimDuration::from_secs(1)),
            outstanding: 0,
        }))
    }

    /// Records a trace event.
    pub(super) fn event(&mut self, at: SimTime, kind: EventKind) {
        if let Some(e) = self.0.as_mut() {
            e.rec.record(at, kind);
        }
    }

    /// Takes the periodic queue-depth sample when one is due.
    pub(super) fn tick(&mut self, now: SimTime) {
        if let Some(e) = self.0.as_mut() {
            if e.sampler.due(now) {
                e.registry.sample("queue_depth", now, e.outstanding as f64);
            }
        }
    }

    /// A trace request was issued.
    pub(super) fn issued(&mut self) {
        if let Some(e) = self.0.as_mut() {
            e.outstanding += 1;
        }
    }

    /// A trace request was answered.
    pub(super) fn answered(&mut self) {
        if let Some(e) = self.0.as_mut() {
            e.outstanding = e.outstanding.saturating_sub(1);
        }
    }

    /// Folds the finished run into its report: the disks' power-state
    /// edges merged into the time-sorted trace, the final counters of
    /// `metrics`, each node's power-draw series and the whole-cluster
    /// energy curve, all over `[0, end]`. `samples` is the prediction
    /// ledger.
    pub(super) fn finish(
        self,
        scenario: &Scenario<'_>,
        nodes: &[NodeState],
        end: SimTime,
        metrics: &RunMetrics,
        samples: Vec<PredictionSample>,
    ) -> Option<ObsReport> {
        let Engaged {
            mut rec,
            mut registry,
            ..
        } = self.0?;
        // Merge the disks' power-state edges into the trace. Their
        // timestamps lie in the past relative to the live events appended
        // after them, hence the stable re-sort at the end.
        for (node, n) in (0..).zip(nodes) {
            // The buffer disk is `u32::MAX`, as in `RequestServe`.
            let data = (0..).zip(&n.data_disks);
            for (disk, d) in std::iter::once((u32::MAX, &n.buffer_disk)).chain(data) {
                for &(at, from, to) in d.meter().state_log() {
                    rec.record(
                        at,
                        EventKind::DiskTransition {
                            node,
                            disk,
                            from,
                            to,
                        },
                    );
                }
            }
        }
        rec.sort_by_time();

        registry.inc("requests", scenario.trace.len() as u64);
        registry.inc("buffer_hits", metrics.buffer_hits);
        registry.inc("buffer_misses", metrics.buffer_misses);
        registry.inc("spun_up_requests", metrics.spun_up_requests);
        registry.inc("rpc_retries", metrics.resilience.rpc_retries);
        registry.inc("hedges", metrics.resilience.hedges);
        registry.inc("sleeps", metrics.prediction.sleeps);
        registry.inc("sleeps_paid_off", metrics.prediction.paid_off);
        if scenario.power.is_some() {
            let tier = &metrics.tier;
            registry.inc("tier_dram_hits", tier.dram_hits);
            registry.inc("tier_dram_misses", tier.dram_misses);
            registry.inc("tier_ssd_hits", tier.ssd_hits);
            registry.inc("tier_ssd_misses", tier.ssd_misses);
            registry.inc("tier_evictions", tier.dram_evictions + tier.ssd_evictions);
            registry.inc("sleeps_denied", tier.sleeps_denied);
        }

        // Per-node power-draw series: differentiate the cumulative-energy
        // traces over uniform windows and add the node's base power.
        let cluster = scenario.cluster;
        let points = 120u64;
        let end_us = end.as_micros().max(1);
        for (ni, (spec, n)) in cluster.nodes.iter().zip(nodes).enumerate() {
            let name = format!("power_w.n{ni}");
            for i in 0..points {
                let t0 = SimTime::from_micros(end_us * i / points);
                let t1 = SimTime::from_micros(end_us * (i + 1) / points);
                let dt = (t1 - t0).as_secs_f64();
                if dt <= 0.0 {
                    continue;
                }
                let joules = joules_at(n, t1, 0.0) - joules_at(n, t0, 0.0);
                registry.sample(&name, t1, joules / dt + spec.base_power_w);
            }
        }

        // The whole-cluster cumulative-energy curve.
        let mut energy_curve = TimeSeries::new();
        let base_w: f64 = cluster.nodes.iter().map(|n| n.base_power_w).sum::<f64>()
            + cluster.server_base_power_w
            + cluster.server_disk.p_idle_w;
        let points = 240u64;
        for i in 0..=points {
            let t = SimTime::from_micros(end.as_micros() * i / points);
            let joules = nodes
                .iter()
                .fold(base_w * t.as_secs_f64(), |j, n| joules_at(n, t, j));
            energy_curve.push(t, joules);
        }
        Some(ObsReport {
            recorder: rec,
            registry,
            samples,
            energy_curve,
        })
    }
}

/// `acc` plus the cumulative joules of `n`'s disks at `t` — buffer disk,
/// data disks, then the SSD tier, added in that order.
fn joules_at(n: &NodeState, t: SimTime, acc: f64) -> f64 {
    let disks = std::iter::once(&n.buffer_disk)
        .chain(&n.data_disks)
        .chain(&n.ssd);
    disks.fold(acc, |j, d| {
        j + d.meter().trace().interpolate(t).unwrap_or(0.0)
    })
}
