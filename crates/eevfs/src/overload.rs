//! Overload control plane: admission gate and brownout ladder.
//!
//! Both the prototype (`eevfs-runtime`) and the DES driver historically
//! queued without bound when saturated — in the prototype every client
//! connection parked on the server's routing mutex, in the simulator the
//! serialised [`crate::server::ServerQueue`] grew arbitrarily deep — so
//! offered load past the service rate turned directly into unbounded
//! latency. This module is the control plane that replaces that
//! behaviour, shared by both so the simulator predicts the prototype's
//! shedding rather than merely resembling it:
//!
//! * [`AdmissionGate`] — a bounded in-flight counter. A request is either
//!   admitted (occupying one slot until its reply is written) or refused
//!   with `Busy` *before* it can queue anywhere, so the number of
//!   requests inside the server is capped by construction.
//! * The **brownout ladder** — graceful degradation in three steps driven
//!   by gate occupancy:
//!
//!   ```text
//!             load ≥ l1_enter            load ≥ l2_enter           load ≥ capacity
//!   L0 ───────────────────────▶ L1 ─────────────────────▶ L2 ─────────────────▶ L3
//!   normal                  buffer-only             shed low priority       reject all
//!   ◀─────────────────────────    ◀────────────────────────   ◀────────────────────
//!        relief_needed consecutive observations below (enter − exit_margin)
//!   ```
//!
//!   At **L1** the server broadcasts the brownout level and nodes refuse
//!   buffer misses instead of spinning up data disks
//!   (the energy policy's prefetch spin-ups are the first thing
//!   sacrificed). At **L2** the server additionally sheds requests whose
//!   priority is below [`OverloadOptions::shed_priority_below`]. At
//!   **L3** admission refuses everything. Stepping **down** requires
//!   [`OverloadOptions::relief_needed`] *consecutive* observations below
//!   the current level's entry threshold minus
//!   [`OverloadOptions::exit_margin`] — hysteresis, so the ladder cannot
//!   flap on a load oscillating around a threshold, and the level
//!   sequence is a deterministic function of the observation sequence.
//!
//! The same ladder (same struct, same transition rule) runs inside the
//! DES driver, which is what lets the simulator predict the prototype's
//! shedding behaviour rather than merely resemble it. Both worlds book
//! the whole [`OverloadStats`] ledger through the gate: admission in
//! [`AdmissionGate::try_admit`], the admitted request's [`Outcome`] in
//! [`AdmissionGate::release`].

use crate::metrics::OverloadStats;
use serde::{Deserialize, Serialize};

/// Knobs for the overload control plane.
///
/// The default is **disabled**: a zero `max_inflight` means no gate, no
/// ladder, no shedding — exactly the legacy unbounded behaviour, so
/// existing configurations are unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverloadOptions {
    /// Maximum concurrently admitted requests (0 = control plane off).
    pub max_inflight: usize,
    /// Gate occupancy at which the ladder enters L1 (buffer-only).
    pub l1_enter: usize,
    /// Gate occupancy at which the ladder enters L2 (priority shed).
    pub l2_enter: usize,
    /// Requests with priority strictly below this are shed at L2.
    pub shed_priority_below: u8,
    /// Consecutive below-threshold observations required to step down.
    pub relief_needed: u32,
    /// Occupancy slack subtracted from a level's entry threshold before
    /// an observation counts as relief.
    pub exit_margin: usize,
}

impl Default for OverloadOptions {
    fn default() -> OverloadOptions {
        OverloadOptions {
            max_inflight: 0,
            l1_enter: 0,
            l2_enter: 0,
            shed_priority_below: 2,
            relief_needed: 3,
            exit_margin: 1,
        }
    }
}

impl OverloadOptions {
    /// An enabled control plane sized for `max_inflight` concurrent
    /// requests: L1 at half occupancy, L2 at three quarters, L3 (reject
    /// all) only when the gate itself is full.
    pub fn bounded(max_inflight: usize) -> OverloadOptions {
        OverloadOptions {
            max_inflight,
            l1_enter: max_inflight.div_ceil(2),
            l2_enter: (max_inflight * 3).div_ceil(4),
            ..OverloadOptions::default()
        }
    }

    /// True when the control plane is active.
    pub fn enabled(&self) -> bool {
        self.max_inflight > 0
    }
}

/// Why a request did not make it past admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The gate is full or the ladder is at L3: refuse with `Busy`.
    Busy,
    /// Brownout L2 and the priority is below the shed threshold.
    PriorityShed,
}

/// Shed reason codes carried by `Message::Shed` frames.
pub mod shed_code {
    /// The request's deadline budget was exhausted before service.
    pub const DEADLINE: u16 = 1;
    /// The request's priority was shed under brownout level 2.
    pub const PRIORITY: u16 = 2;
    /// A node refused the admitted request under brownout (buffer miss).
    pub const DOWNSTREAM: u16 = 3;
}

/// How an admitted request left the server, booked when its slot is
/// released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served to completion.
    Completed,
    /// Refused downstream of admission: a node under brownout, or a
    /// deadline budget that drained before routing.
    NodeShed,
    /// Failed downstream (route or retry budget exhausted, or an error
    /// reply).
    Failed,
}

/// Bounded admission gate plus brownout ladder plus the shed ledger.
///
/// All mutation happens through [`AdmissionGate::try_admit`] /
/// [`AdmissionGate::release`] (callers serialise access with a mutex, or
/// single-threaded event order in the simulator), so the ledger always
/// closes once every admitted slot is released
/// ([`OverloadStats::ledger_closes`]).
#[derive(Debug, Clone)]
pub struct AdmissionGate {
    opts: OverloadOptions,
    inflight: usize,
    level: u8,
    relief: u32,
    stats: OverloadStats,
}

impl AdmissionGate {
    /// A gate with the given options. Disabled options admit everything.
    pub fn new(opts: OverloadOptions) -> AdmissionGate {
        AdmissionGate {
            opts,
            inflight: 0,
            level: 0,
            relief: 0,
            stats: OverloadStats::default(),
        }
    }

    /// Current brownout level (0–3).
    pub fn level(&self) -> u8 {
        self.level
    }

    /// The ledger so far.
    pub fn stats(&self) -> &OverloadStats {
        &self.stats
    }

    /// Offers one request with `priority` to the gate. `Ok` admits it
    /// (the caller must [`AdmissionGate::release`] the slot when the
    /// reply is written); `Err` says how to refuse it.
    pub fn try_admit(&mut self, priority: u8) -> Result<(), AdmitError> {
        self.stats.offered += 1;
        if !self.opts.enabled() {
            self.stats.admitted += 1;
            self.inflight += 1;
            self.stats.queue_peak = self.stats.queue_peak.max(self.inflight as u64);
            return Ok(());
        }
        self.observe();
        if self.level >= 3 || self.inflight >= self.opts.max_inflight {
            self.stats.rejected += 1;
            return Err(AdmitError::Busy);
        }
        if self.level >= 2 && priority < self.opts.shed_priority_below {
            self.stats.shed += 1;
            return Err(AdmitError::PriorityShed);
        }
        self.stats.admitted += 1;
        self.inflight += 1;
        self.stats.queue_peak = self.stats.queue_peak.max(self.inflight as u64);
        // The admission itself is load: step up immediately if it crossed
        // a threshold, so the *next* request sees the new level.
        self.climb();
        Ok(())
    }

    /// Releases one admitted slot (reply written, or request abandoned)
    /// and books how the request left.
    pub fn release(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Completed => self.stats.completed += 1,
            Outcome::NodeShed => self.stats.node_shed += 1,
            Outcome::Failed => self.stats.failed += 1,
        }
        self.inflight = self.inflight.saturating_sub(1);
        self.observe();
    }

    /// One ladder observation of the current occupancy: immediate
    /// step-up, hysteresis-gated step-down.
    fn observe(&mut self) {
        if !self.opts.enabled() {
            return;
        }
        if self.climb() {
            return;
        }
        // Below every higher entry threshold: count relief against the
        // current level's own entry threshold.
        let Some(enter) = self.enter_threshold(self.level) else {
            return; // already at L0
        };
        if self.inflight < enter.saturating_sub(self.opts.exit_margin) {
            self.relief += 1;
            if self.relief >= self.opts.relief_needed {
                self.level -= 1;
                self.relief = 0;
                self.stats.brownout_transitions += 1;
            }
        } else {
            self.relief = 0;
        }
    }

    /// Steps up to the highest level whose threshold the current load
    /// meets. Returns true if the level changed.
    fn climb(&mut self) -> bool {
        let mut next = self.level;
        while next < 3 {
            match self.enter_threshold(next + 1) {
                Some(enter) if self.inflight >= enter => next += 1,
                _ => break,
            }
        }
        if next != self.level {
            self.level = next;
            self.relief = 0;
            self.stats.brownout_transitions += 1;
            self.stats.max_level = self.stats.max_level.max(next);
            true
        } else {
            false
        }
    }

    /// The occupancy at which `level` is entered (`None` for L0).
    fn enter_threshold(&self, level: u8) -> Option<usize> {
        match level {
            1 => Some(self.opts.l1_enter.max(1)),
            2 => Some(self.opts.l2_enter.max(1)),
            3 => Some(self.opts.max_inflight.max(1)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> OverloadOptions {
        OverloadOptions {
            max_inflight: 8,
            l1_enter: 4,
            l2_enter: 6,
            shed_priority_below: 2,
            relief_needed: 3,
            exit_margin: 1,
        }
    }

    #[test]
    fn disabled_gate_admits_everything_and_stays_level_zero() {
        let mut g = AdmissionGate::new(OverloadOptions::default());
        for _ in 0..1000 {
            assert_eq!(g.try_admit(0), Ok(()));
        }
        assert_eq!(g.level(), 0);
        assert_eq!(g.stats().admitted, 1000);
        assert_eq!(g.stats().queue_peak, 1000);
    }

    #[test]
    fn gate_caps_inflight_and_refuses_busy() {
        let mut g = AdmissionGate::new(opts());
        let mut admitted = 0;
        let mut busy = 0;
        for _ in 0..20 {
            match g.try_admit(5) {
                Ok(()) => admitted += 1,
                Err(AdmitError::Busy) => busy += 1,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert_eq!(admitted, 8, "exactly max_inflight admitted");
        assert_eq!(busy, 12);
        assert_eq!(g.stats().queue_peak, 8);
        // Ledger closes.
        let c = *g.stats();
        assert_eq!(c.offered, c.admitted + c.rejected + c.shed);
    }

    #[test]
    fn ladder_climbs_and_sheds_low_priority_at_l2() {
        let mut g = AdmissionGate::new(opts());
        for _ in 0..6 {
            g.try_admit(5).expect("below capacity");
        }
        assert_eq!(g.level(), 2, "occupancy 6 enters L2");
        assert_eq!(g.try_admit(1), Err(AdmitError::PriorityShed));
        assert_eq!(g.try_admit(2), Ok(()), "priority at threshold passes");
        let c = *g.stats();
        assert_eq!(c.offered, c.admitted + c.rejected + c.shed);
    }

    #[test]
    fn a_gate_that_fills_and_drains_reaches_l3_without_rejecting() {
        let mut g = AdmissionGate::new(opts());
        // The admission that fills the gate enters L3.
        for _ in 0..8 {
            g.try_admit(5).expect("admit");
        }
        assert_eq!((g.inflight, g.level()), (8, 3));
        // Everything drains before the next arrival, which the ladder
        // has stepped down for by then.
        for _ in 0..8 {
            g.release(Outcome::Completed);
        }
        assert_eq!(g.try_admit(5), Ok(()));
        g.release(Outcome::Completed);
        let s = *g.stats();
        assert_eq!((s.max_level, s.rejected), (3, 0));
        assert!(s.ledger_closes(), "{s:?}");
    }

    #[test]
    fn ladder_steps_down_only_after_sustained_relief() {
        let mut g = AdmissionGate::new(opts());
        for _ in 0..6 {
            g.try_admit(5).expect("admit");
        }
        assert_eq!(g.level(), 2);
        // Occupancy 5 is not below l2_enter - margin = 5: no relief.
        g.release(Outcome::Completed);
        assert_eq!((g.inflight, g.level()), (5, 2));
        // Draining below the margin starts the relief count; only three
        // consecutive observations step down, and by exactly one level.
        g.release(Outcome::Completed); // inflight 4: relief 1 (4 < 6-1)
        g.release(Outcome::Completed); // inflight 3: relief 2
        assert_eq!(g.level(), 2, "hysteresis holds the level");
        g.release(Outcome::Completed); // inflight 2: relief 3 -> step to L1
        assert_eq!(g.level(), 1, "one step per relief window");
        g.release(Outcome::Completed); // inflight 1: relief 1 at L1 (1 < 4-1)
        g.release(Outcome::Completed); // inflight 0: relief 2
        assert_eq!(g.level(), 1);
        g.release(Outcome::Completed); // still 0: relief 3 -> L0
        assert_eq!(g.level(), 0);
    }

    #[test]
    fn level_sequence_is_deterministic() {
        // The same admit/release schedule replays to the same levels and
        // the same ledger, bit for bit.
        let run = || {
            let mut g = AdmissionGate::new(opts());
            let mut levels = Vec::new();
            for i in 0..200u32 {
                if i % 3 == 0 {
                    g.release(Outcome::Completed);
                } else {
                    let _ = g.try_admit((i % 7) as u8);
                }
                levels.push(g.level());
            }
            (levels, *g.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn full_gate_hits_l3_and_rejects_everything() {
        let mut g = AdmissionGate::new(opts());
        for _ in 0..8 {
            g.try_admit(255).expect("fill");
        }
        assert_eq!(g.level(), 3, "full gate is L3");
        assert_eq!(g.try_admit(255), Err(AdmitError::Busy));
        let c = *g.stats();
        assert_eq!(c.offered, c.admitted + c.rejected + c.shed);
        assert!(c.brownout_transitions >= 3, "L0->L1->L2->L3: {c:?}");
        assert_eq!(c.max_level, 3);
    }

    #[test]
    fn release_books_each_outcome_and_the_ledger_closes() {
        let mut g = AdmissionGate::new(opts());
        for _ in 0..10 {
            let _ = g.try_admit(5);
        }
        g.release(Outcome::Completed);
        g.release(Outcome::NodeShed);
        g.release(Outcome::Failed);
        assert!(!g.stats().ledger_closes(), "five slots still held");
        for _ in 0..5 {
            g.release(Outcome::Completed);
        }
        let c = *g.stats();
        assert_eq!((c.completed, c.node_shed, c.failed), (6, 1, 1));
        assert!(c.ledger_closes(), "{c:?}");
    }
}
