//! Per-state energy integration and the transition ledger.
//!
//! The paper's three metrics (§V-C) are energy consumed, number of power
//! state transitions, and response time. [`EnergyMeter`] produces the first
//! two for one drive: it integrates `power(state) × time` lazily as the
//! simulation pushes state changes at it in time order, and counts every
//! spin-up and spin-down (the transitions Fig 4 reports).

use crate::spec::DiskSpec;
use crate::state::PowerState;
use serde::{Deserialize, Serialize};
use sim_core::{SimTime, TimeSeries};

/// Counts of spin transitions, the unit of the paper's Fig 4.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransitionCounts {
    /// Standby → spinning transitions (each adds ~2 s of latency).
    pub spin_ups: u64,
    /// Spinning → standby transitions.
    pub spin_downs: u64,
}

impl TransitionCounts {
    /// Total transitions, the quantity plotted in the paper's Fig 4.
    pub fn total(&self) -> u64 {
        self.spin_ups + self.spin_downs
    }
}

/// Integrates one drive's energy over its power-state timeline.
///
/// Calls must be time-ordered; the meter panics (debug) on clock reversal.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    spec: DiskSpec,
    state: PowerState,
    last: SimTime,
    joules_by_state: [f64; 5],
    time_by_state_us: [u64; 5],
    transitions: TransitionCounts,
    /// Cumulative-energy curve, one sample per state change, for the
    /// harness's power-over-time plots.
    trace: TimeSeries,
    trace_enabled: bool,
    /// Every state edge as `(at, from, to)`, for trace-event export.
    state_log: Vec<(SimTime, PowerState, PowerState)>,
    state_log_enabled: bool,
}

impl EnergyMeter {
    /// A meter starting at `t = 0` in the Idle state (drives in the paper's
    /// testbed idle until the trace starts).
    pub fn new(spec: DiskSpec) -> Self {
        EnergyMeter {
            spec,
            state: PowerState::Idle,
            last: SimTime::ZERO,
            joules_by_state: [0.0; 5],
            time_by_state_us: [0; 5],
            transitions: TransitionCounts::default(),
            trace: TimeSeries::new(),
            trace_enabled: false,
            state_log: Vec::new(),
            state_log_enabled: false,
        }
    }

    /// Enables recording of the cumulative-energy curve (off by default to
    /// keep parameter sweeps lean). Samples land at every state change and
    /// at finalisation; since power is constant within a state, linear
    /// interpolation between samples reconstructs the curve exactly.
    pub fn enable_trace(&mut self) {
        self.trace_enabled = true;
        self.record_sample();
    }

    /// Enables recording of every power-state edge (off by default; the
    /// log grows with transition count, so sweeps leave it disabled).
    pub fn enable_state_log(&mut self) {
        self.state_log_enabled = true;
    }

    /// The recorded `(at, from, to)` edges, in time order (empty unless
    /// [`Self::enable_state_log`] was called before the run).
    pub fn state_log(&self) -> &[(SimTime, PowerState, PowerState)] {
        &self.state_log
    }

    /// The drive's spec.
    pub fn spec(&self) -> &DiskSpec {
        &self.spec
    }

    /// The current power state.
    pub fn state(&self) -> PowerState {
        self.state
    }

    /// The time of the last recorded change.
    pub fn last_update(&self) -> SimTime {
        self.last
    }

    /// Integrates energy in the current state up to `to`.
    pub fn advance(&mut self, to: SimTime) {
        debug_assert!(
            to >= self.last,
            "energy meter went backwards: {to} < {}",
            self.last
        );
        let to = to.max(self.last);
        let dt = (to - self.last).as_secs_f64();
        let idx = self.state.index();
        self.joules_by_state[idx] += self.spec.power(self.state) * dt;
        self.time_by_state_us[idx] += (to - self.last).as_micros();
        self.last = to;
    }

    /// Integrates up to `at`, then switches to `new_state`.
    ///
    /// Panics if the transition is not legal per
    /// [`PowerState::can_transition_to`]; catching protocol bugs here is
    /// what keeps the power-management policies honest.
    pub fn set_state(&mut self, at: SimTime, new_state: PowerState) {
        if new_state == self.state {
            self.advance(at);
            return;
        }
        assert!(
            self.state.can_transition_to(new_state),
            "illegal power transition {} -> {} at {at}",
            self.state,
            new_state
        );
        self.advance(at);
        match new_state {
            PowerState::SpinningUp => self.transitions.spin_ups += 1,
            PowerState::SpinningDown => self.transitions.spin_downs += 1,
            _ => {}
        }
        if self.state_log_enabled {
            self.state_log.push((at, self.state, new_state));
        }
        self.state = new_state;
        if self.trace_enabled {
            self.trace.push(at, self.total_joules());
        }
    }

    /// Total energy consumed so far, joules.
    pub fn total_joules(&self) -> f64 {
        self.joules_by_state.iter().sum()
    }

    /// Fraction of elapsed time spent in Standby — the "sleep fraction"
    /// EXPERIMENTS.md reports alongside energy.
    pub fn standby_fraction(&self) -> f64 {
        let total: u64 = self.time_by_state_us.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.time_by_state_us[PowerState::Standby.index()] as f64 / total as f64
        }
    }

    /// The transition ledger.
    pub fn transitions(&self) -> TransitionCounts {
        self.transitions
    }

    /// The cumulative-energy curve (empty unless [`Self::enable_trace`]).
    pub fn trace(&self) -> &TimeSeries {
        &self.trace
    }

    /// Appends a `(last_update, total_joules)` sample to the trace (used
    /// by finalisation so the curve covers the whole run).
    pub fn record_sample(&mut self) {
        if self.trace_enabled {
            self.trace.push(self.last, self.total_joules());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> EnergyMeter {
        EnergyMeter::new(DiskSpec::ata133_type1())
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pure_idle_energy() {
        let mut m = meter();
        m.advance(secs(100));
        let expect = DiskSpec::ata133_type1().p_idle_w * 100.0;
        assert!((m.total_joules() - expect).abs() < 1e-9);
        assert_eq!(m.transitions().total(), 0);
        let idle_us = m.time_by_state_us[PowerState::Idle.index()];
        assert_eq!(idle_us, 100_000_000);
    }

    #[test]
    fn active_period_costs_more() {
        let spec = DiskSpec::ata133_type1();
        let mut m = meter();
        m.set_state(secs(10), PowerState::Active);
        m.set_state(secs(20), PowerState::Idle);
        m.advance(secs(30));
        let expect = spec.p_idle_w * 20.0 + spec.p_active_w * 10.0;
        assert!((m.total_joules() - expect).abs() < 1e-9);
        let active_j = m.joules_by_state[PowerState::Active.index()];
        assert!((active_j - spec.p_active_w * 10.0).abs() < 1e-9);
    }

    #[test]
    fn full_sleep_cycle_counts_two_transitions() {
        let spec = DiskSpec::ata133_type1();
        let mut m = meter();
        m.set_state(secs(10), PowerState::SpinningDown);
        m.set_state(secs(12), PowerState::Standby); // 2 s spin-down plateau (test value)
        m.set_state(secs(100), PowerState::SpinningUp);
        m.set_state(secs(102), PowerState::Idle);
        m.advance(secs(110));
        assert_eq!(
            m.transitions(),
            TransitionCounts {
                spin_ups: 1,
                spin_downs: 1
            }
        );
        assert_eq!(m.transitions().total(), 2);
        let expect = spec.p_idle_w * (10.0 + 8.0)
            + spec.p_spindown_w * 2.0
            + spec.p_standby_w * 88.0
            + spec.p_spinup_w * 2.0;
        assert!(
            (m.total_joules() - expect).abs() < 1e-9,
            "got {}",
            m.total_joules()
        );
    }

    #[test]
    fn sleeping_saves_versus_idle_baseline_for_long_windows() {
        let mut m = meter();
        m.set_state(secs(0), PowerState::SpinningDown);
        m.set_state(secs(2), PowerState::Standby);
        m.set_state(secs(598), PowerState::SpinningUp);
        m.set_state(secs(600), PowerState::Idle);
        // Idling the whole 600 s, with no power management.
        let idle_baseline = DiskSpec::ata133_type1().p_idle_w * 600.0;
        assert!(m.total_joules() < idle_baseline);
    }

    #[test]
    #[should_panic(expected = "illegal power transition")]
    fn illegal_jump_panics() {
        let mut m = meter();
        m.set_state(secs(1), PowerState::Standby); // must pass through spin-down
    }

    #[test]
    fn same_state_set_is_advance() {
        let mut m = meter();
        m.set_state(secs(5), PowerState::Idle);
        assert_eq!(m.transitions().total(), 0);
        assert_eq!(m.last_update(), secs(5));
    }

    #[test]
    fn standby_fraction() {
        let mut m = meter();
        m.set_state(secs(10), PowerState::SpinningDown);
        m.set_state(secs(11), PowerState::Standby);
        m.advance(secs(100));
        // 89 s of 100 s in standby.
        assert!((m.standby_fraction() - 0.89).abs() < 1e-9);
    }

    #[test]
    fn trace_records_cumulative_energy() {
        let mut m = meter();
        m.enable_trace();
        m.set_state(secs(10), PowerState::Active);
        m.set_state(secs(20), PowerState::Idle);
        // Initial (0, 0) sample plus one per state change.
        assert_eq!(m.trace().len(), 3);
        assert_eq!(m.trace().get(0), (SimTime::ZERO, 0.0));
        let (t_last, e_last) = m.trace().last().expect("two samples");
        assert_eq!(t_last, secs(20));
        assert!((e_last - m.total_joules()).abs() < 1e-9);
        // The curve is non-decreasing.
        let vals: Vec<f64> = m.trace().iter().map(|(_, v)| v).collect();
        assert!(vals.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn state_log_records_every_edge_in_order() {
        let mut m = meter();
        m.enable_state_log();
        m.set_state(secs(10), PowerState::SpinningDown);
        m.set_state(secs(12), PowerState::Standby);
        m.set_state(secs(12), PowerState::Standby); // same-state: no edge
        m.set_state(secs(100), PowerState::SpinningUp);
        assert_eq!(
            m.state_log(),
            &[
                (secs(10), PowerState::Idle, PowerState::SpinningDown),
                (secs(12), PowerState::SpinningDown, PowerState::Standby),
                (secs(100), PowerState::Standby, PowerState::SpinningUp),
            ]
        );
    }

    #[test]
    fn state_log_off_by_default() {
        let mut m = meter();
        m.set_state(secs(10), PowerState::Active);
        assert!(m.state_log().is_empty());
    }

    #[test]
    fn mid_spindown_reversal_is_legal_and_counted() {
        let mut m = meter();
        m.set_state(secs(10), PowerState::SpinningDown);
        // Request arrives during spin-down: reverse into spin-up.
        m.set_state(secs(11), PowerState::SpinningUp);
        m.set_state(secs(13), PowerState::Active);
        assert_eq!(
            m.transitions(),
            TransitionCounts {
                spin_ups: 1,
                spin_downs: 1
            }
        );
    }
}
