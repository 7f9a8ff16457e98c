//! A FIFO-queued simulated disk drive.
//!
//! [`Disk`] is the unit the EEVFS storage node manages: it combines the
//! service-time model, the power-state machine, and the energy meter, and
//! is driven by the cluster simulation strictly in event-time order.
//!
//! Requests are serviced first-come-first-served (one head, one queue). A
//! request that lands on a sleeping drive pays the spin-up delay in its
//! response time — exactly the penalty the paper measures as "around 2 sec"
//! (§VI-C). A request that lands *mid spin-down* must wait for the
//! wind-down to finish and then spin back up, the worst case the paper's
//! application hints try to avoid (§IV-C).

use crate::energy::{EnergyMeter, TransitionCounts};
use crate::perf::{service_time, AccessKind};
use crate::spec::DiskSpec;
use crate::state::PowerState;
use sim_core::{SimDuration, SimTime};

/// Where the drive is in its sleep lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Platters spinning; `busy_until` marks the queue tail.
    Spun,
    /// Spin-down in progress, completing at `done`.
    WindingDown { done: SimTime },
    /// Fully spun down.
    Asleep,
}

/// Outcome of submitting one request to a [`Disk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletionInfo {
    /// When the heads started on this request (after queueing and any
    /// spin-up).
    pub start: SimTime,
    /// When the last byte left the platters.
    pub finish: SimTime,
    /// True when this request triggered (or had to ride out) a spin-up.
    pub spun_up: bool,
    /// Queueing plus wake delay: `start - submit_time`.
    pub waited: SimDuration,
}

/// A simulated drive with FIFO service and lazy power-state accounting.
///
/// All methods must be called with non-decreasing `now` values; the cluster
/// driver guarantees this by construction (it processes a global
/// time-ordered event queue).
#[derive(Debug, Clone)]
pub struct Disk {
    meter: EnergyMeter,
    busy_until: SimTime,
    phase: Phase,
    generation: u64,
}

impl Disk {
    /// A new drive, idle and spun up at time zero.
    pub fn new(spec: DiskSpec) -> Self {
        Disk {
            meter: EnergyMeter::new(spec),
            busy_until: SimTime::ZERO,
            phase: Phase::Spun,
            generation: 0,
        }
    }

    /// The drive's spec.
    pub fn spec(&self) -> &DiskSpec {
        self.meter.spec()
    }

    /// The energy meter (for end-of-run reporting).
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Enables cumulative-energy trace recording.
    pub fn enable_trace(&mut self) {
        self.meter.enable_trace();
    }

    /// Enables power-state edge logging (read back via
    /// [`EnergyMeter::state_log`] on [`Self::meter`]).
    pub fn enable_state_log(&mut self) {
        self.meter.enable_state_log();
    }

    /// Transition ledger so far.
    pub fn transitions(&self) -> TransitionCounts {
        self.meter.transitions()
    }

    /// Start/stop cycles taken so far (spin-downs). Datasheet MTTF
    /// figures assume a bounded cycle count, so power policies cap this
    /// per run (cf. `eevfs-power`'s spin budgets).
    pub fn spin_cycles(&self) -> u64 {
        self.meter.transitions().spin_downs
    }

    /// Queue tail: when everything submitted so far will be done.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Monotone counter bumped on every submit; idle-timer policies tag
    /// their timers with it so that any intervening request invalidates the
    /// pending timer.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// True when the drive is spun and has no queued work at `now`.
    pub fn is_idle(&self, now: SimTime) -> bool {
        matches!(self.phase, Phase::Spun) && self.busy_until <= now
    }

    /// True when asleep or winding down.
    pub fn is_sleeping(&self) -> bool {
        matches!(self.phase, Phase::WindingDown { .. } | Phase::Asleep)
    }

    /// Lazily records the SpinningDown → Standby edge once `now` passes the
    /// wind-down completion.
    fn settle(&mut self, now: SimTime) {
        if let Phase::WindingDown { done } = self.phase {
            if now >= done {
                self.meter.set_state(done, PowerState::Standby);
                self.phase = Phase::Asleep;
            }
        }
    }

    /// Submits a request of `bytes` at time `now`; returns its service
    /// timeline. FIFO: the request starts when the queue drains, later if
    /// the drive must wake first.
    pub fn submit(&mut self, now: SimTime, bytes: u64, kind: AccessKind) -> CompletionInfo {
        self.settle(now);
        self.generation += 1;
        let mut spun_up = false;
        let start = match self.phase {
            Phase::Spun => now.max(self.busy_until),
            Phase::Asleep => {
                spun_up = true;
                let wake_begin = now.max(self.meter.last_update());
                self.meter.set_state(wake_begin, PowerState::SpinningUp);
                wake_begin + SimDuration::from_secs_f64(self.spec().t_spinup_s)
            }
            Phase::WindingDown { done } => {
                // Arrived mid wind-down: ride it out, then spin up.
                spun_up = true;
                self.meter.set_state(done, PowerState::SpinningUp);
                done + SimDuration::from_secs_f64(self.spec().t_spinup_s)
            }
        };
        let svc = service_time(self.spec(), bytes, kind);
        let finish = start + svc;
        self.meter.set_state(start, PowerState::Active);
        self.meter.set_state(finish, PowerState::Idle);
        self.busy_until = finish;
        self.phase = Phase::Spun;
        CompletionInfo {
            start,
            finish,
            spun_up,
            waited: start - now,
        }
    }

    /// Attempts to spin the drive down at `now`. Returns `false` (and does
    /// nothing) when the drive is busy or already sleeping.
    pub fn sleep(&mut self, now: SimTime) -> bool {
        self.settle(now);
        if !self.is_idle(now) {
            return false;
        }
        self.meter.set_state(now, PowerState::SpinningDown);
        self.phase = Phase::WindingDown {
            done: now + SimDuration::from_secs_f64(self.spec().t_spindown_s),
        };
        true
    }

    /// Settles the timeline to `end` so the meter covers the whole run.
    /// Idempotent; call once after the last event.
    pub fn finalize(&mut self, end: SimTime) {
        self.settle(end);
        let to = end.max(self.meter.last_update());
        self.meter.advance(to);
        self.meter.record_sample();
    }

    /// Total energy consumed, joules (valid after [`Self::finalize`]).
    pub fn total_joules(&self) -> f64 {
        self.meter.total_joules()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MB;

    fn disk() -> Disk {
        Disk::new(DiskSpec::ata133_type1())
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn single_request_timeline() {
        let mut d = disk();
        let c = d.submit(secs(10), 58 * MB, AccessKind::Sequential);
        assert_eq!(c.start, secs(10));
        assert_eq!(c.finish, secs(11)); // 58 MB at 58 MB/s
        assert!(!c.spun_up);
        assert!(c.waited.is_zero());
        d.finalize(secs(20));
        let spec = DiskSpec::ata133_type1();
        let expect = spec.p_idle_w * 19.0 + spec.p_active_w * 1.0;
        assert!((d.total_joules() - expect).abs() < 1e-6);
    }

    #[test]
    fn fifo_queueing_delays_second_request() {
        let mut d = disk();
        let c1 = d.submit(secs(0), 58 * MB, AccessKind::Sequential); // busy 0..1
        let c2 = d.submit(secs(0), 58 * MB, AccessKind::Sequential); // queued
        assert_eq!(c1.finish, secs(1));
        assert_eq!(c2.start, secs(1));
        assert_eq!(c2.finish, secs(2));
        assert_eq!(c2.waited, SimDuration::from_secs(1));
    }

    #[test]
    fn sleep_then_wake_pays_spinup() {
        let mut d = disk();
        assert!(d.sleep(secs(0)));
        assert!(d.is_sleeping());
        let c = d.submit(secs(100), 0, AccessKind::Sequential);
        // Wake begins at 100; spin-up 2 s; zero-byte sequential request.
        assert!(c.spun_up);
        assert_eq!(c.start, secs(102));
        assert_eq!(c.waited, SimDuration::from_secs(2));
        assert_eq!(
            d.transitions(),
            TransitionCounts {
                spin_ups: 1,
                spin_downs: 1
            }
        );
    }

    #[test]
    fn sleep_refused_while_busy() {
        let mut d = disk();
        d.submit(secs(0), 58 * MB, AccessKind::Sequential); // busy until 1 s
        assert!(!d.sleep(SimTime::from_millis(500)));
        assert!(!d.is_sleeping());
        assert!(d.sleep(secs(1)), "idle at the queue tail");
    }

    #[test]
    fn double_sleep_is_refused() {
        let mut d = disk();
        assert!(d.sleep(secs(0)));
        assert!(!d.sleep(secs(1)), "winding down");
        assert!(!d.sleep(secs(10)), "already asleep");
        assert_eq!(d.transitions().spin_downs, 1);
    }

    #[test]
    fn request_mid_winddown_rides_it_out() {
        let mut d = disk();
        assert!(d.sleep(secs(10))); // wind-down 10..11.5
        let c = d.submit(SimTime::from_millis(10_500), 0, AccessKind::Sequential);
        // Must wait for wind-down end (11.5 s) + spin-up (2 s).
        assert_eq!(c.start, SimTime::from_millis(13_500));
        assert!(c.spun_up);
        assert_eq!(d.transitions().total(), 2);
    }

    #[test]
    fn long_standby_saves_energy_versus_staying_idle() {
        let horizon = secs(600);
        let mut sleeper = disk();
        sleeper.sleep(secs(0));
        sleeper.finalize(horizon);

        let mut idler = disk();
        idler.finalize(horizon);

        assert!(sleeper.total_joules() < idler.total_joules());
        // Savings roughly (p_idle - p_standby) * t minus transition cost.
        let spec = DiskSpec::ata133_type1();
        let gross = (spec.p_idle_w - spec.p_standby_w) * 600.0;
        let saved = idler.total_joules() - sleeper.total_joules();
        assert!(saved > 0.8 * gross, "saved {saved} of gross {gross}");
    }

    #[test]
    fn short_standby_wastes_energy() {
        // Below break-even: sleeping for 3 s costs more than idling.
        let mut sleeper = disk();
        sleeper.sleep(secs(0));
        let c = sleeper.submit(secs(3), 0, AccessKind::Sequential);
        sleeper.finalize(c.finish);

        let mut idler = disk();
        let c2 = idler.submit(secs(3), 0, AccessKind::Sequential);
        idler.finalize(c2.finish);

        // Compare over the same horizon.
        let horizon = c.finish.max(c2.finish);
        let mut s2 = sleeper.clone();
        s2.finalize(horizon);
        let mut i2 = idler.clone();
        i2.finalize(horizon);
        assert!(
            s2.total_joules() > i2.total_joules(),
            "3 s nap must lose: sleep={} idle={}",
            s2.total_joules(),
            i2.total_joules()
        );
    }

    #[test]
    fn generation_bumps_on_submit_only() {
        let mut d = disk();
        assert_eq!(d.generation(), 0);
        d.submit(secs(0), MB, AccessKind::Random);
        assert_eq!(d.generation(), 1);
        d.sleep(secs(10));
        assert_eq!(d.generation(), 1);
        d.submit(secs(20), MB, AccessKind::Random);
        assert_eq!(d.generation(), 2);
    }

    #[test]
    fn finalize_is_idempotent() {
        let mut d = disk();
        d.submit(secs(0), 58 * MB, AccessKind::Sequential);
        d.finalize(secs(10));
        let e1 = d.total_joules();
        d.finalize(secs(10));
        assert_eq!(d.total_joules(), e1);
    }

    #[test]
    fn is_idle_respects_queue_tail() {
        let mut d = disk();
        d.submit(secs(0), 58 * MB, AccessKind::Sequential);
        assert!(!d.is_idle(SimTime::from_millis(999)));
        assert!(d.is_idle(secs(1)));
    }

    #[test]
    fn spin_cycles_count_spin_downs() {
        let mut d = disk();
        assert_eq!(d.spin_cycles(), 0);
        d.sleep(secs(0));
        d.submit(secs(100), MB, AccessKind::Random);
        d.sleep(secs(200));
        assert_eq!(d.spin_cycles(), 2);
        assert_eq!(d.spin_cycles(), d.transitions().spin_downs);
    }

    #[test]
    fn wake_is_transparent_when_already_spun() {
        let mut d = disk();
        let c = d.submit(secs(5), MB, AccessKind::Random);
        assert!(!c.spun_up);
        assert!(c.waited.is_zero());
    }
}
