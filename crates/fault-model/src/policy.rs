//! Client-side RPC resilience policy: deadlines, bounded retries with
//! deterministic jittered backoff, hedged reads, and circuit breakers.
//!
//! The policy types are time-unit agnostic: durations are `SimDuration`
//! ticks and instants are `SimTime`. The discrete-event driver feeds them
//! simulated time; the threaded runtime feeds them wall-clock-derived
//! ticks. Nothing here reads a wall clock or an unseeded RNG, so a policy
//! evaluated against the same inputs replays bit-identically.

use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimRng, SimTime};

/// Circuit breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long an open breaker rejects traffic before probing.
    pub cooldown: SimDuration,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: SimDuration::from_secs(30),
        }
    }
}

/// Everything the RPC layer needs to decide how hard to try.
///
/// `deadline` bounds one logical request end to end, across every retry
/// and hedge. `per_try_timeout` bounds one flight. Backoff between tries
/// is exponential from `backoff_base`, capped at `backoff_cap`, with
/// multiplicative jitter of ±`jitter` drawn from a stream seeded by
/// (`seed`, request id) — deterministic, but uncorrelated across requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RpcPolicy {
    /// End-to-end budget for one logical request.
    pub deadline: SimDuration,
    /// How long to wait on a single flight before declaring it lost.
    pub per_try_timeout: SimDuration,
    /// Additional tries after the first (0 = fail fast).
    pub max_retries: u32,
    /// First backoff delay; doubles each retry.
    pub backoff_base: SimDuration,
    /// Ceiling on a single backoff delay (pre-jitter).
    pub backoff_cap: SimDuration,
    /// Multiplicative jitter fraction in [0, 1): each delay is scaled by a
    /// factor uniform in [1 - jitter, 1 + jitter].
    pub jitter: f64,
    /// Seed for the jitter streams.
    pub seed: u64,
    /// Hedge a read against a second replica if the first flight has not
    /// answered after this long. `None` disables hedging.
    pub hedge_after: Option<SimDuration>,
    /// Per-node circuit breaker tuning.
    pub breaker: BreakerConfig,
}

impl RpcPolicy {
    /// Fail-fast: one flight, no hedging, generous deadline.
    pub fn no_retry(deadline: SimDuration) -> RpcPolicy {
        RpcPolicy {
            deadline,
            per_try_timeout: deadline,
            max_retries: 0,
            backoff_base: SimDuration::from_millis(200),
            backoff_cap: SimDuration::from_secs(5),
            jitter: 0.2,
            seed: 0,
            hedge_after: None,
            breaker: BreakerConfig::default(),
        }
    }

    /// Retries with backoff, no hedging.
    pub fn retrying(deadline: SimDuration, per_try: SimDuration, retries: u32) -> RpcPolicy {
        RpcPolicy {
            per_try_timeout: per_try,
            max_retries: retries,
            ..RpcPolicy::no_retry(deadline)
        }
    }

    /// Retries plus hedged reads after `hedge_after`.
    pub fn hedged(
        deadline: SimDuration,
        per_try: SimDuration,
        retries: u32,
        hedge_after: SimDuration,
    ) -> RpcPolicy {
        RpcPolicy {
            hedge_after: Some(hedge_after),
            ..RpcPolicy::retrying(deadline, per_try, retries)
        }
    }

    /// The jittered backoff delays for one request, truncated so that the
    /// worst-case total (every flight timing out, plus every backoff wait)
    /// never exceeds `deadline`. `delays.len()` is therefore the number of
    /// *usable* retries for this request, `<= max_retries`.
    pub fn backoff_schedule(&self, request_id: u64) -> BackoffSchedule {
        BackoffSchedule {
            delays: self.jitter_walk(request_id).collect(),
        }
    }

    /// The delay before retry number `tries` (0-based) of one request, or
    /// `None` once its usable retries are spent: exactly
    /// `backoff_schedule(request_id).delay(tries)`, without building the
    /// schedule. The walk stops at `tries`, and nothing is computed until a
    /// request first fails.
    pub fn backoff_delay(&self, request_id: u64, tries: usize) -> Option<SimDuration> {
        self.jitter_walk(request_id).nth(tries)
    }

    /// The one jitter walk behind both views: the request's delays in
    /// order, drawn lazily from a stream seeded by (`seed`, request id).
    fn jitter_walk(&self, request_id: u64) -> impl Iterator<Item = SimDuration> + '_ {
        let mut rng = SimRng::seed_from_u64(
            self.seed ^ request_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xBAC0_FF5E,
        );
        let jitter = self.jitter.clamp(0.0, 0.999);
        // Worst case, the first flight burns one full per-try timeout.
        let mut spent = self.per_try_timeout;
        let mut nominal = self.backoff_base;
        (0..self.max_retries).map_while(move |_| {
            let factor = 1.0 - jitter + 2.0 * jitter * rng.uniform();
            let delay =
                SimDuration::from_micros((nominal.as_micros() as f64 * factor).round() as u64);
            if spent + delay + self.per_try_timeout > self.deadline {
                return None;
            }
            spent = spent + delay + self.per_try_timeout;
            nominal = SimDuration::from_micros(
                (nominal.as_micros().saturating_mul(2)).min(self.backoff_cap.as_micros()),
            );
            Some(delay)
        })
    }
}

/// The concrete delays between tries for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackoffSchedule {
    delays: Vec<SimDuration>,
}

impl BackoffSchedule {
    /// Delay to wait before retry number `retry` (0-based). `None` once
    /// the retry budget (or the deadline) is exhausted.
    pub fn delay(&self, retry: usize) -> Option<SimDuration> {
        self.delays.get(retry).copied()
    }

    /// Usable retries under the deadline.
    pub fn len(&self) -> usize {
        self.delays.len()
    }

    pub fn is_empty(&self) -> bool {
        self.delays.is_empty()
    }

    /// Sum of all backoff delays.
    pub fn total(&self) -> SimDuration {
        self.delays
            .iter()
            .fold(SimDuration::ZERO, |acc, &d| acc + d)
    }
}

/// Breaker states, the classic three.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Healthy: all traffic flows, failures are counted.
    Closed,
    /// Tripped: traffic is rejected until the cooldown elapses.
    Open,
    /// Probing: one request is let through to test the node.
    HalfOpen,
}

/// Per-node circuit breaker.
///
/// ```text
///             failure_threshold
///   CLOSED ──────────────────────▶ OPEN
///     ▲  ▲                          │ cooldown elapsed
///     │  │ probe                    ▼
///     │  └──────────────────── HALF-OPEN
///     │        succeeds             │ probe fails
///     └─────────────────────────────┘ (back to OPEN)
/// ```
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: SimTime,
    trips: u64,
    recoveries: u64,
}

impl CircuitBreaker {
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: SimTime::ZERO,
            trips: 0,
            recoveries: 0,
        }
    }

    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Times a half-open probe closed the breaker again.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Whether a request may be sent now. An open breaker whose cooldown
    /// has elapsed transitions to half-open. A half-open breaker admits
    /// every request, not a single probe, until the first outcome: a
    /// success closes it, a failure re-trips it.
    pub fn allows(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now >= self.opened_at + self.cfg.cooldown {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record a successful response from the node.
    pub fn on_success(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.recoveries += 1;
        }
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// Record a failed flight (timeout, drop, reset, transport error).
    pub fn on_failure(&mut self, now: SimTime) {
        match self.state {
            BreakerState::HalfOpen => self.trip(now),
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.cfg.failure_threshold {
                    self.trip(now);
                }
            }
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now: SimTime) {
        self.state = BreakerState::Open;
        self.opened_at = now;
        self.consecutive_failures = 0;
        self.trips += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> RpcPolicy {
        RpcPolicy::retrying(SimDuration::from_secs(30), SimDuration::from_secs(2), 5)
    }

    #[test]
    fn schedule_is_deterministic_per_request() {
        let p = policy();
        assert_eq!(p.backoff_schedule(7), p.backoff_schedule(7));
        assert_ne!(p.backoff_schedule(7), p.backoff_schedule(8));
    }

    #[test]
    fn schedule_respects_deadline() {
        let p = RpcPolicy::retrying(SimDuration::from_secs(5), SimDuration::from_secs(2), 10);
        let s = p.backoff_schedule(0);
        let worst = p.per_try_timeout.saturating_mul(s.len() as u64 + 1) + s.total();
        assert!(
            worst <= p.deadline,
            "worst case {worst:?} > {:?}",
            p.deadline
        );
        assert!(s.len() < 10, "deadline must truncate the retry budget");
    }

    #[test]
    fn zero_retries_means_empty_schedule() {
        let s = RpcPolicy::no_retry(SimDuration::from_secs(10)).backoff_schedule(1);
        assert!(s.is_empty());
        assert_eq!(s.delay(0), None);
    }

    #[test]
    fn breaker_trips_probes_and_recovers() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown: SimDuration::from_secs(10),
        });
        let t0 = SimTime::from_secs(0);
        assert!(b.allows(t0));
        b.on_failure(t0);
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure(t0);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        assert!(!b.allows(SimTime::from_secs(5)));
        // Cooldown elapsed: half-open, the probe is admitted.
        assert!(b.allows(SimTime::from_secs(10)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Failed probe reopens immediately.
        b.on_failure(SimTime::from_secs(10));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
        // Next probe succeeds and closes.
        assert!(b.allows(SimTime::from_secs(20)));
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.recoveries(), 1);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_policy() -> impl Strategy<Value = RpcPolicy> {
            (
                1u64..120,    // deadline s
                50u64..5_000, // per-try ms
                0u32..12,     // retries
                10u64..2_000, // backoff base ms
                0.0f64..0.95, // jitter
                any::<u64>(), // seed
            )
                .prop_map(|(dl, pt, retries, base, jitter, seed)| RpcPolicy {
                    deadline: SimDuration::from_secs(dl),
                    per_try_timeout: SimDuration::from_millis(pt),
                    max_retries: retries,
                    backoff_base: SimDuration::from_millis(base),
                    backoff_cap: SimDuration::from_secs(10),
                    jitter,
                    seed,
                    hedge_after: None,
                    breaker: BreakerConfig::default(),
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Worst-case retry time (every flight times out, plus every
            /// backoff wait) never exceeds the deadline.
            #[test]
            fn total_retry_time_never_exceeds_deadline(
                p in arb_policy(), req in any::<u64>()
            ) {
                let s = p.backoff_schedule(req);
                let worst =
                    p.per_try_timeout.saturating_mul(s.len() as u64 + 1) + s.total();
                prop_assert!(worst <= p.deadline.max(p.per_try_timeout));
                prop_assert!(s.len() <= p.max_retries as usize);
            }

            /// Every jittered delay stays within ±jitter of its nominal
            /// exponential value.
            #[test]
            fn jitter_stays_within_bounds(p in arb_policy(), req in any::<u64>()) {
                let s = p.backoff_schedule(req);
                let mut nominal = p.backoff_base;
                for i in 0..s.len() {
                    let d = s.delay(i).unwrap().as_micros() as f64;
                    let n = nominal.as_micros() as f64;
                    prop_assert!(d >= (n * (1.0 - p.jitter)).floor());
                    prop_assert!(d <= (n * (1.0 + p.jitter)).ceil());
                    nominal = SimDuration::from_micros(
                        nominal.as_micros().saturating_mul(2).min(p.backoff_cap.as_micros()),
                    );
                }
            }

            /// The lazy single delay is the schedule's, for every retry
            /// number, including those past the usable retries.
            #[test]
            fn backoff_delay_equals_the_schedule(p in arb_policy(), req in any::<u64>()) {
                let s = p.backoff_schedule(req);
                for tries in 0..=p.max_retries as usize + 1 {
                    prop_assert_eq!(p.backoff_delay(req, tries), s.delay(tries));
                }
            }

            /// Identical seeds yield identical schedules; the stream is a
            /// pure function of (policy seed, request id).
            #[test]
            fn identical_seeds_identical_schedules(
                p in arb_policy(), req in any::<u64>()
            ) {
                prop_assert_eq!(p.backoff_schedule(req), p.clone().backoff_schedule(req));
                let reseeded = RpcPolicy { seed: p.seed ^ 1, ..p.clone() };
                // A different seed is allowed to differ (and with jitter > 0
                // and at least one delay it usually does); it must still obey
                // the same deadline bound.
                let s = reseeded.backoff_schedule(req);
                let worst =
                    p.per_try_timeout.saturating_mul(s.len() as u64 + 1) + s.total();
                prop_assert!(worst <= p.deadline.max(p.per_try_timeout));
            }
        }
    }

    #[test]
    fn success_resets_failure_count() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown: SimDuration::from_secs(10),
        });
        b.on_failure(SimTime::ZERO);
        b.on_success();
        b.on_failure(SimTime::ZERO);
        assert_eq!(
            b.state(),
            BreakerState::Closed,
            "count must reset on success"
        );
    }
}
