//! Deterministic network fault plans and per-link fault injection.
//!
//! Disk plans in the crate root model *component* failure; this module
//! models *delivery* failure on the server↔node links: dropped requests,
//! latency spikes, connection resets, and whole-link partitions with
//! scheduled heal times. Everything is a pure function of a seed:
//!
//! - [`NetFaultPlan`] is a time-ordered schedule of partition/heal events,
//!   generated from a [`NetFaultSpec`] exactly like [`crate::FaultPlan`]
//!   is generated from a `FaultSpec`;
//! - [`LinkFaultProfile`] holds per-message fault probabilities;
//! - [`NetFaultInjector`] replays the plan with a cursor and draws one
//!   per-link decision stream for the probabilistic faults, so the same
//!   (profile, plan, seed) triple yields bit-identical decision sequences
//!   regardless of how other links are exercised.
//!
//! The cluster topology is a star (server in the middle, one link per
//! storage node), so a "node-pair partition" is identified by the node
//! index of the server↔node link it severs.

use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimRng, SimTime};

/// One scheduled network fault (or the heal that clears it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NetFaultKind {
    /// The server↔node link drops every message until healed.
    LinkDown { link: u32 },
    /// The link returns to service.
    LinkUp { link: u32 },
}

impl NetFaultKind {
    /// The link this fault lands on.
    pub fn link(&self) -> u32 {
        match *self {
            NetFaultKind::LinkDown { link } | NetFaultKind::LinkUp { link } => link,
        }
    }
}

/// A network fault at an instant of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetFaultEvent {
    pub at: SimTime,
    pub kind: NetFaultKind,
}

/// Parameters for seeded partition schedules. Rates are per *hour of
/// simulated time*, matching `FaultSpec`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetFaultSpec {
    /// Schedule RNG seed; same seed, same plan.
    pub seed: u64,
    /// Horizon the schedule covers.
    pub horizon: SimDuration,
    /// Number of server↔node links (one per storage node).
    pub links: u32,
    /// Mean partitions per link-hour (Poisson process).
    pub partition_per_hour: f64,
    /// Mean time from a partition to its scheduled heal.
    pub mean_partition: SimDuration,
}

impl NetFaultSpec {
    /// A quiet baseline: no partitions at all.
    pub fn none(links: u32, horizon: SimDuration) -> NetFaultSpec {
        NetFaultSpec {
            seed: 0,
            horizon,
            links,
            partition_per_hour: 0.0,
            mean_partition: SimDuration::from_secs(60),
        }
    }
}

/// A validated, time-ordered partition/heal schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct NetFaultPlan {
    events: Vec<NetFaultEvent>,
}

impl NetFaultPlan {
    /// The empty plan (perfect network).
    pub fn none() -> NetFaultPlan {
        NetFaultPlan::default()
    }

    /// Builds a plan from explicit events, sorted by time (stable).
    pub fn from_trace(events: impl IntoIterator<Item = NetFaultEvent>) -> NetFaultPlan {
        let mut events: Vec<NetFaultEvent> = events.into_iter().collect();
        events.sort_by_key(|e| e.at);
        NetFaultPlan { events }
    }

    /// Convenience: one partition window on `link`, healed at `heal`.
    pub fn partition_window(link: u32, down: SimTime, heal: SimTime) -> NetFaultPlan {
        NetFaultPlan::from_trace([
            NetFaultEvent {
                at: down,
                kind: NetFaultKind::LinkDown { link },
            },
            NetFaultEvent {
                at: heal,
                kind: NetFaultKind::LinkUp { link },
            },
        ])
    }

    /// Draws a random partition schedule from `spec`. Each link gets an
    /// independent RNG stream split off the seed, so adding links does not
    /// perturb existing links' windows.
    pub fn generate(spec: &NetFaultSpec) -> NetFaultPlan {
        let mut root = SimRng::seed_from_u64(spec.seed ^ 0x0004_2E7F_A017_5EED_u64);
        let mut events = Vec::new();
        let horizon_s = spec.horizon.as_secs_f64();
        for link in 0..spec.links {
            let mut link_rng = root.split();
            if spec.partition_per_hour > 0.0 {
                let mut t = 0.0f64;
                loop {
                    t += link_rng.exponential(3600.0 / spec.partition_per_hour);
                    if t >= horizon_s {
                        break;
                    }
                    events.push(NetFaultEvent {
                        at: SimTime::from_micros((t * 1e6) as u64),
                        kind: NetFaultKind::LinkDown { link },
                    });
                    t += link_rng.exponential(spec.mean_partition.as_secs_f64().max(1e-6));
                    if t >= horizon_s {
                        break;
                    }
                    events.push(NetFaultEvent {
                        at: SimTime::from_micros((t * 1e6) as u64),
                        kind: NetFaultKind::LinkUp { link },
                    });
                }
            }
        }
        NetFaultPlan::from_trace(events)
    }

    /// The schedule, ascending by time.
    pub fn events(&self) -> &[NetFaultEvent] {
        &self.events
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Events targeting links outside the given cluster shape.
    pub fn out_of_range(&self, links: u32) -> Vec<NetFaultEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| e.kind.link() >= links)
            .collect()
    }
}

/// Per-message fault probabilities for one profile of link badness.
///
/// Probabilities are evaluated in order drop → reset → delay from a single
/// uniform draw per message, so the decision stream for a link is stable
/// under changes to an *individual* probability only when earlier
/// thresholds stay fixed — same contract as a layered ablation grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkFaultProfile {
    /// Seed for the per-link decision streams.
    pub seed: u64,
    /// Probability a message is silently dropped.
    pub drop_prob: f64,
    /// Probability the connection resets (immediate error to the sender).
    pub reset_prob: f64,
    /// Probability the message is delayed by an exponential latency spike.
    pub delay_prob: f64,
    /// Mean of the exponential latency spike.
    pub mean_delay: SimDuration,
}

impl LinkFaultProfile {
    /// A perfect network: every message delivered immediately.
    pub fn none() -> LinkFaultProfile {
        LinkFaultProfile {
            seed: 0,
            drop_prob: 0.0,
            reset_prob: 0.0,
            delay_prob: 0.0,
            mean_delay: SimDuration::from_millis(500),
        }
    }

    /// A lossy profile dominated by drops, for ablation grids.
    pub fn lossy(seed: u64, drop_prob: f64) -> LinkFaultProfile {
        LinkFaultProfile {
            seed,
            drop_prob,
            reset_prob: drop_prob / 4.0,
            delay_prob: drop_prob / 2.0,
            mean_delay: SimDuration::from_secs(4),
        }
    }
}

/// What happens to one message on one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDecision {
    /// Delivered normally.
    Deliver,
    /// Delivered after an injected latency spike.
    Delay(SimDuration),
    /// Silently dropped; the sender only learns via timeout.
    Drop,
    /// Connection reset; the sender sees an immediate error.
    Reset,
}

/// Replays a [`NetFaultPlan`] and draws per-message link decisions.
///
/// Partitioned links drop every message *without* consuming the link's
/// decision stream, so the probabilistic schedule on other links (and on
/// this link after heal) is unaffected by partition timing.
#[derive(Debug, Clone)]
pub struct NetFaultInjector {
    profile: LinkFaultProfile,
    plan: NetFaultPlan,
    cursor: usize,
    link_up: Vec<bool>,
    link_rngs: Vec<SimRng>,
}

impl NetFaultInjector {
    pub fn new(profile: LinkFaultProfile, plan: NetFaultPlan, links: usize) -> NetFaultInjector {
        let mut root = SimRng::seed_from_u64(profile.seed ^ 0x0001_14E7_FA17_5EED);
        let link_rngs = (0..links).map(|_| root.split()).collect();
        NetFaultInjector {
            profile,
            plan,
            cursor: 0,
            link_up: vec![true; links],
            link_rngs,
        }
    }

    /// Applies every scheduled event with `at <= now`, returning how many
    /// it applied.
    pub fn apply_until(&mut self, now: SimTime) -> usize {
        let mut fired = 0;
        while let Some(&ev) = self.plan.events.get(self.cursor) {
            if ev.at > now {
                break;
            }
            self.cursor += 1;
            match ev.kind {
                NetFaultKind::LinkDown { link } => self.set_link(link as usize, false),
                NetFaultKind::LinkUp { link } => self.set_link(link as usize, true),
            }
            fired += 1;
        }
        fired
    }

    /// Every scheduled event instant, ascending — what a driver needs to
    /// arm wake-ups without keeping a second copy of the plan.
    pub fn event_times(&self) -> impl Iterator<Item = SimTime> + '_ {
        self.plan.events.iter().map(|e| e.at)
    }

    /// Manually partition or heal a link (admin path, e2e tests).
    pub fn set_link(&mut self, link: usize, up: bool) {
        if let Some(slot) = self.link_up.get_mut(link) {
            *slot = up;
        }
    }

    pub fn link_ok(&self, link: usize) -> bool {
        self.link_up.get(link).copied().unwrap_or(false)
    }

    /// Decides the fate of the next message on `link`, consuming the
    /// link's decision stream (except while partitioned).
    pub fn decide(&mut self, link: usize) -> LinkDecision {
        if !self.link_ok(link) {
            return LinkDecision::Drop;
        }
        let Some(rng) = self.link_rngs.get_mut(link) else {
            return LinkDecision::Deliver;
        };
        let p = &self.profile;
        if p.drop_prob <= 0.0 && p.reset_prob <= 0.0 && p.delay_prob <= 0.0 {
            return LinkDecision::Deliver;
        }
        let u = rng.uniform();
        if u < p.drop_prob {
            LinkDecision::Drop
        } else if u < p.drop_prob + p.reset_prob {
            LinkDecision::Reset
        } else if u < p.drop_prob + p.reset_prob + p.delay_prob {
            let spike = rng.exponential(p.mean_delay.as_secs_f64().max(1e-6));
            LinkDecision::Delay(SimDuration::from_micros((spike * 1e6) as u64))
        } else {
            LinkDecision::Deliver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> NetFaultSpec {
        NetFaultSpec {
            seed: 7,
            horizon: SimDuration::from_secs(3600),
            links: 4,
            partition_per_hour: 4.0,
            mean_partition: SimDuration::from_secs(90),
        }
    }

    #[test]
    fn generate_is_deterministic() {
        let a = NetFaultPlan::generate(&spec());
        let b = NetFaultPlan::generate(&spec());
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let a = NetFaultPlan::generate(&spec());
        let b = NetFaultPlan::generate(&NetFaultSpec { seed: 8, ..spec() });
        assert_ne!(a, b);
    }

    #[test]
    fn events_sorted_and_in_range() {
        let plan = NetFaultPlan::generate(&spec());
        for w in plan.events().windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        assert!(plan.out_of_range(4).is_empty());
        assert!(!plan.out_of_range(1).is_empty());
    }

    #[test]
    fn adding_links_keeps_existing_links_stable() {
        let narrow = NetFaultPlan::generate(&spec());
        let wide = NetFaultPlan::generate(&NetFaultSpec { links: 8, ..spec() });
        let on_first_four = |p: &NetFaultPlan| {
            p.events()
                .iter()
                .copied()
                .filter(|e| e.kind.link() < 4)
                .collect::<Vec<_>>()
        };
        assert_eq!(on_first_four(&narrow), on_first_four(&wide));
    }

    #[test]
    fn injector_replays_partition_window() {
        let plan =
            NetFaultPlan::partition_window(1, SimTime::from_secs(10), SimTime::from_secs(20));
        let mut inj = NetFaultInjector::new(LinkFaultProfile::none(), plan, 2);
        assert!(inj.link_ok(1));
        assert_eq!(inj.apply_until(SimTime::from_secs(10)), 1);
        assert!(!inj.link_ok(1));
        assert_eq!(inj.decide(1), LinkDecision::Drop);
        assert_eq!(inj.decide(0), LinkDecision::Deliver);
        assert_eq!(inj.plan.events[inj.cursor].at, SimTime::from_secs(20));
        inj.apply_until(SimTime::from_secs(25));
        assert!(inj.link_ok(1));
        assert_eq!(inj.decide(1), LinkDecision::Deliver);
    }

    #[test]
    fn decision_streams_are_deterministic_and_per_link() {
        let profile = LinkFaultProfile::lossy(3, 0.3);
        let draws = |inj: &mut NetFaultInjector, link: usize| {
            (0..64).map(|_| inj.decide(link)).collect::<Vec<_>>()
        };
        let mut a = NetFaultInjector::new(profile.clone(), NetFaultPlan::none(), 2);
        let mut b = NetFaultInjector::new(profile.clone(), NetFaultPlan::none(), 2);
        // Interleave link 0 draws in b with link 1 traffic: link 0's stream
        // must not move.
        let seq_a = draws(&mut a, 0);
        let mut seq_b = Vec::new();
        for _ in 0..64 {
            let _ = b.decide(1);
            seq_b.push(b.decide(0));
        }
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.contains(&LinkDecision::Drop));
        assert!(seq_a.contains(&LinkDecision::Deliver));
    }

    #[test]
    fn partition_does_not_consume_decision_stream() {
        let profile = LinkFaultProfile::lossy(9, 0.25);
        let mut a = NetFaultInjector::new(profile.clone(), NetFaultPlan::none(), 1);
        let mut b = NetFaultInjector::new(profile, NetFaultPlan::none(), 1);
        b.set_link(0, false);
        for _ in 0..32 {
            assert_eq!(b.decide(0), LinkDecision::Drop);
        }
        b.set_link(0, true);
        for _ in 0..32 {
            assert_eq!(a.decide(0), b.decide(0));
        }
    }

    #[test]
    fn zero_rate_plan_is_empty() {
        assert!(
            NetFaultPlan::generate(&NetFaultSpec::none(8, SimDuration::from_secs(3600))).is_empty()
        );
    }
}
