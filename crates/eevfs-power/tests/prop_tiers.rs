//! Property-based tests over the cache-tier invariants (proptest).
//!
//! The two load-bearing properties: a tier never holds more bytes than
//! its capacity no matter the op stream, and `Lru` evicts in exact
//! recency order (checked against a brute-force recency-list model).
//! Both tiers are also checked operation by operation against the
//! ordered-map implementations they replaced, kept here as oracles. On
//! top of those, the policy comparison the design leans on: on a
//! Zipf-skewed reuse stream, sampled-LFU's hit rate is at least LRU's.

use std::collections::BTreeMap;

use eevfs_power::{CacheTier, Lru, SampledLfu};
use proptest::prelude::*;
use sim_core::rng::Zipf;
use sim_core::SimRng;

#[derive(Debug, Clone, Copy)]
struct OracleEntry {
    bytes: u64,
    touched: u64,
}

/// The two-`BTreeMap` LRU the slab-and-list [`Lru`] replaced: entries by
/// file, and a recency index keyed by unique touch ticks.
#[derive(Debug, Default)]
struct OracleLru {
    capacity: u64,
    used: u64,
    tick: u64,
    entries: BTreeMap<u32, OracleEntry>,
    order: BTreeMap<(u64, u32), u32>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl OracleLru {
    fn new(capacity: u64) -> Self {
        OracleLru {
            capacity,
            ..OracleLru::default()
        }
    }

    fn touch(&mut self, file: u32) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.entries.get_mut(&file) {
            self.order.remove(&(e.touched, file));
            e.touched = tick;
            self.order.insert((tick, file), file);
        }
    }

    fn evict_coldest(&mut self) {
        if let Some((&key, &file)) = self.order.iter().next() {
            self.order.remove(&key);
            if let Some(e) = self.entries.remove(&file) {
                self.used -= e.bytes;
            }
            self.evictions += 1;
        }
    }

    fn lookup(&mut self, file: u32) -> bool {
        if self.entries.contains_key(&file) {
            self.hits += 1;
            self.touch(file);
            true
        } else {
            self.misses += 1;
            false
        }
    }

    fn admit(&mut self, file: u32, bytes: u64) {
        if bytes > self.capacity {
            return;
        }
        if self.entries.contains_key(&file) {
            self.touch(file);
            return;
        }
        while self.used + bytes > self.capacity {
            self.evict_coldest();
        }
        self.tick += 1;
        let touched = self.tick;
        self.entries.insert(file, OracleEntry { bytes, touched });
        self.order.insert((touched, file), file);
        self.used += bytes;
    }

    fn invalidate(&mut self, file: u32) {
        if let Some(e) = self.entries.remove(&file) {
            self.order.remove(&(e.touched, file));
            self.used -= e.bytes;
        }
    }
}

/// The `BTreeMap` sampled LFU the hashed one replaced: victim samples
/// index into the ordered key list, collected afresh per eviction.
#[derive(Debug)]
struct OracleLfu {
    capacity: u64,
    used: u64,
    tick: u64,
    sample: usize,
    rng: SimRng,
    entries: BTreeMap<u32, OracleEntry>,
    freq: BTreeMap<u32, u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl OracleLfu {
    fn new(capacity: u64, sample: usize, seed: u64) -> Self {
        OracleLfu {
            capacity,
            used: 0,
            tick: 0,
            sample: sample.max(1),
            rng: SimRng::seed_from_u64(seed),
            entries: BTreeMap::new(),
            freq: BTreeMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn bump(&mut self, file: u32) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(e) = self.entries.get_mut(&file) {
            e.touched = tick;
        }
        *self.freq.entry(file).or_insert(0) += 1;
        if self.tick.is_multiple_of(4096) {
            for f in self.freq.values_mut() {
                *f /= 2;
            }
        }
    }

    fn evict_victim(&mut self) {
        if self.entries.is_empty() {
            return;
        }
        let files: Vec<u32> = self.entries.keys().copied().collect();
        let n = files.len().min(self.sample);
        let mut victim: Option<(u64, u64, u32)> = None;
        for _ in 0..n {
            let file = files[self.rng.index(files.len())];
            let f = self.freq.get(&file).copied().unwrap_or(0);
            let key = (f, self.entries[&file].touched, file);
            if victim.is_none_or(|v| key < v) {
                victim = Some(key);
            }
        }
        if let Some((_, _, file)) = victim {
            if let Some(e) = self.entries.remove(&file) {
                self.used -= e.bytes;
            }
            self.freq.remove(&file);
            self.evictions += 1;
        }
    }

    fn lookup(&mut self, file: u32) -> bool {
        let hit = self.entries.contains_key(&file);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        self.bump(file);
        hit
    }

    fn admit(&mut self, file: u32, bytes: u64) {
        if bytes > self.capacity {
            return;
        }
        if self.entries.contains_key(&file) {
            self.bump(file);
            return;
        }
        while self.used + bytes > self.capacity {
            self.evict_victim();
        }
        self.tick += 1;
        let touched = self.tick;
        self.entries.insert(file, OracleEntry { bytes, touched });
        self.used += bytes;
    }

    fn invalidate(&mut self, file: u32) {
        if let Some(e) = self.entries.remove(&file) {
            self.used -= e.bytes;
        }
        self.freq.remove(&file);
    }
}

/// One step of a differential run: every tier operation on its own, so
/// admits of resident files and lookups without an admit occur too.
#[derive(Debug, Clone)]
enum Step {
    Lookup(u32),
    Admit(u32, u64),
    Invalidate(u32),
}

/// Files from a small id space (so entries are re-touched, re-admitted
/// and invalidated while resident) with sizes from 1 byte to twice the
/// largest capacity drawn below, so some admits are refused outright.
fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            (0u32..48).prop_map(Step::Lookup),
            (0u32..48, 1u64..8_000).prop_map(|(f, b)| Step::Admit(f, b)),
            (0u32..48).prop_map(Step::Invalidate),
        ],
        1..400,
    )
}

/// Applies `step` to a tier and its oracle; both must report the same
/// lookup outcome.
macro_rules! apply_both {
    ($tier:expr, $oracle:expr, $step:expr) => {
        match *$step {
            Step::Lookup(f) => {
                prop_assert_eq!($tier.lookup(f), $oracle.lookup(f), "lookup {}", f)
            }
            Step::Admit(f, b) => {
                $tier.admit(f, b);
                $oracle.admit(f, b);
            }
            Step::Invalidate(f) => {
                $tier.invalidate(f);
                $oracle.invalidate(f);
            }
        }
    };
}

/// The tier's counters, and its residency over `files`, against its
/// oracle's.
macro_rules! assert_same_state {
    ($tier:expr, $oracle:expr, $files:expr, $i:expr) => {
        prop_assert_eq!(
            (
                $tier.hits(),
                $tier.misses(),
                $tier.evictions(),
                $tier.used_bytes()
            ),
            (
                $oracle.hits,
                $oracle.misses,
                $oracle.evictions,
                $oracle.used
            ),
            "counters after step {}",
            $i
        );
        for f in $files {
            prop_assert_eq!(
                $tier.contains(f),
                $oracle.entries.contains_key(&f),
                "file {} after step {}",
                f,
                $i
            );
        }
    };
}

/// One step of a tier workload: touch a file of some size, or drop it.
#[derive(Debug, Clone)]
enum Op {
    Touch { file: u32, bytes: u64 },
    Invalidate { file: u32 },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u32..40, 1u64..2000).prop_map(|(file, bytes)| Op::Touch { file, bytes }),
            (0u32..40).prop_map(|file| Op::Invalidate { file }),
        ],
        1..200,
    )
}

/// Drives `tier` through the stream the way the driver does: lookup
/// first, admit on miss.
fn drive(tier: &mut dyn CacheTier, ops: &[Op]) {
    for op in ops {
        match *op {
            Op::Touch { file, bytes } => {
                if !tier.lookup(file) {
                    tier.admit(file, bytes);
                }
            }
            Op::Invalidate { file } => tier.invalidate(file),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Lru` makes exactly the old ordered-map LRU's decisions: same
    /// lookup outcomes, counters, bytes and residents after every step.
    #[test]
    fn lru_matches_the_ordered_map_oracle(steps in arb_steps(), cap in 1u64..4_000) {
        let mut lru = Lru::new(cap);
        let mut oracle = OracleLru::new(cap);
        for (i, step) in steps.iter().enumerate() {
            apply_both!(lru, oracle, step);
            assert_same_state!(lru, oracle, 0u32..48, i);
        }
    }

    /// `SampledLfu` draws the same samples and evicts the same victims as
    /// the old ordered-map LFU, step by step.
    #[test]
    fn sampled_lfu_matches_the_ordered_map_oracle(
        steps in arb_steps(),
        cap in 1u64..4_000,
        sample in 1usize..9,
        seed in 0u64..1_000,
    ) {
        let mut lfu = SampledLfu::new(cap, sample, seed);
        let mut oracle = OracleLfu::new(cap, sample, seed);
        for (i, step) in steps.iter().enumerate() {
            apply_both!(lfu, oracle, step);
            assert_same_state!(lfu, oracle, 0u32..48, i);
        }
    }

    /// Capacity is a hard ceiling for every policy and every op stream.
    #[test]
    fn tiers_never_exceed_capacity(ops in arb_ops(), cap in 1u64..10_000) {
        let mut lru = Lru::new(cap);
        let mut lfu = SampledLfu::new(cap, 5, 7);
        drive(&mut lru, &ops);
        drive(&mut lfu, &ops);
        prop_assert!(lru.used_bytes() <= cap, "lru {} > {cap}", lru.used_bytes());
        prop_assert!(lfu.used_bytes() <= cap, "lfu {} > {cap}", lfu.used_bytes());
    }

    /// LRU retention matches a brute-force recency model: with unit-size
    /// entries and capacity `k`, exactly the `k` most recently touched
    /// distinct files survive, and everything older is gone.
    #[test]
    fn lru_evicts_in_exact_recency_order(
        touches in proptest::collection::vec(0u32..30, 1..150),
        cap in 1u64..12,
    ) {
        let mut lru = Lru::new(cap);
        let mut recency: Vec<u32> = Vec::new(); // most recent last
        for &file in &touches {
            if !lru.lookup(file) {
                lru.admit(file, 1);
            }
            recency.retain(|&f| f != file);
            recency.push(file);
        }
        let survivors: Vec<u32> = recency
            .iter()
            .rev()
            .take(cap as usize)
            .copied()
            .collect();
        for &f in &recency {
            prop_assert_eq!(
                lru.contains(f),
                survivors.contains(&f),
                "file {} (cap {}, survivors {:?})",
                f,
                cap,
                survivors
            );
        }
        prop_assert_eq!(lru.used_bytes(), survivors.len() as u64);
    }

    /// On a Zipf-skewed reuse stream, frequency-aware eviction keeps the
    /// hot set pinned: sampled-LFU's hit rate is at least LRU's.
    #[test]
    fn sampled_lfu_beats_lru_on_zipf(seed in 0u64..16) {
        let mut rng = SimRng::seed_from_u64(seed);
        let zipf = Zipf::new(256, 1.2);
        let mut lru = Lru::new(32);
        let mut lfu = SampledLfu::new(32, 5, seed ^ 0xA5A5);
        for _ in 0..4000 {
            let file = zipf.sample(&mut rng) as u32;
            if !lru.lookup(file) {
                lru.admit(file, 1);
            }
            if !lfu.lookup(file) {
                lfu.admit(file, 1);
            }
        }
        let lru_rate = lru.hits() as f64 / (lru.hits() + lru.misses()) as f64;
        let lfu_rate = lfu.hits() as f64 / (lfu.hits() + lfu.misses()) as f64;
        prop_assert!(
            lfu_rate >= lru_rate,
            "seed {}: sampled-lfu {:.3} < lru {:.3}",
            seed,
            lfu_rate,
            lru_rate
        );
    }
}

/// Long Zipf streams cross several frequency-halving passes (every 4096
/// touches), which the short proptest streams never reach; both tiers
/// still match their oracles after every step.
#[test]
fn tiers_match_their_oracles_across_aging_passes() {
    fn run() -> Result<(), String> {
        let zipf = Zipf::new(512, 0.9);
        for seed in 0..4u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let (mut lru, mut lru_oracle) = (Lru::new(20_000), OracleLru::new(20_000));
            let (mut lfu, mut lfu_oracle) = (
                SampledLfu::new(20_000, 5, seed),
                OracleLfu::new(20_000, 5, seed),
            );
            for i in 0..20_000 {
                let f = zipf.sample(&mut rng) as u32;
                let step = match rng.index(10) {
                    0 => Step::Invalidate(f),
                    1..=4 => Step::Admit(f, 1 + rng.index(3_000) as u64),
                    _ => Step::Lookup(f),
                };
                apply_both!(lru, lru_oracle, &step);
                apply_both!(lfu, lfu_oracle, &step);
                if i % 97 == 0 {
                    assert_same_state!(lru, lru_oracle, 0u32..512, i);
                    assert_same_state!(lfu, lfu_oracle, 0u32..512, i);
                }
            }
            assert_same_state!(lru, lru_oracle, 0u32..512, "end");
            assert_same_state!(lfu, lfu_oracle, 0u32..512, "end");
        }
        Ok(())
    }
    run().unwrap();
}
