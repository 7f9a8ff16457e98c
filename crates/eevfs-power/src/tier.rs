//! Capacity-bounded cache tiers above the buffer disk.
//!
//! Tiers cache whole files by id (the simulator's unit of access, as in
//! the buffer-disk catalog). Two eviction policies ship: recency-based
//! [`Lru`] and the frequency-aware [`SampledLfu`], which approximates
//! perfect LFU by evicting the least-frequently-used entry of a small
//! deterministic sample — the TinyLFU-style trick that keeps metadata
//! O(resident set) while resisting scan pollution.
//!
//! Every tier operation sits on the simulator's read path, so each is
//! constant-time (up to `SampledLfu`'s sorted resident list, one
//! `memmove` per admit and eviction). Files are found through
//! [`IntMap`]s, hashed indexes whose iteration order no decision reads,
//! so eviction order is still a pure function of the operation stream:
//! `Lru` evicts the head of an intrusive recency list (the entry
//! touched least recently, since every touch moves its entry to the
//! tail), and `SampledLfu` draws its victim sample by index from a
//! resident list kept sorted by file id and breaks ties on the unique
//! (frequency, last touch, file) key.

use serde::{Deserialize, Serialize};
use sim_core::{IntMap, SimDuration, SimRng};

/// A capacity-bounded file cache with pluggable admission/eviction.
///
/// The driver consults the tier on every read (`lookup`), fills it on
/// misses that reached a lower tier (`admit`), and drops entries that a
/// write made stale (`invalidate`). Implementations count their own hits,
/// misses, and evictions. Like predictors, tiers are `Send`.
pub trait CacheTier: std::fmt::Debug + Send {
    /// Short policy name for reports.
    fn name(&self) -> &'static str;
    /// Looks up `file`, counting a hit or miss and refreshing the entry's
    /// recency/frequency bookkeeping on a hit.
    fn lookup(&mut self, file: u32) -> bool;
    /// Inserts `file` at `bytes`, evicting until it fits. Files larger
    /// than the whole tier are refused (no-op). Re-admitting a resident
    /// file refreshes it.
    fn admit(&mut self, file: u32, bytes: u64);
    /// Drops `file` if resident (not counted as an eviction).
    fn invalidate(&mut self, file: u32);
    /// Whether `file` is resident (no bookkeeping side effects).
    fn contains(&self, file: u32) -> bool;
    /// Bytes currently resident.
    fn used_bytes(&self) -> u64;
    /// Tier capacity in bytes.
    fn capacity_bytes(&self) -> u64;
    /// Lookups that hit.
    fn hits(&self) -> u64;
    /// Lookups that missed.
    fn misses(&self) -> u64;
    /// Entries evicted to make room (invalidations excluded).
    fn evictions(&self) -> u64;
}

/// End-of-list marker for [`Lru`]'s slot links.
const NIL: u32 = u32::MAX;

/// One [`Lru`] slab slot: a resident entry and its recency-list links,
/// or, while free, a link in the free list (through `next`).
#[derive(Debug, Clone, Copy)]
struct Slot {
    file: u32,
    bytes: u64,
    /// Next-colder entry, or [`NIL`] at the head.
    prev: u32,
    /// Next-hotter entry, or [`NIL`] at the tail.
    next: u32,
}

/// Least-recently-used eviction over a deterministic recency order.
///
/// Entries live in a slab of slots linked into a doubly-linked recency
/// list, coldest at the head; a hashed index maps each file to its slot.
/// A touch moves the entry to the tail, an eviction pops the head, and
/// freed slots are reused, so no operation allocates once the slab has
/// grown to the largest resident set.
#[derive(Debug, Clone)]
pub struct Lru {
    capacity: u64,
    used: u64,
    slots: Vec<Slot>,
    /// File → slot of every resident entry.
    index: IntMap<u32, u32>,
    /// Coldest entry.
    head: u32,
    /// Hottest entry.
    tail: u32,
    /// First free slot, chained through `Slot::next`.
    free: u32,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Lru {
    /// An empty LRU tier with the given byte capacity.
    pub fn new(capacity: u64) -> Self {
        Lru {
            capacity,
            used: 0,
            slots: Vec::new(),
            index: IntMap::default(),
            head: NIL,
            tail: NIL,
            free: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn unlink(&mut self, s: u32) {
        let Slot { prev, next, .. } = self.slots[s as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_hottest(&mut self, s: u32) {
        let slot = &mut self.slots[s as usize];
        slot.prev = self.tail;
        slot.next = NIL;
        match self.tail {
            NIL => self.head = s,
            t => self.slots[t as usize].next = s,
        }
        self.tail = s;
    }

    /// Makes the entry in slot `s` the most recently used.
    fn touch(&mut self, s: u32) {
        if s != self.tail {
            self.unlink(s);
            self.push_hottest(s);
        }
    }

    /// Unlinks slot `s`, returns it to the free list and releases its
    /// bytes. The caller has already dropped it from `index`.
    fn release(&mut self, s: u32) {
        self.unlink(s);
        let slot = &mut self.slots[s as usize];
        self.used -= slot.bytes;
        slot.next = self.free;
        self.free = s;
    }

    fn evict_coldest(&mut self) {
        let s = self.head;
        if s != NIL {
            self.index.remove(&self.slots[s as usize].file);
            self.release(s);
            self.evictions += 1;
        }
    }
}

impl CacheTier for Lru {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn lookup(&mut self, file: u32) -> bool {
        if let Some(&s) = self.index.get(&file) {
            self.hits += 1;
            self.touch(s);
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
        if let Some(&s) = self.index.get(&file) {
            self.touch(s);
            return;
        }
        while self.used + bytes > self.capacity {
            self.evict_coldest();
        }
        let slot = Slot {
            file,
            bytes,
            prev: NIL,
            next: NIL,
        };
        let s = match self.free {
            NIL => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
            s => {
                self.free = self.slots[s as usize].next;
                self.slots[s as usize] = slot;
                s
            }
        };
        self.push_hottest(s);
        self.index.insert(file, s);
        self.used += bytes;
    }

    fn invalidate(&mut self, file: u32) {
        if let Some(s) = self.index.remove(&file) {
            self.release(s);
        }
    }

    fn contains(&self, file: u32) -> bool {
        self.index.contains_key(&file)
    }

    fn used_bytes(&self) -> u64 {
        self.used
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn hits(&self) -> u64 {
        self.hits
    }

    fn misses(&self) -> u64 {
        self.misses
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    bytes: u64,
    /// Logical timestamp of the last touch (admit or hit).
    touched: u64,
}

/// Sampled least-frequently-used eviction with periodic aging.
///
/// Each victim search draws a deterministic sample of resident entries
/// and evicts the one with the lowest (frequency, last touch) — hot
/// entries survive scans that would flush an LRU. Frequency counters
/// halve every `AGE_PERIOD` touches so the tier adapts when popularity
/// shifts.
#[derive(Debug, Clone)]
pub struct SampledLfu {
    capacity: u64,
    used: u64,
    tick: u64,
    sample: usize,
    rng: SimRng,
    entries: IntMap<u32, Entry>,
    /// Resident files in ascending id order: the list victim samples
    /// index into.
    resident: Vec<u32>,
    /// Access-frequency estimate per file looked up or resident.
    freq: IntMap<u32, u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Touches between frequency-halving passes.
const AGE_PERIOD: u64 = 4096;

impl SampledLfu {
    /// An empty sampled-LFU tier with the given byte capacity, victim
    /// sample size, and RNG seed.
    pub fn new(capacity: u64, sample: usize, seed: u64) -> Self {
        SampledLfu {
            capacity,
            used: 0,
            tick: 0,
            sample: sample.max(1),
            rng: SimRng::seed_from_u64(seed),
            entries: IntMap::default(),
            resident: Vec::new(),
            freq: IntMap::default(),
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
        if self.tick.is_multiple_of(AGE_PERIOD) {
            for f in self.freq.values_mut() {
                *f /= 2;
            }
        }
    }

    /// Drops resident `file`'s entry, frequency and resident-list slot.
    fn remove(&mut self, file: u32) {
        if let Some(e) = self.entries.remove(&file) {
            self.used -= e.bytes;
            if let Ok(i) = self.resident.binary_search(&file) {
                self.resident.remove(i);
            }
        }
        self.freq.remove(&file);
    }

    fn evict_victim(&mut self) {
        let files = &self.resident;
        if files.is_empty() {
            return;
        }
        let n = files.len().min(self.sample);
        // Deterministic sample: n independent index draws (duplicates
        // only shrink the effective sample, never bias the victim).
        let mut victim: Option<(u64, u64, u32)> = None;
        for _ in 0..n {
            let file = files[self.rng.index(files.len())];
            let f = self.freq.get(&file).copied().unwrap_or(0);
            let touched = self.entries[&file].touched;
            let key = (f, touched, file);
            if victim.is_none_or(|v| key < v) {
                victim = Some(key);
            }
        }
        if let Some((_, _, file)) = victim {
            self.remove(file);
            self.evictions += 1;
        }
    }
}

impl CacheTier for SampledLfu {
    fn name(&self) -> &'static str {
        "slfu"
    }

    fn lookup(&mut self, file: u32) -> bool {
        if self.entries.contains_key(&file) {
            self.hits += 1;
            self.bump(file);
            true
        } else {
            self.misses += 1;
            // Track frequency of misses too: a file seen often but not
            // yet resident deserves to win admission over cold residents.
            self.bump(file);
            false
        }
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
        self.entries.insert(
            file,
            Entry {
                bytes,
                touched: self.tick,
            },
        );
        if let Err(i) = self.resident.binary_search(&file) {
            self.resident.insert(i, file);
        }
        self.used += bytes;
    }

    fn invalidate(&mut self, file: u32) {
        self.remove(file);
    }

    fn contains(&self, file: u32) -> bool {
        self.entries.contains_key(&file)
    }

    fn used_bytes(&self) -> u64 {
        self.used
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn hits(&self) -> u64 {
        self.hits
    }

    fn misses(&self) -> u64 {
        self.misses
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }
}

/// Serializable eviction-policy choice for a tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvictionPolicy {
    /// Least-recently-used.
    Lru,
    /// Sampled least-frequently-used with the given victim sample size.
    SampledLfu {
        /// Resident entries examined per victim search.
        sample: usize,
    },
}

impl EvictionPolicy {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            EvictionPolicy::Lru => "lru",
            EvictionPolicy::SampledLfu { .. } => "slfu",
        }
    }

    /// Builds a tier with this policy at the given capacity; `seed` feeds
    /// the LFU sampler (LRU ignores it).
    pub fn build(&self, capacity: u64, seed: u64) -> Box<dyn CacheTier> {
        match *self {
            EvictionPolicy::Lru => Box::new(Lru::new(capacity)),
            EvictionPolicy::SampledLfu { sample } => {
                Box::new(SampledLfu::new(capacity, sample, seed))
            }
        }
    }
}

/// Tier sizing and eviction configuration for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierConfig {
    /// Per-node DRAM cache capacity in bytes (0 disables the tier).
    pub dram_bytes: u64,
    /// Per-node SSD buffer capacity in bytes (0 disables the tier).
    pub ssd_bytes: u64,
    /// Eviction policy shared by both tiers.
    pub policy: EvictionPolicy,
}

impl TierConfig {
    /// No cache tiers: the paper's baseline buffer-disk-only data path.
    pub fn none() -> Self {
        TierConfig {
            dram_bytes: 0,
            ssd_bytes: 0,
            policy: EvictionPolicy::Lru,
        }
    }

    /// Short label for reports, e.g. `dram64m+ssd4g/lru`.
    pub fn label(&self) -> String {
        fn size(b: u64) -> String {
            if b == 0 {
                return "0".into();
            }
            if b.is_multiple_of(1 << 30) {
                return format!("{}g", b >> 30);
            }
            if b.is_multiple_of(1 << 20) {
                return format!("{}m", b >> 20);
            }
            format!("{b}b")
        }
        if self.dram_bytes == 0 && self.ssd_bytes == 0 {
            return "none".into();
        }
        let mut parts = Vec::new();
        if self.dram_bytes > 0 {
            parts.push(format!("dram{}", size(self.dram_bytes)));
        }
        if self.ssd_bytes > 0 {
            parts.push(format!("ssd{}", size(self.ssd_bytes)));
        }
        format!("{}/{}", parts.join("+"), self.policy.label())
    }
}

/// Service time for a DRAM-tier hit: a fixed lookup overhead plus copy
/// time at memory bandwidth (~3.2 GB/s), rounded up to a microsecond.
pub fn dram_service_time(bytes: u64) -> SimDuration {
    const LOOKUP_US: u64 = 100;
    const BYTES_PER_US: u64 = 3200;
    SimDuration::from_micros(LOOKUP_US + bytes.div_ceil(BYTES_PER_US))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_in_recency_order() {
        let mut lru = Lru::new(300);
        lru.admit(1, 100);
        lru.admit(2, 100);
        lru.admit(3, 100);
        assert!(lru.lookup(1)); // 1 is now hottest; 2 coldest
        lru.admit(4, 100);
        assert!(!lru.contains(2), "coldest entry should go first");
        assert!(lru.contains(1) && lru.contains(3) && lru.contains(4));
        assert_eq!(lru.evictions(), 1);
        assert_eq!(lru.used_bytes(), 300);
    }

    #[test]
    fn lru_refuses_oversized_and_respects_capacity() {
        let mut lru = Lru::new(100);
        lru.admit(1, 500);
        assert!(!lru.contains(1));
        lru.admit(2, 60);
        lru.admit(3, 60);
        assert!(lru.used_bytes() <= 100);
    }

    #[test]
    fn lru_invalidate_is_not_an_eviction() {
        let mut lru = Lru::new(100);
        lru.admit(1, 50);
        lru.invalidate(1);
        assert!(!lru.contains(1));
        assert_eq!(lru.evictions(), 0);
        assert_eq!(lru.used_bytes(), 0);
    }

    #[test]
    fn slfu_protects_hot_entries_from_scans() {
        let mut lfu = SampledLfu::new(300, 8, 1);
        lfu.admit(1, 100);
        for _ in 0..50 {
            lfu.lookup(1);
        }
        // A cold scan through one-shot files must not displace file 1.
        for f in 100..140 {
            lfu.admit(f, 100);
        }
        assert!(lfu.contains(1), "hot entry evicted by scan");
        assert!(lfu.used_bytes() <= 300);
    }

    #[test]
    fn slfu_same_seed_same_contents() {
        let run = |seed: u64| {
            let mut t = SampledLfu::new(500, 4, seed);
            let mut rng = SimRng::seed_from_u64(99);
            for _ in 0..2000 {
                let f = rng.index(64) as u32;
                if !t.lookup(f) {
                    t.admit(f, 100);
                }
            }
            let resident: Vec<u32> = (0..64).filter(|f| t.contains(*f)).collect();
            (resident, t.hits(), t.evictions())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0.len(), 0);
    }

    #[test]
    fn dram_service_time_scales_with_bytes() {
        assert_eq!(dram_service_time(0), SimDuration::from_micros(100));
        assert!(dram_service_time(1 << 20) > dram_service_time(1 << 10));
    }

    #[test]
    fn tier_config_labels() {
        assert_eq!(TierConfig::none().label(), "none");
        let c = TierConfig {
            dram_bytes: 64 << 20,
            ssd_bytes: 4 << 30,
            policy: EvictionPolicy::SampledLfu { sample: 8 },
        };
        assert_eq!(c.label(), "dram64m+ssd4g/slfu");
        let json = serde_json::to_string(&c).expect("serialize");
        let back: TierConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(c, back);
    }
}
