//! Buffer-disk content management (§III-C, §IV-B).
//!
//! The buffer disk holds (a) read-only copies of popular files placed by
//! the prefetcher and (b) — when space remains — a write-buffer area that
//! absorbs writes destined for sleeping data disks ("if the buffer disk
//! has any available space, the free space should be used as a write
//! buffer area for the other data disks", §III-C).
//!
//! [`BufferCatalog`] tracks what is resident and enforces capacity. For
//! the MAID baseline it also implements LRU eviction; EEVFS prefetch
//! entries are pinned (the paper re-plans prefetch contents from
//! popularity, it does not evict them under read traffic).

use sim_core::IntMap;
use workload::record::FileId;

/// Why an insert was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertError {
    /// The file alone exceeds total capacity.
    TooLarge,
    /// Capacity exhausted and eviction is not allowed / cannot help.
    Full,
}

/// A resident entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    size: u64,
    /// Pinned entries (prefetched copies) are never LRU-evicted.
    pinned: bool,
    /// LRU clock: last-touch sequence number.
    touched: u64,
    /// Dirty entries hold write-buffered data not yet destaged.
    dirty: bool,
}

/// Contents of one node's buffer disk.
///
/// Entries sit in a hashed index probed on every read; no result depends
/// on its iteration order ([`Self::dirty_files`] sorts, and LRU eviction
/// picks by a unique key).
#[derive(Debug, Clone)]
pub struct BufferCatalog {
    capacity: u64,
    used: u64,
    entries: IntMap<FileId, Entry>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl BufferCatalog {
    /// An empty catalog with the given byte capacity.
    pub fn new(capacity: u64) -> Self {
        BufferCatalog {
            capacity,
            used: 0,
            entries: IntMap::default(),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Total capacity, bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently resident.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes free.
    pub fn free(&self) -> u64 {
        self.capacity - self.used
    }

    /// Number of resident files.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Buffer hits recorded via [`Self::lookup`].
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Buffer misses recorded via [`Self::lookup`].
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// LRU evictions performed.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Checks residency *and* records the hit/miss + LRU touch. This is
    /// the read-path query the storage node makes per request.
    pub fn lookup(&mut self, file: FileId) -> bool {
        self.clock += 1;
        match self.entries.get_mut(&file) {
            Some(e) => {
                e.touched = self.clock;
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Residency check without statistics (planning / assertions).
    pub fn contains(&self, file: FileId) -> bool {
        self.entries.contains_key(&file)
    }

    /// True when the entry holds un-destaged write data.
    pub fn is_dirty(&self, file: FileId) -> bool {
        self.entries.get(&file).map(|e| e.dirty).unwrap_or(false)
    }

    /// Inserts a pinned prefetch copy. Fails rather than evicts: the
    /// prefetch plan is sized against capacity up front.
    pub fn insert_pinned(&mut self, file: FileId, size: u64) -> Result<(), InsertError> {
        self.insert_inner(file, size, true, false, false)
    }

    /// Inserts an unpinned cached copy (MAID), evicting LRU unpinned
    /// entries as needed.
    pub fn insert_lru(&mut self, file: FileId, size: u64) -> Result<(), InsertError> {
        self.insert_inner(file, size, false, false, true)
    }

    /// Buffers a write: like [`Self::insert_lru`] but the entry is dirty
    /// until destaged. Overwriting an existing entry keeps its pin status.
    pub fn buffer_write(&mut self, file: FileId, size: u64) -> Result<(), InsertError> {
        if let Some(e) = self.entries.get_mut(&file) {
            // Overwrite in place (sizes are per-file constants here).
            self.clock += 1;
            e.touched = self.clock;
            e.dirty = true;
            debug_assert_eq!(e.size, size, "file size changed mid-run");
            return Ok(());
        }
        self.insert_inner(file, size, false, true, true)
    }

    /// Marks a dirty entry destaged.
    pub fn mark_clean(&mut self, file: FileId) {
        if let Some(e) = self.entries.get_mut(&file) {
            e.dirty = false;
        }
    }

    /// Dirty files, sorted by id for determinism.
    pub fn dirty_files(&self) -> Vec<(FileId, u64)> {
        let mut v: Vec<(FileId, u64)> = self
            .entries
            .iter()
            .filter(|(_, e)| e.dirty)
            .map(|(&f, e)| (f, e.size))
            .collect();
        v.sort_by_key(|&(f, _)| f);
        v
    }

    fn insert_inner(
        &mut self,
        file: FileId,
        size: u64,
        pinned: bool,
        dirty: bool,
        may_evict: bool,
    ) -> Result<(), InsertError> {
        if self.contains(file) {
            return Ok(());
        }
        if size > self.capacity {
            return Err(InsertError::TooLarge);
        }
        while self.used + size > self.capacity {
            if !may_evict || !self.evict_lru() {
                return Err(InsertError::Full);
            }
        }
        self.clock += 1;
        self.entries.insert(
            file,
            Entry {
                size,
                pinned,
                touched: self.clock,
                dirty,
            },
        );
        self.used += size;
        Ok(())
    }

    /// Evicts the least-recently-used unpinned *clean* entry. Dirty
    /// entries must be destaged first; evicting them would lose writes.
    fn evict_lru(&mut self) -> bool {
        let victim = self
            .entries
            .iter()
            .filter(|(_, e)| !e.pinned && !e.dirty)
            .min_by_key(|(f, e)| (e.touched, f.0))
            .map(|(&f, _)| f);
        match victim {
            Some(f) => {
                let e = self.entries.remove(&f).expect("victim exists");
                self.used -= e.size;
                self.evictions += 1;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut c = BufferCatalog::new(100);
        assert!(c.insert_pinned(FileId(1), 40).is_ok());
        assert!(c.lookup(FileId(1)));
        assert!(!c.lookup(FileId(2)));
        assert_eq!((c.hits(), c.misses()), (1, 1));
        assert_eq!(c.used(), 40);
        assert_eq!(c.free(), 60);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn pinned_insert_fails_rather_than_evicts() {
        let mut c = BufferCatalog::new(100);
        c.insert_pinned(FileId(1), 60).unwrap();
        assert_eq!(c.insert_pinned(FileId(2), 60), Err(InsertError::Full));
        assert_eq!(c.insert_pinned(FileId(3), 200), Err(InsertError::TooLarge));
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut c = BufferCatalog::new(100);
        c.insert_pinned(FileId(1), 60).unwrap();
        c.insert_pinned(FileId(1), 60).unwrap();
        assert_eq!(c.used(), 60);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = BufferCatalog::new(100);
        c.insert_lru(FileId(1), 40).unwrap();
        c.insert_lru(FileId(2), 40).unwrap();
        c.lookup(FileId(1)); // touch 1; 2 becomes LRU
        c.insert_lru(FileId(3), 40).unwrap(); // evicts 2
        assert!(c.contains(FileId(1)));
        assert!(!c.contains(FileId(2)));
        assert!(c.contains(FileId(3)));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn lru_never_evicts_pinned() {
        let mut c = BufferCatalog::new(100);
        c.insert_pinned(FileId(1), 80).unwrap();
        assert_eq!(c.insert_lru(FileId(2), 40), Err(InsertError::Full));
        assert!(c.contains(FileId(1)));
    }

    #[test]
    fn write_buffering_marks_dirty_until_destage() {
        let mut c = BufferCatalog::new(100);
        c.buffer_write(FileId(5), 30).unwrap();
        assert!(c.is_dirty(FileId(5)));
        assert_eq!(c.dirty_files(), vec![(FileId(5), 30)]);
        c.mark_clean(FileId(5));
        assert!(!c.is_dirty(FileId(5)));
        assert!(c.dirty_files().is_empty());
        assert!(c.contains(FileId(5)), "clean entry remains cached");
    }

    #[test]
    fn dirty_entries_are_not_evictable() {
        let mut c = BufferCatalog::new(100);
        c.buffer_write(FileId(1), 60).unwrap();
        // Needs eviction but the only candidate is dirty.
        assert_eq!(c.insert_lru(FileId(2), 60), Err(InsertError::Full));
        c.mark_clean(FileId(1));
        assert!(c.insert_lru(FileId(2), 60).is_ok());
        assert!(!c.contains(FileId(1)));
    }

    #[test]
    fn rewriting_a_cached_file_dirties_it_in_place() {
        let mut c = BufferCatalog::new(100);
        c.insert_pinned(FileId(1), 40).unwrap();
        c.buffer_write(FileId(1), 40).unwrap();
        assert!(c.is_dirty(FileId(1)));
        assert_eq!(c.used(), 40);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn dirty_files_sorted_by_id() {
        let mut c = BufferCatalog::new(100);
        c.buffer_write(FileId(9), 10).unwrap();
        c.buffer_write(FileId(2), 10).unwrap();
        c.buffer_write(FileId(5), 10).unwrap();
        let ids: Vec<u32> = c.dirty_files().iter().map(|(f, _)| f.0).collect();
        assert_eq!(ids, vec![2, 5, 9]);
    }

    #[test]
    fn eviction_tiebreak_is_deterministic() {
        let mut c = BufferCatalog::new(20);
        // Two entries with forced-equal touch clocks cannot happen through
        // the public API (clock always increments), so determinism comes
        // from (touched, id) ordering; exercise the id tiebreak by giving
        // both the same effective recency class: insert then evict twice.
        c.insert_lru(FileId(3), 10).unwrap();
        c.insert_lru(FileId(1), 10).unwrap();
        c.insert_lru(FileId(7), 10).unwrap(); // evicts 3 (oldest)
        assert!(!c.contains(FileId(3)));
        c.insert_lru(FileId(8), 10).unwrap(); // evicts 1
        assert!(!c.contains(FileId(1)));
        assert_eq!(c.evictions(), 2);
    }
}
