//! Write-ahead metadata journal hosted on the buffer disk.
//!
//! EEVFS keeps the buffer disk always spinning, which makes it the one
//! place node-local metadata can be durably appended without waking a
//! sleeping data disk. Every metadata mutation — a file created on a data
//! disk, a copy pulled into the buffer area, a write absorbed by the
//! buffer, the server's placement decisions — is journalled *before* it
//! is acted on, so a crashed node (or server) replays the journal and
//! recovers exactly the metadata it held.
//!
//! # Record format
//!
//! ```text
//! u32 payload_len (LE) | u32 crc32(payload) | payload
//! payload = u8 tag | fields (LE)
//! ```
//!
//! A crash can tear the final record (short write) or corrupt any byte of
//! the tail; [`replay`] therefore applies records only while frames stay
//! intact and CRC-valid, truncating at the first damaged frame — never
//! panicking, never applying a half-written record.
//!
//! # Idempotence
//!
//! [`MetaState::apply`] is idempotent by construction (set/map inserts
//! keyed on the file id), so replaying a journal — or a crashed prefix of
//! it — any number of times converges to the same state. The recovery
//! protocol leans on this: a node that crashes *during* replay just
//! replays again from the top.

use disk_model::checksum::crc32;
use std::collections::{BTreeMap, BTreeSet};

/// One journalled metadata mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalRecord {
    /// A file was created on a local data disk.
    Create {
        /// File id.
        file: u32,
        /// File size, bytes.
        size: u64,
        /// Local data-disk index.
        disk: u32,
    },
    /// A file's contents were copied into the buffer area (prefetch).
    Prefetch {
        /// File id.
        file: u32,
    },
    /// A write to the file was absorbed by the buffer area (the buffer
    /// copy is now the authoritative one until destaged).
    BufferWrite {
        /// File id.
        file: u32,
    },
    /// A server-side placement decision: `file` lives on `(node, disk)`.
    /// Replicas append one record per copy, primary first.
    Placement {
        /// File id.
        file: u32,
        /// Owning storage node.
        node: u32,
        /// Data disk within that node.
        disk: u32,
    },
}

impl JournalRecord {
    fn encode_payload(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(16);
        match *self {
            JournalRecord::Create { file, size, disk } => {
                p.push(1);
                p.extend_from_slice(&file.to_le_bytes());
                p.extend_from_slice(&size.to_le_bytes());
                p.extend_from_slice(&disk.to_le_bytes());
            }
            JournalRecord::Prefetch { file } => {
                p.push(2);
                p.extend_from_slice(&file.to_le_bytes());
            }
            JournalRecord::BufferWrite { file } => {
                p.push(3);
                p.extend_from_slice(&file.to_le_bytes());
            }
            JournalRecord::Placement { file, node, disk } => {
                p.push(4);
                p.extend_from_slice(&file.to_le_bytes());
                p.extend_from_slice(&node.to_le_bytes());
                p.extend_from_slice(&disk.to_le_bytes());
            }
        }
        p
    }

    fn decode_payload(p: &[u8]) -> Option<JournalRecord> {
        let (&tag, rest) = p.split_first()?;
        let u32_at = |at: usize| -> Option<u32> {
            Some(u32::from_le_bytes(rest.get(at..at + 4)?.try_into().ok()?))
        };
        let u64_at = |at: usize| -> Option<u64> {
            Some(u64::from_le_bytes(rest.get(at..at + 8)?.try_into().ok()?))
        };
        let rec = match tag {
            1 if rest.len() == 16 => JournalRecord::Create {
                file: u32_at(0)?,
                size: u64_at(4)?,
                disk: u32_at(12)?,
            },
            2 if rest.len() == 4 => JournalRecord::Prefetch { file: u32_at(0)? },
            3 if rest.len() == 4 => JournalRecord::BufferWrite { file: u32_at(0)? },
            4 if rest.len() == 12 => JournalRecord::Placement {
                file: u32_at(0)?,
                node: u32_at(4)?,
                disk: u32_at(8)?,
            },
            _ => return None,
        };
        Some(rec)
    }
}

/// Appends one framed record to a journal byte buffer.
pub fn append_record(journal: &mut Vec<u8>, rec: &JournalRecord) {
    let payload = rec.encode_payload();
    journal.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    journal.extend_from_slice(&crc32(&payload).to_le_bytes());
    journal.extend_from_slice(&payload);
}

/// Encodes a record sequence into journal bytes.
pub fn encode(records: &[JournalRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in records {
        append_record(&mut out, r);
    }
    out
}

/// Outcome of scanning journal bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// Intact records, in append order.
    pub records: Vec<JournalRecord>,
    /// Byte offset where scanning stopped (== input length on a clean
    /// journal; earlier when a torn or corrupt tail was truncated).
    pub valid_len: usize,
    /// True when the whole input was intact.
    pub clean: bool,
}

/// Scans journal bytes, returning every intact record and truncating at
/// the first torn or corrupt frame. Total: never panics on any input.
pub fn replay(bytes: &[u8]) -> Replay {
    let mut records = Vec::new();
    let mut at = 0usize;
    loop {
        let Some(header) = bytes.get(at..at + 8) else {
            // Clean EOF only when exactly at the end.
            return Replay {
                records,
                valid_len: at,
                clean: at == bytes.len(),
            };
        };
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let want_crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
        let Some(payload) = bytes.get(at + 8..at + 8 + len) else {
            // Torn final record (short write mid-crash).
            return Replay {
                records,
                valid_len: at,
                clean: false,
            };
        };
        if crc32(payload) != want_crc {
            return Replay {
                records,
                valid_len: at,
                clean: false,
            };
        }
        let Some(rec) = JournalRecord::decode_payload(payload) else {
            // CRC-valid but structurally unknown: treat as tail damage
            // (a future record kind this build cannot apply).
            return Replay {
                records,
                valid_len: at,
                clean: false,
            };
        };
        records.push(rec);
        at += 8 + len;
    }
}

/// The metadata state a journal replay reconstructs.
///
/// All maps are `BTree*` so iteration — and any serialisation derived
/// from it — is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetaState {
    /// Local files: id → (size, data disk).
    pub files: BTreeMap<u32, (u64, u32)>,
    /// Files with a copy in the buffer area.
    pub buffered: BTreeSet<u32>,
    /// Files whose buffer copy is dirty (absorbed write not yet destaged).
    pub dirty: BTreeSet<u32>,
    /// Placement decisions: file → ordered copy list `(node, disk)`,
    /// primary first (server-side journals only).
    pub placements: BTreeMap<u32, Vec<(u32, u32)>>,
}

impl MetaState {
    /// Applies one record. Idempotent: applying the same record again
    /// leaves the state unchanged.
    pub fn apply(&mut self, rec: &JournalRecord) {
        match *rec {
            JournalRecord::Create { file, size, disk } => {
                self.files.insert(file, (size, disk));
            }
            JournalRecord::Prefetch { file } => {
                self.buffered.insert(file);
            }
            JournalRecord::BufferWrite { file } => {
                self.buffered.insert(file);
                self.dirty.insert(file);
            }
            JournalRecord::Placement { file, node, disk } => {
                let copies = self.placements.entry(file).or_default();
                if !copies.contains(&(node, disk)) {
                    copies.push((node, disk));
                }
            }
        }
    }

    /// Replays a record sequence into a fresh state.
    pub fn from_records(records: &[JournalRecord]) -> MetaState {
        let mut s = MetaState::default();
        for r in records {
            s.apply(r);
        }
        s
    }

    /// Replays journal bytes (truncating any damaged tail) into a fresh
    /// state.
    pub fn from_bytes(bytes: &[u8]) -> MetaState {
        MetaState::from_records(&replay(bytes).records)
    }
}

/// An append-only journal buffer with an explicit fsync cursor.
///
/// `append` stages a record; [`Journal::mark_fsync`] declares everything
/// staged so far durable. [`Journal::durable_bytes`] is what survives a
/// crash — the un-fsynced tail may be torn arbitrarily (the simulator's
/// crash model truncates it; the proptests additionally corrupt it).
#[derive(Debug, Clone, Default)]
pub struct Journal {
    bytes: Vec<u8>,
    fsynced: usize,
    records: u64,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Journal {
        Journal::default()
    }

    /// Appends one record (staged, not yet durable).
    pub fn append(&mut self, rec: &JournalRecord) {
        append_record(&mut self.bytes, rec);
        self.records += 1;
    }

    /// Declares everything appended so far durable.
    pub fn mark_fsync(&mut self) {
        self.fsynced = self.bytes.len();
    }

    /// The full journal image (durable prefix + staged tail).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The crash-surviving prefix (up to the last fsync point).
    pub fn durable_bytes(&self) -> &[u8] {
        &self.bytes[..self.fsynced]
    }

    /// Total bytes appended so far.
    pub fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Records appended so far.
    pub fn records(&self) -> u64 {
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Create {
                file: 7,
                size: 1_000_000,
                disk: 2,
            },
            JournalRecord::Prefetch { file: 7 },
            JournalRecord::Create {
                file: 8,
                size: 42,
                disk: 0,
            },
            JournalRecord::BufferWrite { file: 8 },
            JournalRecord::Placement {
                file: 7,
                node: 1,
                disk: 2,
            },
            JournalRecord::Placement {
                file: 7,
                node: 3,
                disk: 0,
            },
        ]
    }

    #[test]
    fn roundtrip_is_clean() {
        let bytes = encode(&sample());
        let r = replay(&bytes);
        assert!(r.clean);
        assert_eq!(r.valid_len, bytes.len());
        assert_eq!(r.records, sample());
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            let r = replay(&bytes[..cut]);
            assert!(r.records.len() <= sample().len());
            // Records recovered from a prefix are a prefix of the originals.
            assert_eq!(r.records[..], sample()[..r.records.len()]);
        }
    }

    #[test]
    fn corrupt_byte_truncates_at_that_record() {
        let bytes = encode(&sample());
        let mut bad = bytes.clone();
        // Flip a byte inside the third record's payload.
        let third_start = replay(&encode(&sample()[..2])).valid_len;
        bad[third_start + 9] ^= 0x40;
        let r = replay(&bad);
        assert!(!r.clean);
        assert_eq!(r.records, sample()[..2]);
    }

    #[test]
    fn replay_twice_equals_replay_once() {
        let bytes = encode(&sample());
        let once = MetaState::from_bytes(&bytes);
        let mut twice = MetaState::from_bytes(&bytes);
        for rec in &replay(&bytes).records {
            twice.apply(rec);
        }
        assert_eq!(once, twice);
    }

    #[test]
    fn meta_state_contents() {
        let s = MetaState::from_records(&sample());
        assert_eq!(s.files.get(&7), Some(&(1_000_000, 2)));
        assert_eq!(s.files.get(&8), Some(&(42, 0)));
        assert!(s.buffered.contains(&7) && s.buffered.contains(&8));
        assert!(s.dirty.contains(&8) && !s.dirty.contains(&7));
        assert_eq!(s.placements.get(&7), Some(&vec![(1, 2), (3, 0)]));
    }

    #[test]
    fn fsync_cursor_bounds_the_durable_prefix() {
        let mut j = Journal::new();
        j.append(&sample()[0]);
        j.append(&sample()[1]);
        j.mark_fsync();
        j.append(&sample()[2]);
        assert_eq!(j.records(), 3);
        // The un-fsynced tail is not part of the durable image.
        let durable = replay(j.durable_bytes());
        assert!(durable.clean);
        assert_eq!(durable.records, sample()[..2]);
        // The full image still holds all three.
        assert_eq!(replay(j.bytes()).records, sample()[..3]);
    }

    #[test]
    fn duplicate_placement_records_are_idempotent() {
        let rec = JournalRecord::Placement {
            file: 1,
            node: 0,
            disk: 0,
        };
        let mut s = MetaState::default();
        s.apply(&rec);
        s.apply(&rec);
        assert_eq!(s.placements.get(&1), Some(&vec![(0, 0)]));
    }

    #[test]
    fn unknown_record_kind_truncates_cleanly() {
        // A CRC-valid frame whose payload tag this build does not know.
        let mut bytes = encode(&sample()[..1]);
        let payload = [99u8, 1, 2, 3];
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let r = replay(&bytes);
        assert!(!r.clean);
        assert_eq!(r.records, sample()[..1]);
    }
}
