//! Node-local file store.
//!
//! One directory per node, with one subdirectory per data disk plus a
//! `buffer/` area — the runtime analogue of the storage node's drives.
//! File contents are deterministic (a cheap xorshift pattern keyed by the
//! file id) so integrity can be verified end-to-end after travelling the
//! whole request path.
//!
//! Every data-disk file carries a CRC32 sidecar (`f????????.crc`) written
//! on creation and on every overwrite; [`FileStore::read_data`] verifies
//! it and reports a mismatch as [`io::ErrorKind::InvalidData`], the
//! signal the node daemon counts as a detected corruption and the server
//! turns into replica failover. Buffer-area copies are not checksummed —
//! the buffer disk is the always-on, trusted device in EEVFS, and its
//! contents are re-derivable from the data disks.

use disk_model::checksum::crc32;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Deterministic file contents for file `id` of length `size`.
///
/// Every byte is a function of `(id, offset)`, so a flipped block anywhere
/// in the pipeline fails verification.
pub fn file_pattern(id: u32, size: u64) -> Vec<u8> {
    let mut out = Vec::new();
    fill_pattern(id, size, &mut out);
    out
}

/// The pattern of file `id` as little-endian xorshift64* words, without
/// end: byte `i` of the file is byte `i % 8` of word `i / 8`.
fn pattern_words(id: u32) -> impl Iterator<Item = [u8; 8]> {
    let mut state = (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    std::iter::from_fn(move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        Some(state.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes())
    })
}

/// [`file_pattern`] into a caller's buffer, cleared first: whole words,
/// then the last one cut back to `size`.
fn fill_pattern(id: u32, size: u64, out: &mut Vec<u8>) {
    let len = size as usize;
    out.clear();
    out.reserve(len.next_multiple_of(8));
    for word in pattern_words(id).take(len.div_ceil(8)) {
        out.extend_from_slice(&word);
    }
    out.truncate(len);
}

/// Verifies contents against [`file_pattern`], one word at a time.
pub fn verify_pattern(id: u32, data: &[u8]) -> bool {
    data.chunks(8)
        .zip(pattern_words(id))
        .all(|(got, want)| *got == want[..got.len()])
}

/// The CRC32 sidecar's path of the data file at `path`.
fn sidecar(mut path: PathBuf) -> PathBuf {
    path.set_extension("crc");
    path
}

/// Storage layout of one node.
#[derive(Debug)]
pub struct FileStore {
    root: PathBuf,
    /// `disk{d}` under the root, one per data disk.
    disks: Vec<PathBuf>,
}

impl FileStore {
    /// Creates (or reuses) the node directory with `data_disks` disk
    /// subdirectories and a buffer area.
    pub fn create(root: impl Into<PathBuf>, data_disks: usize) -> io::Result<FileStore> {
        assert!(data_disks > 0, "a node needs at least one data disk");
        let root = root.into();
        let disks: Vec<PathBuf> = (0..data_disks)
            .map(|d| root.join(format!("disk{d}")))
            .collect();
        for dir in &disks {
            fs::create_dir_all(dir)?;
        }
        fs::create_dir_all(root.join("buffer"))?;
        Ok(FileStore { root, disks })
    }

    /// Number of data disks.
    pub fn data_disks(&self) -> usize {
        self.disks.len()
    }

    /// Node root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// `disk{disk}/f{file:08}`, with room to become its sidecar's path
    /// ([`sidecar`]) without growing. A disk the node lacks is not found.
    fn data_path(&self, disk: usize, file: u32) -> io::Result<PathBuf> {
        let dir = self.disks.get(disk).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("no data disk {disk}"))
        })?;
        let mut path = PathBuf::with_capacity(dir.as_os_str().len() + "/f00000000.crc".len());
        path.push(dir);
        path.push(format!("f{file:08}"));
        Ok(path)
    }

    fn crc_path(&self, disk: usize, file: u32) -> io::Result<PathBuf> {
        self.data_path(disk, file).map(sidecar)
    }

    fn buffer_path(&self, file: u32) -> PathBuf {
        self.root.join("buffer").join(format!("f{file:08}"))
    }

    fn write_crc(&self, disk: usize, file: u32, data: &[u8]) -> io::Result<()> {
        fs::write(self.crc_path(disk, file)?, crc32(data).to_le_bytes())
    }

    /// Creates a file with deterministic contents on a data disk.
    pub fn create_file(&self, disk: usize, file: u32, size: u64) -> io::Result<()> {
        self.create_file_with(disk, file, size, &mut Vec::new())
    }

    /// [`FileStore::create_file`], building the contents in `scratch`, a
    /// buffer the caller reuses.
    pub fn create_file_with(
        &self,
        disk: usize,
        file: u32,
        size: u64,
        scratch: &mut Vec<u8>,
    ) -> io::Result<()> {
        assert!(disk < self.disks.len(), "disk {disk} out of range");
        fill_pattern(file, size, scratch);
        let mut f = fs::File::create(self.data_path(disk, file)?)?;
        f.write_all(scratch)?;
        self.write_crc(disk, file, scratch)
    }

    /// Reads a file from a data disk, verifying it against its CRC32
    /// sidecar. A mismatch (or a missing/short sidecar) comes back as
    /// [`io::ErrorKind::InvalidData`] so callers can distinguish silent
    /// corruption from the file simply not being there.
    pub fn read_data(&self, disk: usize, file: u32) -> io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.read_data_into(disk, file, &mut buf)?;
        Ok(buf)
    }

    /// [`FileStore::read_data`] into a caller's buffer, which is cleared
    /// first and reused: a node serving many reads allocates only when a
    /// file is larger than any before it.
    pub fn read_data_into(&self, disk: usize, file: u32, buf: &mut Vec<u8>) -> io::Result<()> {
        buf.clear();
        let path = self.data_path(disk, file)?;
        fs::File::open(&path)?.read_to_end(buf)?;
        let mut stored = [0u8; 4];
        fs::File::open(sidecar(path))
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "checksum sidecar missing"))?
            .read_exact(&mut stored)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "checksum sidecar damaged"))?;
        if crc32(buf) != u32::from_le_bytes(stored) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("checksum mismatch on disk{disk}/f{file:08}"),
            ));
        }
        Ok(())
    }

    /// Fault injection: flips one byte of a data-disk file **without**
    /// touching its checksum sidecar — the on-platter bit rot the
    /// integrity layer exists to catch.
    pub fn corrupt_data(&self, disk: usize, file: u32, offset: u64) -> io::Result<()> {
        let mut f = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(self.data_path(disk, file)?)?;
        let mut byte = [0u8; 1];
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(&mut byte)?;
        byte[0] ^= 0xFF;
        f.seek(SeekFrom::Start(offset))?;
        f.write_all(&byte)
    }

    /// Copies a file from a data disk into the buffer area (prefetch).
    /// Goes through [`FileStore::read_data`], so a corrupt source block
    /// is detected rather than silently promoted into the buffer every
    /// future read would then hit.
    pub fn prefetch(&self, disk: usize, file: u32) -> io::Result<u64> {
        self.prefetch_with(disk, file, &mut Vec::new())
    }

    /// [`FileStore::prefetch`] through `scratch`, a buffer the caller
    /// reuses.
    pub fn prefetch_with(&self, disk: usize, file: u32, scratch: &mut Vec<u8>) -> io::Result<u64> {
        self.read_data_into(disk, file, scratch)?;
        let mut f = fs::File::create(self.buffer_path(file))?;
        f.write_all(scratch)?;
        Ok(scratch.len() as u64)
    }

    /// Writes client-supplied data into the buffer area (write buffering).
    pub fn write_buffer_file(&self, file: u32, data: &[u8]) -> io::Result<()> {
        let mut f = fs::File::create(self.buffer_path(file))?;
        f.write_all(data)?;
        Ok(())
    }

    /// Overwrites a file on a data disk with client-supplied data.
    pub fn write_data(&self, disk: usize, file: u32, data: &[u8]) -> io::Result<()> {
        assert!(disk < self.disks.len(), "disk {disk} out of range");
        let mut f = fs::File::create(self.data_path(disk, file)?)?;
        f.write_all(data)?;
        self.write_crc(disk, file, data)
    }

    /// Reads a file from the buffer area.
    pub fn read_buffer(&self, file: u32) -> io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.read_buffer_into(file, &mut buf)?;
        Ok(buf)
    }

    /// [`FileStore::read_buffer`] into a caller's buffer, cleared first.
    pub fn read_buffer_into(&self, file: u32, buf: &mut Vec<u8>) -> io::Result<()> {
        buf.clear();
        fs::File::open(self.buffer_path(file))?.read_to_end(buf)?;
        Ok(())
    }

    /// True when the buffer area holds the file.
    pub fn in_buffer(&self, file: u32) -> bool {
        self.buffer_path(file).exists()
    }

    /// Size of a file on a data disk, if present.
    pub fn data_size(&self, disk: usize, file: u32) -> Option<u64> {
        fs::metadata(self.data_path(disk, file).ok()?)
            .ok()
            .map(|m| m.len())
    }
}

// The tests return `io::Result` and propagate failures with `?` instead
// of unwrap/expect, keeping the crate-level `clippy::unwrap_used` gate
// clean without an allow on this module.
#[cfg(test)]
mod tests {
    use super::*;

    fn tmp() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "eevfs-store-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Asserts an operation failed with [`io::ErrorKind::InvalidData`],
    /// surfacing anything else as the test's own typed error.
    fn expect_invalid<T>(r: io::Result<T>, what: &str) -> io::Result<()> {
        match r {
            Ok(_) => Err(io::Error::other(format!("{what}: expected InvalidData"))),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => Ok(()),
            Err(e) => Err(io::Error::other(format!(
                "{what}: expected InvalidData, got {e}"
            ))),
        }
    }

    #[test]
    fn pattern_is_deterministic_and_id_sensitive() {
        assert_eq!(file_pattern(1, 100), file_pattern(1, 100));
        assert_ne!(file_pattern(1, 100), file_pattern(2, 100));
        assert!(verify_pattern(1, &file_pattern(1, 1000)));
        let mut corrupted = file_pattern(1, 1000);
        corrupted[500] ^= 0xFF;
        assert!(!verify_pattern(1, &corrupted));
    }

    /// The one-byte-per-step generator the word-at-a-time fill replaced:
    /// every pattern must equal its output byte for byte.
    fn bytewise_pattern(id: u32, size: u64) -> Vec<u8> {
        let mut out = Vec::new();
        let mut state = (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        while (out.len() as u64) < size {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let word = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            for b in word.to_le_bytes() {
                if (out.len() as u64) == size {
                    break;
                }
                out.push(b);
            }
        }
        out
    }

    #[test]
    fn word_pattern_equals_the_bytewise_one() {
        const MIB: u64 = 1 << 20;
        let lengths = (0..=64)
            .chain([MIB])
            .chain((1..=7).flat_map(|d| [MIB - d, MIB + d]));
        let mut reused = file_pattern(9, MIB + 7);
        for len in lengths {
            for id in [0, 1, 63] {
                let want = bytewise_pattern(id, len);
                assert_eq!(file_pattern(id, len), want, "id {id} len {len}");
                fill_pattern(id, len, &mut reused);
                assert_eq!(reused, want, "reused buffer, id {id} len {len}");
                assert!(verify_pattern(id, &want), "id {id} len {len}");
                if let Some(last) = len.checked_sub(1) {
                    let mut bad = want.clone();
                    bad[last as usize] ^= 1;
                    assert!(!verify_pattern(id, &bad), "id {id} len {len}");
                }
            }
        }
    }

    #[test]
    fn pattern_lengths_exact() {
        for len in [0u64, 1, 7, 8, 9, 1000] {
            assert_eq!(file_pattern(3, len).len() as u64, len);
        }
    }

    #[test]
    fn create_read_roundtrip() -> io::Result<()> {
        let store = FileStore::create(tmp(), 2)?;
        store.create_file(1, 42, 4096)?;
        let data = store.read_data(1, 42)?;
        assert_eq!(data.len(), 4096);
        assert!(verify_pattern(42, &data));
        assert_eq!(store.data_size(1, 42), Some(4096));
        assert_eq!(store.data_size(0, 42), None);
        let _ = fs::remove_dir_all(store.root());
        Ok(())
    }

    #[test]
    fn prefetch_copies_into_buffer() -> io::Result<()> {
        let store = FileStore::create(tmp(), 1)?;
        store.create_file(0, 7, 1024)?;
        assert!(!store.in_buffer(7));
        let copied = store.prefetch(0, 7)?;
        assert_eq!(copied, 1024);
        assert!(store.in_buffer(7));
        let data = store.read_buffer(7)?;
        assert!(verify_pattern(7, &data));
        let _ = fs::remove_dir_all(store.root());
        Ok(())
    }

    #[test]
    fn client_writes_roundtrip() -> io::Result<()> {
        let store = FileStore::create(tmp(), 1)?;
        store.create_file(0, 3, 64)?;
        let payload = vec![0xABu8; 64];
        store.write_buffer_file(3, &payload)?;
        assert_eq!(store.read_buffer(3)?, payload);
        store.write_data(0, 3, &payload)?;
        assert_eq!(store.read_data(0, 3)?, payload);
        let _ = fs::remove_dir_all(store.root());
        Ok(())
    }

    #[test]
    fn corruption_is_detected_on_read() -> io::Result<()> {
        let store = FileStore::create(tmp(), 1)?;
        store.create_file(0, 5, 2048)?;
        assert!(store.read_data(0, 5).is_ok());
        store.corrupt_data(0, 5, 1024)?;
        expect_invalid(store.read_data(0, 5), "read of corrupt file")?;
        // Prefetch of the corrupt file is refused too, so the damage is
        // never promoted into the buffer area.
        expect_invalid(store.prefetch(0, 5), "prefetch of corrupt file")?;
        assert!(!store.in_buffer(5));
        // An overwrite refreshes the sidecar and clears the condition.
        let payload = file_pattern(5, 2048);
        store.write_data(0, 5, &payload)?;
        assert_eq!(store.read_data(0, 5)?, payload);
        let _ = fs::remove_dir_all(store.root());
        Ok(())
    }

    /// One flipped byte in the first 64-byte lane, in the middle, and in
    /// the final tail of fewer than 16 bytes of a 1 MiB + 5 B file: each
    /// part of the checksum kernel sees it.
    #[test]
    fn a_flip_anywhere_in_a_large_file_is_detected() -> io::Result<()> {
        const LEN: u64 = (1 << 20) + 5;
        let store = FileStore::create(tmp(), 1)?;
        store.create_file(0, 8, LEN)?;
        let mut buf = Vec::new();
        for offset in [3, LEN / 2 + 7, LEN - 2] {
            store.corrupt_data(0, 8, offset)?;
            expect_invalid(
                store.read_data_into(0, 8, &mut buf),
                &format!("read with byte {offset} flipped"),
            )?;
            // A second flip restores the byte.
            store.corrupt_data(0, 8, offset)?;
            store.read_data_into(0, 8, &mut buf)?;
            assert!(verify_pattern(8, &buf));
        }
        let _ = fs::remove_dir_all(store.root());
        Ok(())
    }

    #[test]
    fn missing_sidecar_is_invalid_data() -> io::Result<()> {
        let store = FileStore::create(tmp(), 1)?;
        store.create_file(0, 6, 128)?;
        fs::remove_file(store.crc_path(0, 6)?)?;
        expect_invalid(store.read_data(0, 6), "read without sidecar")?;
        let _ = fs::remove_dir_all(store.root());
        Ok(())
    }

    #[test]
    fn short_sidecar_is_invalid_data() -> io::Result<()> {
        let store = FileStore::create(tmp(), 1)?;
        store.create_file(0, 6, 128)?;
        fs::write(store.crc_path(0, 6)?, [1, 2, 3])?;
        expect_invalid(store.read_data(0, 6), "read with a 3-byte sidecar")?;
        let _ = fs::remove_dir_all(store.root());
        Ok(())
    }

    #[test]
    fn paths_name_the_disk_and_file() -> io::Result<()> {
        let store = FileStore::create(tmp(), 2)?;
        let data = store.data_path(1, 42)?;
        assert_eq!(data, store.root().join("disk1").join("f00000042"));
        let capacity = data.capacity();
        let crc = sidecar(data);
        assert_eq!(crc, store.root().join("disk1").join("f00000042.crc"));
        assert_eq!(
            crc.capacity(),
            capacity,
            "the sidecar path reuses its buffer"
        );
        let _ = fs::remove_dir_all(store.root());
        Ok(())
    }

    #[test]
    fn reads_into_a_reused_buffer() -> io::Result<()> {
        let store = FileStore::create(tmp(), 1)?;
        let mut buf = Vec::new();
        store.create_file_with(0, 1, 4096, &mut buf)?;
        store.create_file_with(0, 2, 100, &mut buf)?;
        assert_eq!(store.prefetch_with(0, 1, &mut buf)?, 4096);
        store.read_data_into(0, 1, &mut buf)?;
        assert!(verify_pattern(1, &buf));
        let grown = buf.capacity();
        store.read_data_into(0, 2, &mut buf)?;
        assert!(
            verify_pattern(2, &buf),
            "a shorter file must not keep old bytes"
        );
        store.read_buffer_into(1, &mut buf)?;
        assert!(verify_pattern(1, &buf));
        assert_eq!(buf.capacity(), grown, "the buffer is reused, not regrown");
        store.corrupt_data(0, 2, 10)?;
        expect_invalid(store.read_data_into(0, 2, &mut buf), "read of corrupt file")?;
        let _ = fs::remove_dir_all(store.root());
        Ok(())
    }

    #[test]
    fn missing_file_is_io_error() -> io::Result<()> {
        let store = FileStore::create(tmp(), 1)?;
        assert!(store.read_data(0, 999).is_err());
        assert!(store.read_data(1, 0).is_err(), "a disk the store lacks");
        assert_eq!(store.data_size(1, 0), None);
        assert!(store.read_buffer(999).is_err());
        let _ = fs::remove_dir_all(store.root());
        Ok(())
    }
}
