//! Storage-node daemon.
//!
//! One thread per node, serving its control connection sequentially (the
//! node side of the paper's per-node server thread). The node owns:
//!
//! * a [`FileStore`] — real files under `disk*/` and `buffer/`,
//! * one `disk_model::Disk` per drive — the same power/energy state
//!   machine the simulator uses, driven here in virtual time,
//! * a buffer catalog (reusing `eevfs::buffer::BufferCatalog`),
//! * the paper's power plane (§III-C, §IV-C), built by
//!   [`eevfs::power::paper_plane`] exactly as the simulator builds it.
//!
//! A `Get` is answered by pushing the file to the client over one
//! persistent push connection per client port, then acking the server
//! (see `NodeState::push`).
//!
//! ## Power
//!
//! When the hints arrive on a node that prefetches, each data disk gets a
//! hint-driven predictor over its expected physical touches: the pattern
//! entries whose file lives on that disk and is not in the buffer
//! catalog. Whenever a disk goes idle — after each access, and at the
//! hints themselves — the plane rules on it: sleep at once when no touch
//! is expected for at least the idle threshold, otherwise stay up. The
//! node runs no timers, so a ruling is held as a pending sleep instant
//! and applied at the disk's next access or at the next stats snapshot.
//! An access that finds its disk asleep *really waits* the (scaled)
//! spin-up, so wake penalties show up in measured response times, like
//! the paper's §VI-C. Without prefetching the plane never engages.
//!
//! ## Crash recovery
//!
//! Every metadata mutation (file created, file prefetched, write absorbed
//! by the buffer) is appended to a journal file under the node root —
//! the runtime analogue of the simulator's buffer-disk WAL. A daemon
//! spawned over an existing root replays the journal (truncating any torn
//! or corrupt tail) and recovers its file map, buffer catalog, and
//! power-management arming without any help from the server; the server
//! only needs to re-send the soft-state hints (see `Message::Register`).

use crate::clock::VirtualClock;
use crate::proto::{
    read_message, write_file_data, write_message, CodecError, Message, StatsCounters,
};
use crate::store::FileStore;
use crate::transport::no_delay;
use disk_model::perf::AccessKind;
use disk_model::{breakeven_time, CompletionInfo, Disk, DiskSpec};
use eevfs::buffer::BufferCatalog;
use eevfs::config::PowerPolicy;
use eevfs::journal::{self, Journal, JournalRecord};
use eevfs::overload::shed_code;
use eevfs::power::{paper_plane, IdleVerdict, PolicyPlane, PowerRule};
use sim_core::{SimDuration, SimTime};
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::thread::JoinHandle;

/// Configuration for one node daemon.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Node directory for the file store.
    pub root: std::path::PathBuf,
    /// Number of data disks.
    pub data_disks: usize,
    /// Drive model for power accounting.
    pub disk_spec: DiskSpec,
    /// Idle threshold in virtual time.
    pub idle_threshold: SimDuration,
    /// Shared virtual clock.
    pub clock: VirtualClock,
}

/// A node's data disks under the paper's power plane. Every time here is
/// an explicit virtual time, so the power path replays deterministically
/// apart from the clock that feeds it.
struct DataDisks {
    disks: Vec<Disk>,
    idle_threshold: SimDuration,
    /// The plane of a node whose hints have arrived while it prefetches;
    /// `None` before that, and always under NPF.
    plane: Option<PolicyPlane>,
    /// Files whose physical accesses the hints expect; each such access
    /// consumes its disk's next expected touch.
    expected: HashSet<u32>,
    /// The instant each disk's last ruling puts it to sleep, applied at
    /// its next access or stats snapshot.
    sleep_at: Vec<Option<SimTime>>,
}

impl DataDisks {
    fn new(count: usize, spec: &DiskSpec, idle_threshold: SimDuration) -> DataDisks {
        DataDisks {
            disks: (0..count).map(|_| Disk::new(spec.clone())).collect(),
            idle_threshold,
            plane: None,
            expected: HashSet::new(),
            sleep_at: vec![None; count],
        }
    }

    /// Step 4: builds the plane from the hinted pattern, as the simulator
    /// does, and rules on every disk. `disk_of` names the data disk a
    /// pattern file's access physically touches, or `None` when the
    /// buffer serves it. The pattern clock starts at `now`.
    fn hint(
        &mut self,
        now: SimTime,
        pattern: &[(u64, u32)],
        disk_of: impl Fn(u32) -> Option<usize>,
        prefetch_active: bool,
    ) {
        // A repeated hint keeps the sleeps the previous plane decided.
        for d in 0..self.disks.len() {
            self.settle(d, now);
        }
        let mut touches = vec![Vec::new(); self.disks.len()];
        self.expected.clear();
        for &(at, file) in pattern {
            if let Some(d) = disk_of(file) {
                touches[d].push(SimTime::from_micros(at));
                self.expected.insert(file);
            }
        }
        let rule = PowerRule {
            policy: PowerPolicy::PrefetchAware,
            hints: true,
            idle_threshold: self.idle_threshold,
        };
        let breakeven = [self
            .disks
            .iter()
            .map(|d| breakeven_time(d.spec()))
            .collect()];
        // The node has no energy model, so a prefetching node always
        // finds sleeping worthwhile.
        let (mut plane, engaged) =
            paper_plane(rule, prefetch_active, true, &breakeven, || vec![touches]);
        plane.set_drift(now.since(SimTime::ZERO));
        self.plane = engaged.then_some(plane);
        for d in 0..self.disks.len() {
            let onset = self.disks[d].busy_until().max(now);
            self.decide(d, onset);
        }
    }

    /// Asks the plane about disk `d`, idle from `onset`, and records when
    /// it sleeps.
    fn decide(&mut self, d: usize, onset: SimTime) {
        let Some(plane) = self.plane.as_mut() else {
            return;
        };
        // Nothing reaches the predictor before a timer would fire, so its
        // veto on the timer can be asked now.
        self.sleep_at[d] = match plane.on_idle(0, d, onset) {
            IdleVerdict::SleepNow => Some(onset),
            IdleVerdict::After(wait) => plane.timer_allows_sleep(0, d).then(|| onset + wait),
            IdleVerdict::Stay => None,
        };
    }

    /// Applies disk `d`'s pending sleep if its instant is before `now`.
    fn settle(&mut self, d: usize, now: SimTime) {
        let (Some(at), Some(plane)) = (self.sleep_at[d], self.plane.as_mut()) else {
            return;
        };
        if at >= now {
            return;
        }
        self.sleep_at[d] = None;
        let disk = &mut self.disks[d];
        if disk.is_idle(at) && plane.try_charge_spin(0, d) {
            disk.sleep(at);
        }
    }

    /// One physical access of `bytes` to `file` on disk `d`, arriving at
    /// `now`: applies the pending sleep it ends, consumes the expected
    /// touch it is, and rules on the idle period it opens.
    fn access(
        &mut self,
        d: usize,
        file: u32,
        now: SimTime,
        bytes: u64,
        kind: AccessKind,
    ) -> CompletionInfo {
        self.settle(d, now);
        if let Some(plane) = self.plane.as_mut() {
            if self.expected.contains(&file) {
                plane.on_expected_touch(0, d);
            }
        }
        let comp = self.disks[d].submit(now, bytes, kind);
        self.decide(d, comp.finish);
        comp
    }

    /// Settles every disk to `now`, pending sleeps first; returns the
    /// disks' joules, spin-ups and spin-downs so far.
    fn finalize(&mut self, now: SimTime) -> (f64, u64, u64) {
        let (mut joules, mut ups, mut downs) = (0.0, 0, 0);
        for d in 0..self.disks.len() {
            self.settle(d, now);
            let disk = &mut self.disks[d];
            disk.finalize(now);
            joules += disk.total_joules();
            ups += disk.transitions().spin_ups;
            downs += disk.transitions().spin_downs;
        }
        (joules, ups, downs)
    }
}

struct NodeState {
    store: FileStore,
    clock: VirtualClock,
    disk_of_file: HashMap<u32, usize>,
    size_of_file: HashMap<u32, u64>,
    catalog: BufferCatalog,
    data_disks: DataDisks,
    buffer_disk: Disk,
    /// The power plane engages once prefetching has populated the buffer.
    power_enabled: bool,
    /// Fault injection: physical accesses to a failed disk return io
    /// errors until it is repaired. Buffered copies keep serving.
    failed_disks: Vec<bool>,
    /// In-memory mirror of the on-disk journal (append order preserved).
    journal: Journal,
    /// Journal file under the node root (the buffer disk's WAL).
    journal_path: PathBuf,
    /// 1 when this daemon recovered state by replaying a journal at boot.
    journal_replays: u64,
    /// Checksum mismatches caught on data-disk reads and prefetches.
    corruptions_detected: u64,
    /// Cluster brownout level pushed by the server. At level ≥ 1 the node
    /// serves buffer-disk content only: a `Get` that would have to wake a
    /// data disk is refused with `Busy` instead.
    brownout: u8,
    /// One persistent push connection per client callback port.
    pushes: HashMap<u16, TcpStream>,
    /// File contents in transit: every file the node creates, prefetches
    /// or serves passes through this one buffer, reused across requests,
    /// so the node allocates only when a file is larger than any before.
    payload: Vec<u8>,
}

impl NodeState {
    fn new(cfg: &NodeConfig) -> std::io::Result<NodeState> {
        let store = FileStore::create(&cfg.root, cfg.data_disks)?;
        let journal_path = cfg.root.join("journal.log");
        let mut state = NodeState {
            store,
            clock: cfg.clock.clone(),
            disk_of_file: HashMap::new(),
            size_of_file: HashMap::new(),
            catalog: BufferCatalog::new(cfg.disk_spec.capacity_bytes),
            data_disks: DataDisks::new(cfg.data_disks, &cfg.disk_spec, cfg.idle_threshold),
            buffer_disk: Disk::new(cfg.disk_spec.clone()),
            power_enabled: false,
            failed_disks: vec![false; cfg.data_disks],
            journal: Journal::new(),
            journal_path,
            journal_replays: 0,
            corruptions_detected: 0,
            brownout: 0,
            pushes: HashMap::new(),
            payload: Vec::new(),
        };
        if let Ok(bytes) = std::fs::read(&state.journal_path) {
            state.replay_journal(&bytes)?;
        }
        Ok(state)
    }

    /// Recovers metadata from journal bytes found at boot: file map,
    /// buffer catalog, and power-management arming. The journal is
    /// rewritten with only its intact prefix, so a torn tail from the
    /// crash cannot confuse the *next* replay either.
    fn replay_journal(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let replayed = journal::replay(bytes);
        for rec in &replayed.records {
            match *rec {
                JournalRecord::Create { file, size, disk } => {
                    // `CreateFile` refuses such a disk, so a record naming
                    // one is damage the CRC did not catch; serving it would
                    // index past the node's data disks.
                    if disk as usize >= self.store.data_disks() {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!(
                                "journal creates file {file} on data disk {disk}, \
                                 but the node has {}",
                                self.store.data_disks()
                            ),
                        ));
                    }
                    self.disk_of_file.insert(file, disk as usize);
                    self.size_of_file.insert(file, size);
                }
                JournalRecord::Prefetch { file } => {
                    let size = self.size_of_file.get(&file).copied().unwrap_or(0);
                    // Same capacity as before the crash, so this cannot
                    // fail; if it somehow does, the file just degrades to
                    // data-disk reads.
                    let _ = self
                        .catalog
                        .insert_pinned(workload::record::FileId(file), size);
                    self.power_enabled = true;
                }
                JournalRecord::BufferWrite { file } => {
                    let size = self.size_of_file.get(&file).copied().unwrap_or(0);
                    let _ = self
                        .catalog
                        .buffer_write(workload::record::FileId(file), size);
                }
                // Placement records are server-side; a node journal never
                // holds them, and one in a damaged journal is ignored.
                JournalRecord::Placement { .. } => {}
            }
            self.journal.append(rec);
        }
        self.journal.mark_fsync();
        if !replayed.clean {
            std::fs::write(&self.journal_path, self.journal.bytes())?;
        }
        self.journal_replays = 1;
        Ok(())
    }

    /// Appends one record to the journal — in memory and durably on disk
    /// — after the action it describes has completed (a redo log: replay
    /// never references files that were not yet materialised).
    fn journal_append(&mut self, rec: JournalRecord) -> std::io::Result<()> {
        self.journal.append(&rec);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.journal_path)?;
        f.write_all(&journal::encode(&[rec]))?;
        f.sync_data()?;
        self.journal.mark_fsync();
        Ok(())
    }

    /// Funnels a store error into a reply code, counting checksum
    /// mismatches (`InvalidData` from the CRC sidecar check) on the way.
    fn store_error(&mut self, e: &std::io::Error) -> Message {
        if e.kind() == std::io::ErrorKind::InvalidData {
            self.corruptions_detected += 1;
        }
        Message::Err { code: 2 }
    }

    /// Accounts a physical access of `file` on a data disk and *really
    /// waits* out the scaled service (and any spin-up).
    fn access_data_disk(&mut self, disk: usize, file: u32, bytes: u64) {
        let now = self.clock.now();
        let comp = self
            .data_disks
            .access(disk, file, now, bytes, AccessKind::Random);
        self.clock.sleep_virtual(comp.finish - now);
    }

    /// Accounts a buffer-disk access and waits out the scaled service.
    fn access_buffer_disk(&mut self, bytes: u64, kind: AccessKind) {
        let now = self.clock.now();
        let comp = self.buffer_disk.submit(now, bytes, kind);
        self.clock.sleep_virtual(comp.finish - now);
    }

    /// Step 6: pushes `payload` to the client listening on `client_port`,
    /// over the persistent connection to that port, before the node acks
    /// the server. A connection is opened on the first push and reused.
    /// One that the client has closed is replaced, so a new client that
    /// re-binds the port never loses a push to its predecessor's socket.
    /// A failed write gets one fresh connection; a second failure (the
    /// client is gone) is contained as an io-error reply rather than
    /// tearing down the control connection.
    fn push(&mut self, client_port: u16, req_id: u64, file: u32) -> Message {
        for _ in 0..2 {
            let mut conn = match self.pushes.remove(&client_port).filter(still_open) {
                Some(conn) => conn,
                None => {
                    // Connects are rare: forget every client that has gone.
                    self.pushes.retain(|_, conn| still_open(conn));
                    let addr = SocketAddr::from(([127, 0, 0, 1], client_port));
                    match TcpStream::connect(addr).and_then(no_delay) {
                        Ok(conn) => conn,
                        Err(_) => return Message::Err { code: 2 },
                    }
                }
            };
            if write_file_data(&mut conn, req_id, file, &self.payload).is_ok() {
                self.pushes.insert(client_port, conn);
                return Message::Ok;
            }
        }
        Message::Err { code: 2 }
    }

    /// Retry hint quoted in `Busy` replies: long enough for a brownout
    /// observation window to elapse at the server, short enough that a
    /// polite client retries within the same campaign.
    const RETRY_AFTER_US: u64 = 10_000;

    fn handle(&mut self, msg: Message, arrived: std::time::Instant) -> Result<Message, CodecError> {
        match msg {
            Message::CreateFile { file, size, disk } => {
                let disk = disk as usize;
                if disk >= self.store.data_disks() {
                    return Ok(Message::Err { code: 3 });
                }
                match self
                    .store
                    .create_file_with(disk, file, size, &mut self.payload)
                {
                    Ok(()) => {
                        self.disk_of_file.insert(file, disk);
                        self.size_of_file.insert(file, size);
                        if self
                            .journal_append(JournalRecord::Create {
                                file,
                                size,
                                disk: disk as u32,
                            })
                            .is_err()
                        {
                            return Ok(Message::Err { code: 2 });
                        }
                        let now = self.clock.now();
                        self.data_disks
                            .access(disk, file, now, size, AccessKind::Sequential);
                        Ok(Message::Ok)
                    }
                    Err(_) => Ok(Message::Err { code: 2 }),
                }
            }
            Message::Prefetch { files } => {
                for file in files {
                    let Some(&disk) = self.disk_of_file.get(&file) else {
                        return Ok(Message::Err { code: 1 });
                    };
                    let size = self.size_of_file[&file];
                    if self.failed_disks[disk] {
                        return Ok(Message::Err { code: 2 });
                    }
                    if let Err(e) = self.store.prefetch_with(disk, file, &mut self.payload) {
                        return Ok(self.store_error(&e));
                    }
                    // Read off the data disk, append to the buffer log.
                    let now = self.clock.now();
                    self.data_disks
                        .access(disk, file, now, size, AccessKind::Random);
                    self.access_buffer_disk(size, AccessKind::Sequential);
                    if self
                        .catalog
                        .insert_pinned(workload::record::FileId(file), size)
                        .is_err()
                        || self
                            .journal_append(JournalRecord::Prefetch { file })
                            .is_err()
                    {
                        return Ok(Message::Err { code: 2 });
                    }
                    self.power_enabled = true;
                }
                Ok(Message::Ok)
            }
            Message::Hints { pattern } => {
                let (disk_of_file, catalog) = (&self.disk_of_file, &self.catalog);
                let physical = |file: u32| {
                    let disk = disk_of_file.get(&file).copied();
                    disk.filter(|_| !catalog.contains(workload::record::FileId(file)))
                };
                let now = self.clock.now();
                self.data_disks
                    .hint(now, &pattern, physical, self.power_enabled);
                Ok(Message::Ok)
            }
            Message::Get {
                req_id,
                file,
                client_port,
                deadline_us,
                priority: _,
            } => {
                // Pre-service deadline check: the budget the server
                // forwarded is what remains after its own hops; if it has
                // already drained by the time this node gets to the frame,
                // serving would only waste a disk access on a reply the
                // client will discard.
                if deadline_us > 0 && arrived.elapsed().as_micros() as u64 >= deadline_us {
                    return Ok(Message::Shed {
                        req_id,
                        code: shed_code::DEADLINE,
                        level: self.brownout,
                    });
                }
                let fid = workload::record::FileId(file);
                let Some(&disk) = self.disk_of_file.get(&file) else {
                    return Ok(Message::Err { code: 1 });
                };
                let size = self.size_of_file[&file];
                let read = if self.catalog.lookup(fid) {
                    self.access_buffer_disk(size, AccessKind::Random);
                    self.store.read_buffer_into(file, &mut self.payload)
                } else if self.brownout >= 1 {
                    // Brownout L1+: buffer-disk-only serving. A miss would
                    // spin up a data disk — exactly the energy spike the
                    // ladder exists to suppress — so refuse it instead.
                    return Ok(Message::Busy {
                        retry_after_us: Self::RETRY_AFTER_US,
                        level: self.brownout,
                    });
                } else if self.failed_disks[disk] {
                    return Ok(Message::Err { code: 2 });
                } else {
                    self.access_data_disk(disk, file, size);
                    self.store.read_data_into(disk, file, &mut self.payload)
                };
                if let Err(e) = read {
                    return Ok(self.store_error(&e));
                }
                Ok(self.push(client_port, req_id, file))
            }
            Message::Put {
                req_id,
                file,
                client_port,
                deadline_us,
                priority: _,
            } => {
                if deadline_us > 0 && arrived.elapsed().as_micros() as u64 >= deadline_us {
                    return Ok(Message::Shed {
                        req_id,
                        code: shed_code::DEADLINE,
                        level: self.brownout,
                    });
                }
                let fid = workload::record::FileId(file);
                let Some(&disk) = self.disk_of_file.get(&file) else {
                    return Ok(Message::Err { code: 1 });
                };
                let size = self.size_of_file[&file];
                // Pull the payload from the client (reverse push). Like
                // the Get push, callback failures are contained as error
                // replies rather than control-connection teardown.
                let addr = SocketAddr::from(([127, 0, 0, 1], client_port));
                let Ok(mut conn) = TcpStream::connect(addr).and_then(no_delay) else {
                    return Ok(Message::Err { code: 2 });
                };
                let data = match read_message(&mut conn) {
                    Ok(Message::FileData {
                        req_id: got_id,
                        file: got,
                        data,
                    }) if got == file && got_id == req_id => data,
                    Ok(_) => return Ok(Message::Err { code: 3 }),
                    Err(_) => return Ok(Message::Err { code: 2 }),
                };
                if data.len() as u64 != size {
                    return Ok(Message::Err { code: 3 });
                }
                // §III-C: absorb the write in the buffer area when it fits;
                // it stays dirty there (the prototype does not destage).
                if self.catalog.buffer_write(fid, size).is_ok() {
                    if self.store.write_buffer_file(file, &data).is_err()
                        || self
                            .journal_append(JournalRecord::BufferWrite { file })
                            .is_err()
                    {
                        return Ok(Message::Err { code: 2 });
                    }
                    self.access_buffer_disk(size, AccessKind::Sequential);
                } else {
                    if self.failed_disks[disk] || self.store.write_data(disk, file, &data).is_err()
                    {
                        return Ok(Message::Err { code: 2 });
                    }
                    self.access_data_disk(disk, file, size);
                }
                Ok(Message::Ok)
            }
            Message::StatsRequest => {
                let now = self.clock.now();
                let (mut joules, ups, downs) = self.data_disks.finalize(now);
                self.buffer_disk.finalize(now);
                joules += self.buffer_disk.total_joules();
                // The resilience and overload-ledger counters are
                // server-side; nodes report zeros and the server adds its
                // own when aggregating.
                Ok(Message::Stats {
                    counters: StatsCounters {
                        disk_joules: joules,
                        spin_ups: ups,
                        spin_downs: downs,
                        hits: self.catalog.hits(),
                        misses: self.catalog.misses(),
                        journal_replays: self.journal_replays,
                        corruptions_detected: self.corruptions_detected,
                        ..StatsCounters::default()
                    },
                })
            }
            Message::Brownout { level } => {
                self.brownout = level;
                Ok(Message::Ok)
            }
            Message::FailDisk { disk, .. } => {
                let disk = disk as usize;
                if disk >= self.failed_disks.len() {
                    return Ok(Message::Err { code: 3 });
                }
                self.failed_disks[disk] = true;
                Ok(Message::Ok)
            }
            Message::RepairDisk { disk, .. } => {
                let disk = disk as usize;
                if disk >= self.failed_disks.len() {
                    return Ok(Message::Err { code: 3 });
                }
                self.failed_disks[disk] = false;
                Ok(Message::Ok)
            }
            Message::Shutdown => Ok(Message::Shutdown),
            other => {
                let _ = other;
                Ok(Message::Err { code: 3 })
            }
        }
    }
}

/// True unless the peer has closed (or reset) a push connection. Clients
/// never write on one, so a non-blocking peek that would block is the one
/// healthy answer.
fn still_open(conn: &TcpStream) -> bool {
    let mut probe = [0u8; 1];
    let idle = conn.set_nonblocking(true).is_ok()
        && matches!(conn.peek(&mut probe), Err(e) if e.kind() == std::io::ErrorKind::WouldBlock);
    conn.set_nonblocking(false).is_ok() && idle
}

/// A running node daemon.
pub struct NodeDaemon {
    /// Address the control listener is bound to.
    pub addr: SocketAddr,
    handle: JoinHandle<()>,
}

impl NodeDaemon {
    /// Spawns the daemon; returns once its listener is bound.
    pub fn spawn(cfg: NodeConfig) -> std::io::Result<NodeDaemon> {
        let mut state = NodeState::new(&cfg)?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let handle = std::thread::Builder::new()
            .name(format!("eevfs-node-{}", addr.port()))
            .spawn(move || {
                // Serve control connections sequentially until Shutdown.
                'outer: for stream in listener.incoming() {
                    let Ok(mut stream) = stream.and_then(no_delay) else {
                        continue;
                    };
                    // A read error means the peer closed; await next conn.
                    while let Ok(msg) = read_message(&mut stream) {
                        // Deadline budgets are measured from the moment the
                        // frame left the wire, so queueing inside handle()
                        // counts against the remaining budget.
                        let arrived = std::time::Instant::now();
                        let is_shutdown = matches!(msg, Message::Shutdown);
                        match state.handle(msg, arrived) {
                            Ok(reply) => {
                                if write_message(&mut stream, &reply).is_err() {
                                    break;
                                }
                            }
                            Err(_) => break,
                        }
                        if is_shutdown {
                            break 'outer;
                        }
                    }
                }
            })?;
        Ok(NodeDaemon { addr, handle })
    }

    /// True once the daemon thread has exited (e.g. after a Shutdown).
    pub fn is_finished(&self) -> bool {
        self.handle.is_finished()
    }

    /// Waits for the daemon thread to exit (after a Shutdown message).
    pub fn join(self) {
        let _ = self.handle.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::FileDataPayload;
    use crate::store::verify_pattern;

    fn test_cfg(name: &str) -> NodeConfig {
        let root =
            std::env::temp_dir().join(format!("eevfs-node-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        NodeConfig {
            root,
            data_disks: 2,
            disk_spec: DiskSpec::ata133_type1(),
            idle_threshold: SimDuration::from_secs(5),
            clock: VirtualClock::start(10_000.0),
        }
    }

    fn rpc(stream: &mut TcpStream, msg: &Message) -> Message {
        write_message(stream, msg).expect("write");
        read_message(stream).expect("read")
    }

    /// Accepts the node's push connection, failing the test rather than
    /// hanging if the node never opens one.
    fn accept_within_10s(listener: &TcpListener) -> TcpStream {
        listener.set_nonblocking(true).expect("nonblocking");
        let until = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            match listener.accept() {
                Ok((push, _)) => {
                    push.set_nonblocking(false).expect("blocking");
                    return push;
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        && std::time::Instant::now() < until =>
                {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Err(e) => panic!("the node opened no push connection: {e}"),
            }
        }
    }

    /// The client end of the push path: one callback listener, and the
    /// push connection a node opens to it on its first push.
    struct Inbox {
        listener: TcpListener,
        push: Option<TcpStream>,
    }

    impl Inbox {
        fn bind() -> Inbox {
            Inbox {
                listener: TcpListener::bind("127.0.0.1:0").expect("client listener"),
                push: None,
            }
        }

        fn port(&self) -> u16 {
            self.listener.local_addr().expect("addr").port()
        }

        /// Sends a `Get` quoting this inbox, then returns the node's push
        /// and its ack to the control connection.
        fn get(
            &mut self,
            ctl: &mut TcpStream,
            req_id: u64,
            file: u32,
        ) -> (FileDataPayload, Message) {
            let get = Message::Get {
                req_id,
                file,
                client_port: self.port(),
                deadline_us: 0,
                priority: 3,
            };
            write_message(ctl, &get).expect("send");
            let listener = &self.listener;
            let push = self.push.get_or_insert_with(|| accept_within_10s(listener));
            let fd = read_message(push)
                .expect("read push")
                .into_file_data()
                .expect("push frame");
            (fd, read_message(ctl).expect("ack"))
        }
    }

    /// The simulator's side of the power protocol, as `eevfs::driver`
    /// runs it: each access consumes its expected touch and arms a sleep
    /// check at the disk's idle onset; the check asks the plane and
    /// sleeps, or re-checks after a timer. The hints event arms the first
    /// checks, as the driver's end of warm-up does.
    mod des {
        use super::*;
        use sim_core::{Engine, EventQueue, Model};

        pub enum Ev {
            Hints,
            Access {
                disk: usize,
                file: u32,
                bytes: u64,
            },
            Check {
                disk: usize,
                generation: u64,
                armed: bool,
            },
        }

        pub struct Des {
            pub disks: Vec<Disk>,
            pub plane: PolicyPlane,
            pub expected: HashSet<u32>,
            pub engaged: bool,
        }

        impl Des {
            fn arm(&self, d: usize, queue: &mut EventQueue<Ev>) {
                let disk = &self.disks[d];
                let check = Ev::Check {
                    disk: d,
                    generation: disk.generation(),
                    armed: false,
                };
                queue.schedule(disk.busy_until().max(queue.now()), check);
            }
        }

        impl Model for Des {
            type Event = Ev;

            fn handle(&mut self, now: SimTime, ev: Ev, queue: &mut EventQueue<Ev>) {
                match ev {
                    Ev::Hints => {
                        self.plane.set_drift(now.since(SimTime::ZERO));
                        self.engaged = true;
                        for d in 0..self.disks.len() {
                            self.arm(d, queue);
                        }
                    }
                    Ev::Access { disk, file, bytes } => {
                        if self.expected.contains(&file) {
                            self.plane.on_expected_touch(0, disk);
                        }
                        self.disks[disk].submit(now, bytes, AccessKind::Random);
                        if self.engaged {
                            self.arm(disk, queue);
                        }
                    }
                    Ev::Check {
                        disk,
                        generation,
                        armed,
                    } => {
                        let d = &self.disks[disk];
                        if d.generation() != generation || !d.is_idle(now) {
                            return;
                        }
                        let sleep = if armed {
                            self.plane.timer_allows_sleep(0, disk)
                        } else {
                            match self.plane.on_idle(0, disk, now) {
                                IdleVerdict::SleepNow => true,
                                IdleVerdict::After(wait) => {
                                    let check = Ev::Check {
                                        disk,
                                        generation,
                                        armed: true,
                                    };
                                    queue.schedule(now + wait, check);
                                    false
                                }
                                IdleVerdict::Stay => false,
                            }
                        };
                        if sleep && self.plane.try_charge_spin(0, disk) {
                            self.disks[disk].sleep(now);
                        }
                    }
                }
            }
        }

        pub fn run(model: Des, events: Vec<(SimTime, Ev)>) -> Des {
            let mut engine = Engine::new(model);
            for (at, ev) in events {
                engine.queue_mut().schedule(at, ev);
            }
            engine.run();
            engine.into_model()
        }
    }

    /// Where a disk's state log shows it starting to spin down.
    fn sleeps(disk: &Disk) -> Vec<SimTime> {
        let log = disk.meter().state_log();
        log.iter()
            .filter(|&&(_, _, to)| to == disk_model::PowerState::SpinningDown)
            .map(|&(at, _, _)| at)
            .collect()
    }

    /// One hints pattern and one scripted list of data-disk accesses,
    /// replayed through the node's power path and through the
    /// simulator's protocol over a `paper_plane` built from the paper's
    /// configuration, at the same explicit virtual times: every disk
    /// sleeps at the same instants and spins up as often.
    ///
    /// * Disk 0 expects no touch: it sleeps at the hints, and again as
    ///   soon as an unhinted read has woken it.
    /// * Disk 1's next touch is always at least the threshold away: it
    ///   sleeps at each idle onset (after a prefetch that outlasts the
    ///   hints, at the prefetch's end).
    /// * Disk 2's next touch is less than the threshold away, then
    ///   overdue: it stays up until its last expected touch has come.
    #[test]
    fn node_power_rule_matches_the_des_plane() {
        // Times in milliseconds; the pattern carries microseconds.
        let ms = SimTime::from_millis;
        let at = |ms: u64| ms * 1000;
        let hints = ms(100_000);
        let bytes = 58_000;
        // File 10 lives on disk 0, 20 on disk 1, 30 and the buffered 40
        // on disk 2; file 5 is a prefetch read on disk 1.
        let pattern = vec![
            (at(1_000), 40),
            (at(3_000), 30),
            (at(8_000), 30),
            (at(9_005), 30),
            (at(20_000), 20),
            (at(40_000), 20),
        ];
        let physical = |file: u32| match file {
            10 => Some(0),
            20 => Some(1),
            30 => Some(2),
            _ => None,
        };
        let accesses = [
            (99_995, 1, 5),
            (103_000, 2, 30),
            (109_000, 2, 30),
            (109_500, 2, 30),
            (120_000, 1, 20),
            (130_000, 0, 10),
            (140_000, 1, 20),
        ];
        let end = ms(160_000);
        let spec = DiskSpec::ata133_type1();
        let mut cfg = eevfs::EevfsConfig::paper_pf(8);
        cfg.idle_threshold = SimDuration::from_secs(5);

        let mut node = DataDisks::new(3, &spec, cfg.idle_threshold);
        node.disks.iter_mut().for_each(Disk::enable_state_log);
        let mut finish = HashMap::new();
        for &(t, disk, file) in &accesses {
            if ms(t) > hints && node.plane.is_none() {
                node.hint(hints, &pattern, physical, true);
            }
            let comp = node.access(disk, file, ms(t), bytes, AccessKind::Random);
            finish.insert(t, comp.finish);
        }
        let (node_joules, node_ups, node_downs) = node.finalize(end);

        let touches = vec![vec![
            Vec::new(),
            vec![ms(20_000), ms(40_000)],
            vec![ms(3_000), ms(8_000), ms(9_005)],
        ]];
        let breakeven = [vec![disk_model::breakeven_time(&spec); 3]];
        let (plane, engaged) = paper_plane(&cfg, true, true, &breakeven, || touches);
        assert!(engaged);
        let mut disks: Vec<Disk> = (0..3).map(|_| Disk::new(spec.clone())).collect();
        disks.iter_mut().for_each(Disk::enable_state_log);
        let model = des::Des {
            disks,
            plane,
            expected: HashSet::from([20, 30]),
            engaged: false,
        };
        let mut events = vec![(hints, des::Ev::Hints)];
        events.extend(
            accesses
                .iter()
                .map(|&(t, disk, file)| (ms(t), des::Ev::Access { disk, file, bytes })),
        );
        let mut sim = des::run(model, events);
        let (mut sim_joules, mut sim_ups, mut sim_downs) = (0.0, 0, 0);
        for disk in &mut sim.disks {
            disk.finalize(end);
            sim_joules += disk.total_joules();
            sim_ups += disk.transitions().spin_ups;
            sim_downs += disk.transitions().spin_downs;
        }

        let done = |t: u64| finish[&t];
        let node_sleeps: Vec<_> = node.disks.iter().map(sleeps).collect();
        assert_eq!(node_sleeps[0], vec![hints, done(130_000)]);
        assert_eq!(
            node_sleeps[1],
            vec![done(99_995), done(120_000), done(140_000)]
        );
        assert_eq!(node_sleeps[2], vec![done(109_500)]);
        assert!(done(99_995) > hints, "the prefetch outlasts the hints");
        let sim_sleeps: Vec<_> = sim.disks.iter().map(sleeps).collect();
        assert_eq!(node_sleeps, sim_sleeps);
        for (n, d) in node.disks.iter().zip(&sim.disks) {
            assert_eq!(n.meter().state_log(), d.meter().state_log());
        }
        assert_eq!((node_ups, node_downs), (3, 6));
        assert_eq!((node_ups, node_downs), (sim_ups, sim_downs));
        assert_eq!(node_joules.to_bits(), sim_joules.to_bits());
    }

    #[test]
    fn create_prefetch_get_end_to_end() {
        let cfg = test_cfg("e2e");
        let root = cfg.root.clone();
        let node = NodeDaemon::spawn(cfg).expect("spawn");
        let mut ctl = TcpStream::connect(node.addr).expect("connect");

        assert_eq!(
            rpc(
                &mut ctl,
                &Message::CreateFile {
                    file: 1,
                    size: 4096,
                    disk: 0
                }
            ),
            Message::Ok
        );
        assert_eq!(
            rpc(
                &mut ctl,
                &Message::CreateFile {
                    file: 2,
                    size: 2048,
                    disk: 1
                }
            ),
            Message::Ok
        );
        assert_eq!(
            rpc(&mut ctl, &Message::Prefetch { files: vec![1] }),
            Message::Ok
        );

        // Fetch file 2 (a data-disk miss) via the push-to-client path.
        let (fd, ack) = Inbox::bind().get(&mut ctl, 31, 2);
        assert_eq!(fd.req_id, 31, "node must echo the request id");
        assert_eq!(fd.file, 2);
        assert_eq!(fd.data.len(), 2048);
        assert!(verify_pattern(2, &fd.data));
        assert_eq!(ack, Message::Ok);

        // Stats reflect the buffer state: one prefetch, one miss.
        let stats = rpc(&mut ctl, &Message::StatsRequest)
            .into_stats()
            .expect("stats reply");
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 1);
        assert!(stats.disk_joules > 0.0);

        assert_eq!(rpc(&mut ctl, &Message::Shutdown), Message::Shutdown);
        node.join();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn buffer_hit_after_prefetch() {
        let cfg = test_cfg("hit");
        let root = cfg.root.clone();
        let node = NodeDaemon::spawn(cfg).expect("spawn");
        let mut ctl = TcpStream::connect(node.addr).expect("connect");
        rpc(
            &mut ctl,
            &Message::CreateFile {
                file: 9,
                size: 1000,
                disk: 0,
            },
        );
        rpc(&mut ctl, &Message::Prefetch { files: vec![9] });

        let (fd, ack) = Inbox::bind().get(&mut ctl, 1, 9);
        assert_eq!((fd.file, ack), (9, Message::Ok));

        let stats = rpc(&mut ctl, &Message::StatsRequest)
            .into_stats()
            .expect("stats reply");
        assert_eq!((stats.hits, stats.misses), (1, 0));
        rpc(&mut ctl, &Message::Shutdown);
        node.join();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn restart_replays_the_journal() {
        let cfg = test_cfg("journal");
        let root = cfg.root.clone();
        let node = NodeDaemon::spawn(cfg.clone()).expect("spawn");
        let mut ctl = TcpStream::connect(node.addr).expect("connect");
        for (file, disk) in [(1u32, 0u32), (2, 1)] {
            assert_eq!(
                rpc(
                    &mut ctl,
                    &Message::CreateFile {
                        file,
                        size: 1024,
                        disk
                    }
                ),
                Message::Ok
            );
        }
        assert_eq!(
            rpc(&mut ctl, &Message::Prefetch { files: vec![1] }),
            Message::Ok
        );
        rpc(&mut ctl, &Message::Shutdown);
        node.join();

        // A fresh daemon over the same root learns everything from the
        // journal: no CreateFile/Prefetch is re-sent, yet both files
        // serve — file 1 from the recovered buffer catalog, file 2 from
        // its (checksum-verified) data disk.
        let node = NodeDaemon::spawn(cfg).expect("respawn");
        let mut ctl = TcpStream::connect(node.addr).expect("reconnect");
        let mut inbox = Inbox::bind();
        for file in [1u32, 2] {
            let (fd, ack) = inbox.get(&mut ctl, u64::from(file), file);
            assert_eq!(fd.file, file);
            assert!(verify_pattern(file, &fd.data));
            assert_eq!(ack, Message::Ok);
        }
        let stats = rpc(&mut ctl, &Message::StatsRequest)
            .into_stats()
            .expect("stats reply");
        assert_eq!(stats.journal_replays, 1, "boot over a journal replays once");
        assert_eq!(
            (stats.hits, stats.misses),
            (1, 1),
            "catalog recovered from journal"
        );
        assert_eq!(stats.corruptions_detected, 0);
        rpc(&mut ctl, &Message::Shutdown);
        node.join();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn replay_rejects_a_create_on_a_disk_the_node_lacks() {
        let cfg = test_cfg("journal-bad-disk");
        std::fs::create_dir_all(&cfg.root).expect("node root");
        // CRC-valid records: the second names data disk 2 of a 2-disk node.
        let bytes = journal::encode(&[
            JournalRecord::Create {
                file: 1,
                size: 1024,
                disk: 0,
            },
            JournalRecord::Create {
                file: 2,
                size: 1024,
                disk: 2,
            },
        ]);
        assert_eq!(journal::replay(&bytes).records.len(), 2, "records intact");
        std::fs::write(cfg.root.join("journal.log"), bytes).expect("journal");
        let err = NodeDaemon::spawn(cfg.clone())
            .err()
            .expect("boot over the journal must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("data disk 2"), "{err}");
        let _ = std::fs::remove_dir_all(cfg.root);
    }

    #[test]
    fn brownout_serves_buffer_hits_but_refuses_misses() {
        let cfg = test_cfg("brownout");
        let root = cfg.root.clone();
        let node = NodeDaemon::spawn(cfg).expect("spawn");
        let mut ctl = TcpStream::connect(node.addr).expect("connect");
        for (file, disk) in [(1u32, 0u32), (2, 1)] {
            rpc(
                &mut ctl,
                &Message::CreateFile {
                    file,
                    size: 512,
                    disk,
                },
            );
        }
        rpc(&mut ctl, &Message::Prefetch { files: vec![1] });
        assert_eq!(rpc(&mut ctl, &Message::Brownout { level: 1 }), Message::Ok);

        // A miss would wake a data disk: refused with Busy, not served.
        assert!(matches!(
            rpc(
                &mut ctl,
                &Message::Get {
                    req_id: 1,
                    file: 2,
                    client_port: 1,
                    deadline_us: 0,
                    priority: 3,
                }
            ),
            Message::Busy { level: 1, .. }
        ));
        // A buffer hit still serves under brownout.
        let mut inbox = Inbox::bind();
        let (fd, ack) = inbox.get(&mut ctl, 2, 1);
        assert_eq!((fd.file, ack), (1, Message::Ok));

        // Level 0 restores miss serving, over the same push connection.
        assert_eq!(rpc(&mut ctl, &Message::Brownout { level: 0 }), Message::Ok);
        let (fd, ack) = inbox.get(&mut ctl, 3, 2);
        assert_eq!((fd.file, ack), (2, Message::Ok));
        rpc(&mut ctl, &Message::Shutdown);
        node.join();
        let _ = std::fs::remove_dir_all(root);
    }

    /// The node keeps one push connection per client port, and replaces
    /// it once the client has closed it: a new client that re-binds the
    /// port receives its push, and nothing is lost to the old socket.
    #[test]
    fn push_connection_is_reused_then_replaced_when_its_client_goes() {
        let cfg = test_cfg("pushconn");
        let root = cfg.root.clone();
        let node = NodeDaemon::spawn(cfg).expect("spawn");
        let mut ctl = TcpStream::connect(node.addr).expect("connect");
        rpc(
            &mut ctl,
            &Message::CreateFile {
                file: 4,
                size: 3000,
                disk: 0,
            },
        );
        let mut first = Inbox::bind();
        let port = first.port();
        for req_id in 1..=5 {
            let (fd, ack) = first.get(&mut ctl, req_id, 4);
            assert_eq!((fd.req_id, ack), (req_id, Message::Ok));
        }
        assert!(
            first.listener.accept().is_err(),
            "five pushes must share one connection"
        );
        drop(first);

        let mut second = Inbox {
            listener: TcpListener::bind(("127.0.0.1", port)).expect("re-bind the port"),
            push: None,
        };
        let (fd, ack) = second.get(&mut ctl, 6, 4);
        assert_eq!((fd.req_id, ack), (6, Message::Ok));
        assert!(verify_pattern(4, &fd.data));
        rpc(&mut ctl, &Message::Shutdown);
        node.join();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn unknown_file_yields_error() {
        let cfg = test_cfg("err");
        let root = cfg.root.clone();
        let node = NodeDaemon::spawn(cfg).expect("spawn");
        let mut ctl = TcpStream::connect(node.addr).expect("connect");
        assert_eq!(
            rpc(
                &mut ctl,
                &Message::Get {
                    req_id: 1,
                    file: 404,
                    client_port: 1,
                    deadline_us: 0,
                    priority: 3,
                }
            ),
            Message::Err { code: 1 }
        );
        assert_eq!(
            rpc(&mut ctl, &Message::Prefetch { files: vec![404] }),
            Message::Err { code: 1 }
        );
        assert_eq!(
            rpc(
                &mut ctl,
                &Message::CreateFile {
                    file: 1,
                    size: 10,
                    disk: 99
                }
            ),
            Message::Err { code: 3 }
        );
        rpc(&mut ctl, &Message::Shutdown);
        node.join();
        let _ = std::fs::remove_dir_all(root);
    }
}
