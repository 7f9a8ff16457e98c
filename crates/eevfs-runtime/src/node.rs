//! Storage-node daemon.
//!
//! One thread per node, serving its control connection sequentially (the
//! node side of the paper's per-node server thread). The node owns:
//!
//! * a [`FileStore`] — real files under `disk*/` and `buffer/`,
//! * one `disk_model::Disk` per drive — the same power/energy state
//!   machine the simulator uses, driven here in virtual time,
//! * a buffer catalog (reusing `eevfs::buffer::BufferCatalog`),
//! * retroactive idle-window power management: when a physical request
//!   arrives after a gap longer than the idle threshold, the disk is
//!   accounted as having spun down at `last_touch + threshold` and the
//!   request *really waits* the (scaled) spin-up time — so wake penalties
//!   show up in measured response times, like the paper's §VI-C.
//!
//! A `Get` is answered by pushing the file to the client over one
//! persistent push connection per client port, then acking the server
//! (see `NodeState::push`).
//!
//! Power management engages only once the node has been told to prefetch
//! (the prediction-driven policy from §III-C: without buffer coverage the
//! node does not trust any idle window).
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
use disk_model::{Disk, DiskSpec};
use eevfs::buffer::BufferCatalog;
use eevfs::journal::{self, Journal, JournalRecord};
use eevfs::overload::shed_code;
use sim_core::{SimDuration, SimTime};
use std::collections::HashMap;
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

struct NodeState {
    store: FileStore,
    clock: VirtualClock,
    idle_threshold: SimDuration,
    disk_of_file: HashMap<u32, usize>,
    size_of_file: HashMap<u32, u64>,
    catalog: BufferCatalog,
    data_disks: Vec<Disk>,
    buffer_disk: Disk,
    /// Virtual completion time of each data disk's last request.
    last_touch: Vec<SimTime>,
    /// Power management engages once prefetching has populated the buffer.
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
            idle_threshold: cfg.idle_threshold,
            disk_of_file: HashMap::new(),
            size_of_file: HashMap::new(),
            catalog: BufferCatalog::new(cfg.disk_spec.capacity_bytes),
            data_disks: (0..cfg.data_disks)
                .map(|_| Disk::new(cfg.disk_spec.clone()))
                .collect(),
            buffer_disk: Disk::new(cfg.disk_spec.clone()),
            last_touch: vec![SimTime::ZERO; cfg.data_disks],
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

    /// Accounts a physical access on a data disk, applying the
    /// retroactive idle-window sleep, and *really waits* out the scaled
    /// service (and any spin-up).
    fn access_data_disk(&mut self, disk: usize, bytes: u64) -> bool {
        let now = self.clock.now();
        if self.power_enabled {
            let sleep_at = self.last_touch[disk] + self.idle_threshold;
            if now > sleep_at && (now - sleep_at) > SimDuration::ZERO {
                // The disk would have been spun down at the threshold;
                // record it (no-op if it was busy or already down).
                self.data_disks[disk].sleep(sleep_at);
            }
        }
        let comp = self.data_disks[disk].submit(now, bytes, AccessKind::Random);
        self.last_touch[disk] = comp.finish;
        self.clock.sleep_virtual(comp.finish - now);
        comp.spun_up
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
                        let comp = self.data_disks[disk].submit(now, size, AccessKind::Sequential);
                        self.last_touch[disk] = comp.finish;
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
                    let comp = self.data_disks[disk].submit(now, size, AccessKind::Random);
                    self.last_touch[disk] = comp.finish;
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
                // Disks with no expected physical accesses can be slept
                // immediately (the paper's step-4 conservatism in reverse:
                // hints *create* the trust needed to sleep right away).
                if self.power_enabled {
                    let mut touched = vec![false; self.data_disks.len()];
                    for (_, file) in &pattern {
                        if let Some(&d) = self.disk_of_file.get(file) {
                            if !self.catalog.contains(workload::record::FileId(*file)) {
                                touched[d] = true;
                            }
                        }
                    }
                    let now = self.clock.now();
                    for (d, t) in touched.iter().enumerate() {
                        if !t {
                            self.data_disks[d].sleep(now);
                        }
                    }
                }
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
                    self.access_data_disk(disk, size);
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
                    self.access_data_disk(disk, size);
                }
                Ok(Message::Ok)
            }
            Message::StatsRequest => {
                let now = self.clock.now();
                let mut joules = 0.0;
                let mut ups = 0;
                let mut downs = 0;
                for (d, disk) in self.data_disks.iter_mut().enumerate() {
                    if self.power_enabled {
                        // Trailing idleness beyond the threshold counts as
                        // standby too.
                        let sleep_at = self.last_touch[d] + self.idle_threshold;
                        if now > sleep_at {
                            disk.sleep(sleep_at);
                        }
                    }
                    disk.finalize(now);
                    joules += disk.total_joules();
                    ups += disk.transitions().spin_ups;
                    downs += disk.transitions().spin_downs;
                }
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
