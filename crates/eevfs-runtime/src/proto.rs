//! Wire protocol for the prototype.
//!
//! Hand-rolled length-prefixed binary framing over TCP (the 2010
//! prototype predates serde; a fixed binary layout keeps the runtime
//! dependency-light and the frames inspectable):
//!
//! ```text
//! u32 frame_len (excluding itself) | u8 tag | payload...
//! ```
//!
//! All integers are little-endian. File payloads are capped at
//! [`MAX_FRAME`] to bound allocations from untrusted peers.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{IoSlice, Read, Write};

/// Upper bound on a frame, 256 MiB (the paper's largest file is 50 MB).
pub const MAX_FRAME: u32 = 256 * 1024 * 1024;

/// Protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Server → node: create a file of `size` bytes on data disk `disk`.
    CreateFile {
        /// File id.
        file: u32,
        /// File size in bytes.
        size: u64,
        /// Local data-disk index chosen by placement.
        disk: u32,
    },
    /// Server → node: copy these files into the buffer area (step 3).
    Prefetch {
        /// Files to prefetch, popularity order.
        files: Vec<u32>,
    },
    /// Server → node: expected access pattern for this node (step 4), as
    /// `(virtual_time_us, file)` pairs.
    Hints {
        /// Expected accesses in time order.
        pattern: Vec<(u64, u32)>,
    },
    /// Client → server, then server → node: fetch `file`; the node must
    /// push the data to `127.0.0.1:client_port` (steps 5-6).
    Get {
        /// Request id assigned by the client, echoed end-to-end so one id
        /// follows client → server → node → disk in traces.
        req_id: u64,
        /// File id.
        file: u32,
        /// Client callback port.
        client_port: u16,
        /// Remaining deadline budget, microseconds (0 = no deadline).
        /// Shrinks hop-by-hop: the client stamps the total budget and
        /// each hop forwards what is left after its own queueing.
        deadline_us: u64,
        /// Request priority, 0 (lowest) to 255. Under brownout level 2
        /// the server sheds the lowest priorities first.
        priority: u8,
    },
    /// Node → client: the file contents.
    FileData {
        /// Request id echoed from the originating [`Message::Get`] /
        /// [`Message::Put`] (zero for frames outside a request, e.g.
        /// replication pushes).
        req_id: u64,
        /// File id.
        file: u32,
        /// Contents.
        data: Bytes,
    },
    /// Generic acknowledgement.
    Ok,
    /// Failure with an error code.
    Err {
        /// Error code (1 = no such file, 2 = io error, 3 = bad request).
        code: u16,
    },
    /// Server → node: report energy statistics.
    StatsRequest,
    /// Node → server: energy statistics in response. Field meanings are
    /// documented on [`StatsCounters`]; node replies leave the
    /// server-side counters zero and the server adds its own when
    /// aggregating.
    Stats {
        /// The counters.
        counters: StatsCounters,
    },
    /// Orderly shutdown.
    Shutdown,
    /// Client → server, then server → node: write `file`; the node
    /// connects to `127.0.0.1:client_port` and *reads* a [`Message::FileData`]
    /// frame from the client (the push pattern, reversed).
    Put {
        /// Request id assigned by the client, echoed end-to-end (same
        /// contract as the `req_id` on [`Message::Get`]).
        req_id: u64,
        /// File id.
        file: u32,
        /// Client callback port.
        client_port: u16,
        /// Remaining deadline budget, microseconds (0 = no deadline).
        deadline_us: u64,
        /// Request priority, 0 (lowest) to 255.
        priority: u8,
    },
    /// Client → server (admin / failure injection): shut down one storage
    /// node, leaving the rest of the cluster running.
    KillNode {
        /// Node index.
        node: u32,
    },
    /// Client → server, then server → node (failure injection): mark one
    /// data disk as failed; physical accesses to it return io errors
    /// until repaired.
    FailDisk {
        /// Node index (the node daemon ignores it; the server routes on it).
        node: u32,
        /// Local data-disk index.
        disk: u32,
    },
    /// Client → server, then server → node: undo a [`Message::FailDisk`].
    RepairDisk {
        /// Node index.
        node: u32,
        /// Local data-disk index.
        disk: u32,
    },
    /// Client → server (repair flow): a replacement daemon for `node` is
    /// listening on `127.0.0.1:port`; the server reconnects, replays the
    /// node's setup (creates, prefetch, hints), and resumes routing to it.
    ReviveNode {
        /// Node index.
        node: u32,
        /// Control port of the replacement daemon.
        port: u16,
    },
    /// Client → server (admin / network-fault injection): cut the
    /// server↔node link for `node`; requests reroute to surviving
    /// replicas until a [`Message::HealLink`].
    PartitionLink {
        /// Node index.
        node: u32,
    },
    /// Client → server: undo a [`Message::PartitionLink`].
    HealLink {
        /// Node index.
        node: u32,
    },
    /// Client → server (crash-recovery flow): a *restarted* daemon for
    /// `node` — same store directory, its own metadata recovered by
    /// replaying its buffer-disk journal — is listening on
    /// `127.0.0.1:port`. Unlike [`Message::ReviveNode`], the server does
    /// **not** replay creates/prefetch (the node already owns its files);
    /// it reconnects, re-sends the soft-state hints, and resumes routing.
    Register {
        /// Node index.
        node: u32,
        /// Control port of the restarted daemon.
        port: u16,
    },
    /// Backpressure reply (server → client at admission, or node → server
    /// under brownout): the request was **not** accepted and no work was
    /// done for it; the sender suggests retrying after `retry_after_us`.
    Busy {
        /// Suggested wall-clock retry delay, microseconds.
        retry_after_us: u64,
        /// Brownout level at the sender when the request was refused.
        level: u8,
    },
    /// Load-shedding reply (server → client): the request was dropped by
    /// the overload control plane — deadline budget exhausted, priority
    /// shed under brownout level 2, or refused downstream — and will not
    /// be retried by the cluster.
    Shed {
        /// Request id echoed from the originating `Get`/`Put`.
        req_id: u64,
        /// Why it was shed (1 = deadline expired, 2 = priority shed,
        /// 3 = refused downstream under brownout).
        code: u16,
        /// Brownout level at the decision point.
        level: u8,
    },
    /// Server → node: the cluster's brownout level changed. At level ≥ 1
    /// the node serves buffer-disk content only and refuses misses that
    /// would spin up a data disk (replying [`Message::Busy`]); level 0
    /// restores normal serving.
    Brownout {
        /// New brownout level, 0 (normal) to 3 (admission rejects all).
        level: u8,
    },
}

/// Payload of a [`Message::FileData`] frame, extracted by
/// [`Message::into_file_data`].
#[derive(Debug, Clone, PartialEq)]
pub struct FileDataPayload {
    /// Request id echoed from the originating `Get`/`Put`.
    pub req_id: u64,
    /// File id.
    pub file: u32,
    /// Contents.
    pub data: Bytes,
}

/// Counters of a [`Message::Stats`] frame, extracted by
/// [`Message::into_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StatsCounters {
    /// Total joules across this node's disks (virtual time).
    pub disk_joules: f64,
    /// Spin-ups across data disks.
    pub spin_ups: u64,
    /// Spin-downs across data disks.
    pub spin_downs: u64,
    /// Buffer hits.
    pub hits: u64,
    /// Buffer misses.
    pub misses: u64,
    /// Requests the server served from a non-primary replica (zero in
    /// node → server replies; the server adds its own when aggregating).
    pub failovers: u64,
    /// RPC flights re-sent after a drop, reset, or per-try timeout
    /// (server-side).
    pub retries: u64,
    /// Hedged reads issued against a second replica (server-side).
    pub hedges: u64,
    /// Hedged reads where the second replica answered first (server-side).
    pub hedges_won: u64,
    /// Circuit-breaker trips, closed/half-open → open (server-side).
    pub breaker_trips: u64,
    /// Half-open probes that closed a breaker again (server-side).
    pub breaker_recoveries: u64,
    /// Requests that blew their end-to-end deadline (server-side).
    pub deadline_misses: u64,
    /// Journal replays this node performed at boot (1 after a restart
    /// with an intact journal, 0 on a cold start).
    pub journal_replays: u64,
    /// Checksum mismatches caught on the node's data-disk reads.
    pub corruptions_detected: u64,
    /// Requests offered to the server's admission gate (server-side; the
    /// shed ledger closes as `offered == admitted + rejected + shed` and
    /// `admitted == completed + node_shed + request_errors`).
    pub offered: u64,
    /// Requests that passed admission.
    pub admitted: u64,
    /// Requests refused at admission with [`Message::Busy`].
    pub rejected: u64,
    /// Requests dropped pre-admission with [`Message::Shed`] (deadline
    /// expired or priority shed).
    pub shed: u64,
    /// Admitted requests a node refused under brownout.
    pub node_shed: u64,
    /// Admitted requests answered with data / `Ok`.
    pub completed: u64,
    /// Admitted requests that ended in an error reply.
    pub request_errors: u64,
    /// Brownout-ladder level changes (either direction).
    pub brownout_transitions: u64,
    /// Peak concurrent admitted requests observed at the server.
    pub queue_peak: u64,
}

impl StatsCounters {
    /// Number of `u64` counters following `disk_joules` on the wire.
    pub const U64_FIELDS: usize = 22;

    /// The `u64` counters in wire order (everything after `disk_joules`).
    fn as_u64_fields(&self) -> [u64; Self::U64_FIELDS] {
        [
            self.spin_ups,
            self.spin_downs,
            self.hits,
            self.misses,
            self.failovers,
            self.retries,
            self.hedges,
            self.hedges_won,
            self.breaker_trips,
            self.breaker_recoveries,
            self.deadline_misses,
            self.journal_replays,
            self.corruptions_detected,
            self.offered,
            self.admitted,
            self.rejected,
            self.shed,
            self.node_shed,
            self.completed,
            self.request_errors,
            self.brownout_transitions,
            self.queue_peak,
        ]
    }

    /// Rebuilds counters from `disk_joules` plus the wire-order fields.
    fn from_u64_fields(disk_joules: f64, f: [u64; Self::U64_FIELDS]) -> StatsCounters {
        StatsCounters {
            disk_joules,
            spin_ups: f[0],
            spin_downs: f[1],
            hits: f[2],
            misses: f[3],
            failovers: f[4],
            retries: f[5],
            hedges: f[6],
            hedges_won: f[7],
            breaker_trips: f[8],
            breaker_recoveries: f[9],
            deadline_misses: f[10],
            journal_replays: f[11],
            corruptions_detected: f[12],
            offered: f[13],
            admitted: f[14],
            rejected: f[15],
            shed: f[16],
            node_shed: f[17],
            completed: f[18],
            request_errors: f[19],
            brownout_transitions: f[20],
            queue_peak: f[21],
        }
    }
}

/// Codec errors.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying I/O failed.
    Io(std::io::Error),
    /// Frame violated the protocol.
    Malformed(&'static str),
    /// Frame carried a tag this build does not understand (future
    /// protocol revision or garbage) — distinct from [`CodecError::Malformed`]
    /// so callers can choose to skip rather than tear down the connection.
    UnknownTag(u8),
    /// A well-formed frame arrived where a different message was required
    /// (protocol *state* violation, e.g. a node answering `StatsRequest`
    /// with `Ok`). Carrying both sides keeps the error self-describing
    /// without killing the thread that noticed.
    Unexpected {
        /// The variant the caller needed.
        expected: &'static str,
        /// The variant that actually arrived.
        got: &'static str,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "io: {e}"),
            CodecError::Malformed(why) => write!(f, "malformed frame: {why}"),
            CodecError::UnknownTag(tag) => write!(f, "unknown message tag {tag}"),
            CodecError::Unexpected { expected, got } => {
                write!(f, "protocol mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// An I/O failure stays what it was; a protocol violation becomes
/// [`std::io::ErrorKind::InvalidData`].
impl From<CodecError> for std::io::Error {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Io(e) => e,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

impl Message {
    fn tag(&self) -> u8 {
        match self {
            Message::CreateFile { .. } => 1,
            Message::Prefetch { .. } => 2,
            Message::Hints { .. } => 3,
            Message::Get { .. } => 4,
            Message::FileData { .. } => 5,
            Message::Ok => 6,
            Message::Err { .. } => 7,
            Message::StatsRequest => 8,
            Message::Stats { .. } => 9,
            Message::Shutdown => 10,
            Message::Put { .. } => 11,
            Message::KillNode { .. } => 12,
            Message::FailDisk { .. } => 13,
            Message::RepairDisk { .. } => 14,
            Message::ReviveNode { .. } => 15,
            Message::PartitionLink { .. } => 16,
            Message::HealLink { .. } => 17,
            Message::Register { .. } => 18,
            Message::Busy { .. } => 19,
            Message::Shed { .. } => 20,
            Message::Brownout { .. } => 21,
        }
    }

    /// The end-to-end request id carried by request/response frames
    /// (`Get`, `Put`, `FileData`, `Shed`); `None` for control traffic.
    pub fn req_id(&self) -> Option<u64> {
        match self {
            Message::Get { req_id, .. }
            | Message::Put { req_id, .. }
            | Message::FileData { req_id, .. }
            | Message::Shed { req_id, .. } => Some(*req_id),
            _ => None,
        }
    }

    /// Variant name, for [`CodecError::Unexpected`] diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Message::CreateFile { .. } => "CreateFile",
            Message::Prefetch { .. } => "Prefetch",
            Message::Hints { .. } => "Hints",
            Message::Get { .. } => "Get",
            Message::FileData { .. } => "FileData",
            Message::Ok => "Ok",
            Message::Err { .. } => "Err",
            Message::StatsRequest => "StatsRequest",
            Message::Stats { .. } => "Stats",
            Message::Shutdown => "Shutdown",
            Message::Put { .. } => "Put",
            Message::KillNode { .. } => "KillNode",
            Message::FailDisk { .. } => "FailDisk",
            Message::RepairDisk { .. } => "RepairDisk",
            Message::ReviveNode { .. } => "ReviveNode",
            Message::PartitionLink { .. } => "PartitionLink",
            Message::HealLink { .. } => "HealLink",
            Message::Register { .. } => "Register",
            Message::Busy { .. } => "Busy",
            Message::Shed { .. } => "Shed",
            Message::Brownout { .. } => "Brownout",
        }
    }

    /// Consumes the message, returning the `FileData` payload, or a typed
    /// [`CodecError::Unexpected`] naming what arrived instead — the
    /// conversion a peer performs after a `Get`/`Put` push, where the
    /// wrong frame must surface as an error rather than kill the thread.
    pub fn into_file_data(self) -> Result<FileDataPayload, CodecError> {
        match self {
            Message::FileData { req_id, file, data } => Ok(FileDataPayload { req_id, file, data }),
            other => Err(CodecError::Unexpected {
                expected: "FileData",
                got: other.kind_name(),
            }),
        }
    }

    /// Consumes the message, returning the stats counters, or a typed
    /// [`CodecError::Unexpected`] naming what arrived instead.
    pub fn into_stats(self) -> Result<StatsCounters, CodecError> {
        match self {
            Message::Stats { counters } => Ok(counters),
            other => Err(CodecError::Unexpected {
                expected: "Stats",
                got: other.kind_name(),
            }),
        }
    }

    /// Encodes into a self-contained frame. The length prefix, tag, header
    /// and payload go into one buffer sized up front, so a `FileData`
    /// payload is copied exactly once.
    pub fn encode(&self) -> Bytes {
        // Body bytes after the tag: exact for the variable-length frames,
        // an upper bound (the 23-byte `Get`/`Put` header) for the rest.
        let after_tag = match self {
            Message::FileData { data, .. } => 20 + data.len(),
            Message::Prefetch { files } => 4 + 4 * files.len(),
            Message::Hints { pattern } => 4 + 12 * pattern.len(),
            Message::Stats { .. } => 8 + 8 * StatsCounters::U64_FIELDS,
            _ => 23,
        };
        let mut frame = BytesMut::with_capacity(4 + 1 + after_tag);
        frame.put_u32_le(0); // length prefix, patched below
        frame.put_u8(self.tag());
        match self {
            Message::CreateFile { file, size, disk } => {
                frame.put_u32_le(*file);
                frame.put_u64_le(*size);
                frame.put_u32_le(*disk);
            }
            Message::Prefetch { files } => {
                frame.put_u32_le(files.len() as u32);
                for f in files {
                    frame.put_u32_le(*f);
                }
            }
            Message::Hints { pattern } => {
                frame.put_u32_le(pattern.len() as u32);
                for (t, f) in pattern {
                    frame.put_u64_le(*t);
                    frame.put_u32_le(*f);
                }
            }
            Message::Get {
                req_id,
                file,
                client_port,
                deadline_us,
                priority,
            }
            | Message::Put {
                req_id,
                file,
                client_port,
                deadline_us,
                priority,
            } => {
                frame.put_u64_le(*req_id);
                frame.put_u32_le(*file);
                frame.put_u16_le(*client_port);
                frame.put_u64_le(*deadline_us);
                frame.put_u8(*priority);
            }
            Message::FileData { req_id, file, data } => {
                frame.put_u64_le(*req_id);
                frame.put_u32_le(*file);
                frame.put_u64_le(data.len() as u64);
                frame.extend_from_slice(data);
            }
            Message::Ok | Message::StatsRequest | Message::Shutdown => {}
            Message::KillNode { node } => frame.put_u32_le(*node),
            Message::FailDisk { node, disk } | Message::RepairDisk { node, disk } => {
                frame.put_u32_le(*node);
                frame.put_u32_le(*disk);
            }
            Message::ReviveNode { node, port } | Message::Register { node, port } => {
                frame.put_u32_le(*node);
                frame.put_u16_le(*port);
            }
            Message::PartitionLink { node } | Message::HealLink { node } => frame.put_u32_le(*node),
            Message::Err { code } => frame.put_u16_le(*code),
            Message::Stats { counters: c } => {
                frame.put_f64_le(c.disk_joules);
                for v in c.as_u64_fields() {
                    frame.put_u64_le(v);
                }
            }
            Message::Busy {
                retry_after_us,
                level,
            } => {
                frame.put_u64_le(*retry_after_us);
                frame.put_u8(*level);
            }
            Message::Shed {
                req_id,
                code,
                level,
            } => {
                frame.put_u64_le(*req_id);
                frame.put_u16_le(*code);
                frame.put_u8(*level);
            }
            Message::Brownout { level } => frame.put_u8(*level),
        }
        let body_len = (frame.len() - 4) as u32;
        frame[..4].copy_from_slice(&body_len.to_le_bytes());
        frame.freeze()
    }

    /// Decodes one frame body (without the length prefix).
    pub fn decode(mut body: Bytes) -> Result<Message, CodecError> {
        use CodecError::Malformed;
        macro_rules! need {
            ($n:expr, $what:literal) => {
                if body.remaining() < $n {
                    return Err(Malformed(concat!("truncated ", $what)));
                }
            };
        }
        need!(1, "tag");
        let tag = body.get_u8();
        let msg = match tag {
            1 => {
                need!(16, "CreateFile");
                Message::CreateFile {
                    file: body.get_u32_le(),
                    size: body.get_u64_le(),
                    disk: body.get_u32_le(),
                }
            }
            2 => {
                need!(4, "Prefetch count");
                let n = body.get_u32_le();
                // Multiply in u64 so a hostile count cannot overflow the
                // size computation on any pointer width.
                if (body.remaining() as u64) < u64::from(n) * 4 {
                    return Err(Malformed("truncated Prefetch list"));
                }
                Message::Prefetch {
                    files: (0..n).map(|_| body.get_u32_le()).collect(),
                }
            }
            3 => {
                need!(4, "Hints count");
                let n = body.get_u32_le();
                if (body.remaining() as u64) < u64::from(n) * 12 {
                    return Err(Malformed("truncated Hints list"));
                }
                Message::Hints {
                    pattern: (0..n)
                        .map(|_| (body.get_u64_le(), body.get_u32_le()))
                        .collect(),
                }
            }
            4 => {
                need!(23, "Get");
                Message::Get {
                    req_id: body.get_u64_le(),
                    file: body.get_u32_le(),
                    client_port: body.get_u16_le(),
                    deadline_us: body.get_u64_le(),
                    priority: body.get_u8(),
                }
            }
            5 => {
                need!(20, "FileData header");
                let req_id = body.get_u64_le();
                let file = body.get_u32_le();
                let len = body.get_u64_le();
                // Compare in u64: `len as usize` first would wrap on
                // 32-bit targets and could spuriously match `remaining`.
                if body.remaining() as u64 != len {
                    return Err(Malformed("FileData length mismatch"));
                }
                Message::FileData {
                    req_id,
                    file,
                    data: body.copy_to_bytes(len as usize),
                }
            }
            6 => Message::Ok,
            7 => {
                need!(2, "Err");
                Message::Err {
                    code: body.get_u16_le(),
                }
            }
            8 => Message::StatsRequest,
            9 => {
                need!(8 + 8 * StatsCounters::U64_FIELDS, "Stats");
                let disk_joules = body.get_f64_le();
                let mut fields = [0u64; StatsCounters::U64_FIELDS];
                for f in &mut fields {
                    *f = body.get_u64_le();
                }
                Message::Stats {
                    counters: StatsCounters::from_u64_fields(disk_joules, fields),
                }
            }
            10 => Message::Shutdown,
            11 => {
                need!(23, "Put");
                Message::Put {
                    req_id: body.get_u64_le(),
                    file: body.get_u32_le(),
                    client_port: body.get_u16_le(),
                    deadline_us: body.get_u64_le(),
                    priority: body.get_u8(),
                }
            }
            12 => {
                need!(4, "KillNode");
                Message::KillNode {
                    node: body.get_u32_le(),
                }
            }
            13 => {
                need!(8, "FailDisk");
                Message::FailDisk {
                    node: body.get_u32_le(),
                    disk: body.get_u32_le(),
                }
            }
            14 => {
                need!(8, "RepairDisk");
                Message::RepairDisk {
                    node: body.get_u32_le(),
                    disk: body.get_u32_le(),
                }
            }
            15 => {
                need!(6, "ReviveNode");
                Message::ReviveNode {
                    node: body.get_u32_le(),
                    port: body.get_u16_le(),
                }
            }
            16 => {
                need!(4, "PartitionLink");
                Message::PartitionLink {
                    node: body.get_u32_le(),
                }
            }
            17 => {
                need!(4, "HealLink");
                Message::HealLink {
                    node: body.get_u32_le(),
                }
            }
            18 => {
                need!(6, "Register");
                Message::Register {
                    node: body.get_u32_le(),
                    port: body.get_u16_le(),
                }
            }
            19 => {
                need!(9, "Busy");
                Message::Busy {
                    retry_after_us: body.get_u64_le(),
                    level: body.get_u8(),
                }
            }
            20 => {
                need!(11, "Shed");
                Message::Shed {
                    req_id: body.get_u64_le(),
                    code: body.get_u16_le(),
                    level: body.get_u8(),
                }
            }
            21 => {
                need!(1, "Brownout");
                Message::Brownout {
                    level: body.get_u8(),
                }
            }
            other => return Err(CodecError::UnknownTag(other)),
        };
        if body.has_remaining() && !matches!(msg, Message::FileData { .. }) {
            return Err(Malformed("trailing bytes"));
        }
        Ok(msg)
    }
}

/// Writes one message to a stream.
pub fn write_message<W: Write>(w: &mut W, msg: &Message) -> Result<(), CodecError> {
    w.write_all(&msg.encode())?;
    w.flush()?;
    Ok(())
}

/// Writes a [`Message::FileData`] frame straight from `data`: the 25-byte
/// header and the payload go out in one vectored write, so the payload is
/// never copied into a frame buffer. The bytes equal those of
/// `Message::FileData { req_id, file, data }.encode()`.
pub fn write_file_data<W: Write>(
    w: &mut W,
    req_id: u64,
    file: u32,
    data: &[u8],
) -> Result<(), CodecError> {
    let mut header = [0u8; 25];
    header[..4].copy_from_slice(&((21 + data.len()) as u32).to_le_bytes());
    header[4] = 5; // the FileData tag
    header[5..13].copy_from_slice(&req_id.to_le_bytes());
    header[13..17].copy_from_slice(&file.to_le_bytes());
    header[17..].copy_from_slice(&(data.len() as u64).to_le_bytes());
    // One vectored write in the common case; a short write is finished
    // with plain ones.
    let sent = w.write_vectored(&[IoSlice::new(&header), IoSlice::new(data)])?;
    match sent.checked_sub(header.len()) {
        Some(into_data) => w.write_all(&data[into_data..])?,
        None => {
            w.write_all(&header[sent..])?;
            w.write_all(data)?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads the 25-byte header of a [`Message::FileData`] frame and returns
/// its `(req_id, file, payload length)`, leaving the payload on the
/// stream for the caller to read where it wants it. Anything that is not
/// a well-formed `FileData` header is an error.
pub fn read_file_data_header<R: Read>(r: &mut R) -> Result<(u64, u32, u64), CodecError> {
    let mut head = [0u8; 25];
    r.read_exact(&mut head)?;
    let le = |at: std::ops::Range<usize>| {
        head[at]
            .iter()
            .rev()
            .fold(0u64, |v, &b| v << 8 | u64::from(b))
    };
    let (len, data_len) = (le(0..4), le(17..25));
    if head[4] != 5 || len > u64::from(MAX_FRAME) || len.checked_sub(21) != Some(data_len) {
        return Err(CodecError::Malformed("not a FileData header"));
    }
    Ok((le(5..13), le(13..17) as u32, data_len))
}

/// Reads one message from a stream.
pub fn read_message<R: Read>(r: &mut R) -> Result<Message, CodecError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(CodecError::Malformed("frame exceeds MAX_FRAME"));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Message::decode(Bytes::from(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let framed = msg.encode();
        // Strip the length prefix, decode the body.
        let body = framed.slice(4..);
        let back = Message::decode(body).expect("decode");
        assert_eq!(msg, back);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(Message::CreateFile {
            file: 7,
            size: 123456,
            disk: 1,
        });
        roundtrip(Message::Prefetch {
            files: vec![1, 2, 3, 99],
        });
        roundtrip(Message::Prefetch { files: vec![] });
        roundtrip(Message::Hints {
            pattern: vec![(1000, 1), (2000, 2)],
        });
        roundtrip(Message::Get {
            req_id: u64::MAX,
            file: 3,
            client_port: 54321,
            deadline_us: 2_000_000,
            priority: 3,
        });
        roundtrip(Message::FileData {
            req_id: 77,
            file: 3,
            data: Bytes::from_static(b"hello world"),
        });
        roundtrip(Message::FileData {
            req_id: 0,
            file: 0,
            data: Bytes::new(),
        });
        roundtrip(Message::Ok);
        roundtrip(Message::Err { code: 2 });
        roundtrip(Message::StatsRequest);
        roundtrip(Message::Stats {
            counters: StatsCounters {
                disk_joules: 1234.5,
                spin_ups: 3,
                spin_downs: 4,
                hits: 10,
                misses: 2,
                failovers: 5,
                retries: 7,
                hedges: 2,
                hedges_won: 1,
                breaker_trips: 1,
                breaker_recoveries: 1,
                deadline_misses: 0,
                journal_replays: 2,
                corruptions_detected: 6,
                offered: 100,
                admitted: 90,
                rejected: 7,
                shed: 3,
                node_shed: 2,
                completed: 85,
                request_errors: 3,
                brownout_transitions: 4,
                queue_peak: 16,
            },
        });
        roundtrip(Message::Shutdown);
        roundtrip(Message::Put {
            req_id: 12345,
            file: 8,
            client_port: 4242,
            deadline_us: 0,
            priority: 0,
        });
        roundtrip(Message::Busy {
            retry_after_us: 50_000,
            level: 1,
        });
        roundtrip(Message::Shed {
            req_id: 99,
            code: 2,
            level: 2,
        });
        roundtrip(Message::Brownout { level: 3 });
        roundtrip(Message::KillNode { node: 3 });
        roundtrip(Message::FailDisk { node: 1, disk: 0 });
        roundtrip(Message::RepairDisk { node: 1, disk: 0 });
        roundtrip(Message::ReviveNode {
            node: 2,
            port: 40123,
        });
        roundtrip(Message::PartitionLink { node: 1 });
        roundtrip(Message::HealLink { node: 1 });
        roundtrip(Message::Register {
            node: 1,
            port: 40999,
        });
    }

    #[test]
    fn request_frames_carry_req_id() {
        let get = Message::Get {
            req_id: 42,
            file: 1,
            client_port: 2,
            deadline_us: 0,
            priority: 0,
        };
        assert_eq!(get.req_id(), Some(42));
        // length prefix + tag + u64 req_id + u32 file + u16 port
        // + u64 deadline + u8 priority.
        assert_eq!(get.encode().len(), 4 + 1 + 23);
        let put = Message::Put {
            req_id: 43,
            file: 1,
            client_port: 2,
            deadline_us: 0,
            priority: 0,
        };
        assert_eq!(put.req_id(), Some(43));
        assert_eq!(put.encode().len(), 4 + 1 + 23);
        let fd = Message::FileData {
            req_id: 44,
            file: 1,
            data: Bytes::from_static(b"abc"),
        };
        assert_eq!(fd.req_id(), Some(44));
        // length prefix + tag + 20-byte header + payload.
        assert_eq!(fd.encode().len(), 4 + 1 + 20 + 3);
        let shed = Message::Shed {
            req_id: 45,
            code: 1,
            level: 2,
        };
        assert_eq!(shed.req_id(), Some(45));
        assert_eq!(shed.encode().len(), 4 + 1 + 11);
        assert_eq!(Message::Ok.req_id(), None);
        assert_eq!(
            Message::Busy {
                retry_after_us: 1,
                level: 0
            }
            .req_id(),
            None
        );
    }

    /// One fixed instance of every variant, in tag order, each with
    /// distinct multi-byte field values so any byte-order or layout drift
    /// shows up.
    fn golden_messages() -> Vec<Message> {
        let mut stats = [0u64; StatsCounters::U64_FIELDS];
        for (i, f) in stats.iter_mut().enumerate() {
            *f = 0x0101_0101_0101_0101 * (i as u64 + 1);
        }
        vec![
            Message::CreateFile {
                file: 0x0102_0304,
                size: 0x1112_1314_1516_1718,
                disk: 0x2122_2324,
            },
            Message::Prefetch {
                files: vec![0x0A0B_0C0D, 7],
            },
            Message::Hints {
                pattern: vec![(0x1020_3040_5060_7080, 0x0F0E_0D0C)],
            },
            Message::Get {
                req_id: 0xA1A2_A3A4_A5A6_A7A8,
                file: 0xB1B2_B3B4,
                client_port: 0xC1C2,
                deadline_us: 0xD1D2_D3D4_D5D6_D7D8,
                priority: 0xE1,
            },
            Message::FileData {
                req_id: 0x0807_0605_0403_0201,
                file: 0x4443_4241,
                data: Bytes::from_static(b"EEVFS"),
            },
            Message::Ok,
            Message::Err { code: 0x1234 },
            Message::StatsRequest,
            Message::Stats {
                counters: StatsCounters::from_u64_fields(-1234.5, stats),
            },
            Message::Shutdown,
            Message::Put {
                req_id: 0x5152_5354_5556_5758,
                file: 0x6162_6364,
                client_port: 0x7172,
                deadline_us: 0x8182_8384_8586_8788,
                priority: 0x91,
            },
            Message::KillNode { node: 0x0304_0506 },
            Message::FailDisk {
                node: 0x1314_1516,
                disk: 0x2324_2526,
            },
            Message::RepairDisk {
                node: 0x3334_3536,
                disk: 0x4344_4546,
            },
            Message::ReviveNode {
                node: 0x5354_5556,
                port: 0x6364,
            },
            Message::PartitionLink { node: 0x7374_7576 },
            Message::HealLink { node: 0x8384_8586 },
            Message::Register {
                node: 0x9394_9596,
                port: 0xA3A4,
            },
            Message::Busy {
                retry_after_us: 0xB1B2_B3B4_B5B6_B7B8,
                level: 2,
            },
            Message::Shed {
                req_id: 0xC1C2_C3C4_C5C6_C7C8,
                code: 0xD1D2,
                level: 3,
            },
            Message::Brownout { level: 1 },
        ]
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The wire bytes of every variant, pinned to a literal: a change to
    /// how frames are built must not change a single byte on the wire.
    #[test]
    fn golden_frames_are_byte_stable() {
        let msgs = golden_messages();
        let tags: Vec<u8> = msgs.iter().map(Message::tag).collect();
        assert_eq!(tags, (1..=21).collect::<Vec<u8>>(), "one frame per tag");
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&m.encode());
        }
        assert_eq!(hex(&wire), GOLDEN_WIRE.concat());
    }

    /// Concatenated frames of [`golden_messages`], taken from the encoder
    /// that built a separate body and copied it behind the length prefix.
    const GOLDEN_WIRE: &[&str] = &[
        // CreateFile
        "110000000104030201181716151413121124232221",
        // Prefetch
        "0d00000002020000000d0c0b0a07000000",
        // Hints
        "11000000030100000080706050403020100c0d0e0f",
        // Get
        "1800000004a8a7a6a5a4a3a2a1b4b3b2b1c2c1d8d7d6d5d4d3d2d1e1",
        // FileData
        "1a0000000501020304050607084142434405000000000000004545564653",
        // Ok
        "0100000006",
        // Err
        "03000000073412",
        // StatsRequest
        "0100000008",
        // Stats
        "b90000000900000000004a93c001010101010101010202020202020202030303",
        "0303030303040404040404040405050505050505050606060606060606070707",
        "0707070707080808080808080809090909090909090a0a0a0a0a0a0a0a0b0b0b",
        "0b0b0b0b0b0c0c0c0c0c0c0c0c0d0d0d0d0d0d0d0d0e0e0e0e0e0e0e0e0f0f0f",
        "0f0f0f0f0f101010101010101011111111111111111212121212121212131313",
        "1313131313141414141414141415151515151515151616161616161616",
        // Shutdown
        "010000000a",
        // Put
        "180000000b5857565554535251646362617271888786858483828191",
        // KillNode
        "050000000c06050403",
        // FailDisk
        "090000000d1615141326252423",
        // RepairDisk
        "090000000e3635343346454443",
        // ReviveNode
        "070000000f565554536463",
        // PartitionLink
        "050000001076757473",
        // HealLink
        "050000001186858483",
        // Register
        "070000001296959493a4a3",
        // Busy
        "0a00000013b8b7b6b5b4b3b2b102",
        // Shed
        "0c00000014c8c7c6c5c4c3c2c1d2d103",
        // Brownout
        "020000001501",
    ];

    #[test]
    fn stream_roundtrip() {
        let mut buf = Vec::new();
        let msgs = vec![
            Message::Ok,
            Message::Get {
                req_id: 9,
                file: 1,
                client_port: 1000,
                deadline_us: 750_000,
                priority: 2,
            },
            Message::FileData {
                req_id: 9,
                file: 1,
                data: Bytes::from(vec![42u8; 1024]),
            },
        ];
        for m in &msgs {
            write_message(&mut buf, m).expect("write");
        }
        let mut cursor = std::io::Cursor::new(buf);
        for m in &msgs {
            let got = read_message(&mut cursor).expect("read");
            assert_eq!(&got, m);
        }
    }

    /// The streamed FileData frame is `encode()`'s, byte for byte, at
    /// every payload size the prototype serves.
    #[test]
    fn streamed_file_data_equals_encode() {
        /// A writer that takes at most 7 bytes per call, as a socket may
        /// take a part, so the write splits inside the header.
        struct Trickle(Vec<u8>);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let n = buf.len().min(7);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        for len in [0usize, 5, 64 << 10, 1 << 20] {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let mut whole = Vec::new();
            write_file_data(&mut whole, 0x0102_0304_0506_0708, 77, &data).expect("stream");
            let mut trickled = Trickle(Vec::new());
            write_file_data(&mut trickled, 0x0102_0304_0506_0708, 77, &data).expect("trickle");
            let encoded = Message::FileData {
                req_id: 0x0102_0304_0506_0708,
                file: 77,
                data: Bytes::from(data),
            }
            .encode();
            assert!(whole == encoded[..], "{len}-byte payload differs");
            assert!(
                trickled.0 == encoded[..],
                "{len}-byte trickled payload differs"
            );
        }
    }

    /// A FileData header read off the stream leaves exactly the payload
    /// behind it, and any other frame is refused.
    #[test]
    fn file_data_header_leaves_the_payload() {
        let mut wire = Vec::new();
        write_file_data(&mut wire, 4, 9, &[1, 2, 3, 4, 5]).expect("write");
        write_message(&mut wire, &Message::Ok).expect("write");
        let mut r = std::io::Cursor::new(wire);
        assert_eq!(read_file_data_header(&mut r).expect("header"), (4, 9, 5));
        let mut payload = [0u8; 5];
        r.read_exact(&mut payload).expect("payload");
        assert_eq!(payload, [1, 2, 3, 4, 5]);
        assert!(read_file_data_header(&mut r).is_err());
        // A header whose length prefix disagrees with its payload length.
        let mut bad = Vec::new();
        write_file_data(&mut bad, 1, 1, &[0; 3]).expect("write");
        bad[0] += 1;
        assert!(read_file_data_header(&mut std::io::Cursor::new(bad)).is_err());
    }

    #[test]
    fn truncated_frames_rejected() {
        assert!(Message::decode(Bytes::new()).is_err());
        assert!(Message::decode(Bytes::from_static(&[1, 0, 0])).is_err());
        // Prefetch claiming 100 entries with none present.
        assert!(Message::decode(Bytes::from_static(&[2, 100, 0, 0, 0])).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            Message::decode(Bytes::from_static(&[200])),
            Err(CodecError::UnknownTag(200))
        ));
        // The first unassigned tag after the current protocol revision.
        assert!(matches!(
            Message::decode(Bytes::from_static(&[22])),
            Err(CodecError::UnknownTag(22))
        ));
    }

    #[test]
    fn hostile_list_counts_rejected_without_overflow() {
        // Prefetch claiming u32::MAX entries: `count * 4` must not wrap
        // into something smaller than `remaining`.
        let mut body = BytesMut::new();
        body.put_u8(2);
        body.put_u32_le(u32::MAX);
        body.extend_from_slice(&[0u8; 64]);
        assert!(Message::decode(body.freeze()).is_err());
        // Same for Hints (12-byte entries).
        let mut body = BytesMut::new();
        body.put_u8(3);
        body.put_u32_le(u32::MAX);
        body.extend_from_slice(&[0u8; 64]);
        assert!(Message::decode(body.freeze()).is_err());
    }

    #[test]
    fn filedata_u64_length_compared_exactly() {
        // A length field larger than the buffer must be rejected even if
        // its low 32 bits happen to match the remaining byte count.
        let mut body = BytesMut::new();
        body.put_u8(5);
        body.put_u64_le(0); // req_id
        body.put_u32_le(1);
        body.put_u64_le((1u64 << 32) + 4);
        body.extend_from_slice(&[9u8; 4]);
        assert!(Message::decode(body.freeze()).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        // Ok frame with junk appended.
        assert!(Message::decode(Bytes::from_static(&[6, 1, 2, 3])).is_err());
    }

    #[test]
    fn oversized_frame_rejected_on_read() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        buf.push(6);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_message(&mut cursor),
            Err(CodecError::Malformed(_))
        ));
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_message() -> impl Strategy<Value = Message> {
            prop_oneof![
                (any::<u32>(), any::<u64>(), any::<u32>())
                    .prop_map(|(file, size, disk)| Message::CreateFile { file, size, disk }),
                proptest::collection::vec(any::<u32>(), 0..64)
                    .prop_map(|files| Message::Prefetch { files }),
                proptest::collection::vec((any::<u64>(), any::<u32>()), 0..64)
                    .prop_map(|pattern| Message::Hints { pattern }),
                (
                    any::<u64>(),
                    any::<u32>(),
                    any::<u16>(),
                    any::<u64>(),
                    any::<u8>()
                )
                    .prop_map(
                        |(req_id, file, client_port, deadline_us, priority)| Message::Get {
                            req_id,
                            file,
                            client_port,
                            deadline_us,
                            priority
                        }
                    ),
                (
                    any::<u64>(),
                    any::<u32>(),
                    any::<u16>(),
                    any::<u64>(),
                    any::<u8>()
                )
                    .prop_map(
                        |(req_id, file, client_port, deadline_us, priority)| Message::Put {
                            req_id,
                            file,
                            client_port,
                            deadline_us,
                            priority
                        }
                    ),
                any::<u32>().prop_map(|node| Message::KillNode { node }),
                (any::<u32>(), any::<u32>())
                    .prop_map(|(node, disk)| Message::FailDisk { node, disk }),
                (any::<u32>(), any::<u32>())
                    .prop_map(|(node, disk)| Message::RepairDisk { node, disk }),
                (any::<u32>(), any::<u16>())
                    .prop_map(|(node, port)| Message::ReviveNode { node, port }),
                any::<u32>().prop_map(|node| Message::PartitionLink { node }),
                any::<u32>().prop_map(|node| Message::HealLink { node }),
                (any::<u32>(), any::<u16>())
                    .prop_map(|(node, port)| Message::Register { node, port }),
                (
                    any::<u64>(),
                    any::<u32>(),
                    proptest::collection::vec(any::<u8>(), 0..2048)
                )
                    .prop_map(|(req_id, file, data)| Message::FileData {
                        req_id,
                        file,
                        data: Bytes::from(data)
                    }),
                Just(Message::Ok),
                any::<u16>().prop_map(|code| Message::Err { code }),
                Just(Message::StatsRequest),
                (
                    any::<f64>().prop_filter("finite", |f| f.is_finite()),
                    proptest::collection::vec(any::<u64>(), StatsCounters::U64_FIELDS)
                )
                    .prop_map(|(disk_joules, c)| {
                        let mut fields = [0u64; StatsCounters::U64_FIELDS];
                        fields.copy_from_slice(&c);
                        Message::Stats {
                            counters: StatsCounters::from_u64_fields(disk_joules, fields),
                        }
                    }),
                (any::<u64>(), any::<u8>()).prop_map(|(retry_after_us, level)| Message::Busy {
                    retry_after_us,
                    level
                }),
                (any::<u64>(), any::<u16>(), any::<u8>()).prop_map(|(req_id, code, level)| {
                    Message::Shed {
                        req_id,
                        code,
                        level,
                    }
                }),
                any::<u8>().prop_map(|level| Message::Brownout { level }),
                Just(Message::Shutdown),
            ]
        }

        proptest! {
            /// Every message survives encode -> frame -> decode.
            #[test]
            fn any_message_roundtrips(msg in arb_message()) {
                let framed = msg.encode();
                let back = Message::decode(framed.slice(4..)).expect("decode");
                prop_assert_eq!(msg, back);
            }

            /// Arbitrary byte soup never panics the decoder, and never
            /// produces a frame that re-encodes differently.
            #[test]
            fn fuzz_decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
                if let Ok(msg) = Message::decode(Bytes::from(bytes)) {
                    let reframed = msg.clone().encode();
                    let again = Message::decode(reframed.slice(4..)).expect("re-decode");
                    prop_assert_eq!(msg, again);
                }
            }

            /// Every prefix of a valid frame body is rejected cleanly —
            /// truncation mid-field must never panic or decode as a
            /// different message.
            #[test]
            fn fuzz_truncated_valid_frames_never_panic(
                msg in arb_message(),
                keep_frac in 0.0f64..1.0,
            ) {
                let body = msg.encode().slice(4..);
                let keep = ((body.len() as f64) * keep_frac) as usize;
                if keep < body.len() {
                    // Only FileData carries an inner length that could make
                    // a prefix self-consistent; everything else must error.
                    let r = Message::decode(body.slice(..keep));
                    if let Ok(decoded) = r {
                        prop_assert!(matches!(decoded, Message::FileData { .. }));
                    }
                }
            }

            /// Flipping one byte of a valid frame body never panics the
            /// decoder (it may still decode, to the same or a sibling
            /// message — only totality is asserted).
            #[test]
            fn fuzz_byte_flips_never_panic(
                msg in arb_message(),
                pos_frac in 0.0f64..1.0,
                flip in 1u8..=255,
            ) {
                let mut bytes = msg.encode().slice(4..).to_vec();
                if !bytes.is_empty() {
                    let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
                    bytes[pos] ^= flip;
                    let _ = Message::decode(Bytes::from(bytes));
                }
            }
        }
    }

    #[test]
    fn filedata_length_mismatch_rejected() {
        let mut body = BytesMut::new();
        body.put_u8(5);
        body.put_u64_le(0); // req_id
        body.put_u32_le(1);
        body.put_u64_le(100); // claims 100 bytes
        body.put_u8(0); // provides 1
        assert!(Message::decode(body.freeze()).is_err());
    }
}
