//! Fault-injecting transport for the server→node control links.
//!
//! [`FaultyTransport`] wraps one node's control [`TcpStream`] and routes
//! every request-path send through a [`fault_model::NetFaultInjector`]
//! decision:
//!
//! * **Deliver** — write the frame as usual.
//! * **Delay** — sleep the injected spike (wall-interpreted, capped) and
//!   then write; the response is late exactly like a congested link.
//! * **Drop** — *never write the frame*. The caller sees the same thing a
//!   lost packet produces: silence, surfaced as an immediate per-try
//!   timeout. Because nothing was written, the node owes no reply and the
//!   connection needs no draining.
//! * **Reset** — never write; surface a synthetic connection reset.
//!
//! Setup and admin traffic bypasses the injector via
//! [`FaultyTransport::send_raw`] (a fault plan that could starve setup
//! would deadlock the cluster boot, and the paper's experiments only
//! perturb the request path).
//!
//! The wrapper also keeps the **pending-reply ledger** hedged reads need:
//! when a racing request loses, its reply is still owed on this
//! connection and must be consumed before the next exchange —
//! [`FaultyTransport::drain_pending`] does that.

use crate::proto::{read_message, write_message, CodecError, Message};
use fault_model::{LinkDecision, NetFaultInjector};
use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// Hard cap on any single injected delay sleep, so a heavy-tailed
/// exponential draw cannot stall a test run.
const MAX_DELAY_SLEEP: Duration = Duration::from_secs(2);

/// Turns Nagle's algorithm off on a runtime socket. Every frame is written
/// whole and then waited on, so there is never a later write for Nagle to
/// coalesce with: it can only hold a frame's tail segment back until the
/// peer's (possibly delayed) ACK. Connects and accepts both go through
/// here, so every runtime socket sends its frames at once.
pub fn no_delay(conn: TcpStream) -> io::Result<TcpStream> {
    conn.set_nodelay(true)?;
    Ok(conn)
}

/// What happened to a fault-gated send.
#[derive(Debug)]
pub enum SendError {
    /// The injector dropped the frame; nothing was written.
    Dropped,
    /// The injector reset the connection; nothing was written.
    Reset,
    /// The underlying write failed (the node is really gone).
    Io(CodecError),
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::Dropped => write!(f, "frame dropped by fault injection"),
            SendError::Reset => write!(f, "connection reset by fault injection"),
            SendError::Io(e) => write!(f, "transport: {e}"),
        }
    }
}

impl std::error::Error for SendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SendError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// One node's control connection, with fault injection on the send path.
pub struct FaultyTransport {
    conn: TcpStream,
    /// Link index this connection represents in the injector.
    link: usize,
    /// Replies owed on this connection by abandoned (hedge-losing)
    /// requests, to be drained before the next exchange.
    pending: u32,
    /// The read timeout the socket holds, so that repeated polls with the
    /// same timeout cost no `setsockopt`.
    read_timeout: Option<Duration>,
}

impl FaultyTransport {
    /// Wraps an established node connection as link `link`.
    pub fn new(conn: TcpStream, link: usize) -> FaultyTransport {
        FaultyTransport {
            conn,
            link,
            pending: 0,
            read_timeout: None,
        }
    }

    /// Replaces the underlying connection (node revival). Owed replies
    /// died with the old socket.
    pub fn reconnect(&mut self, conn: TcpStream) {
        self.conn = conn;
        self.pending = 0;
        self.read_timeout = None;
    }

    /// Sends one request-path frame, consulting the injector.
    ///
    /// `delay_cap` additionally bounds injected delay sleeps (use the
    /// policy's per-try timeout); `MAX_DELAY_SLEEP` always applies.
    pub fn send(
        &mut self,
        injector: &mut NetFaultInjector,
        msg: &Message,
        delay_cap: Duration,
    ) -> Result<(), SendError> {
        match injector.decide(self.link) {
            LinkDecision::Drop => Err(SendError::Dropped),
            LinkDecision::Reset => Err(SendError::Reset),
            LinkDecision::Delay(spike) => {
                let wall = Duration::from_micros(spike.as_micros())
                    .min(delay_cap)
                    .min(MAX_DELAY_SLEEP);
                std::thread::sleep(wall);
                write_message(&mut self.conn, msg).map_err(SendError::Io)
            }
            LinkDecision::Deliver => write_message(&mut self.conn, msg).map_err(SendError::Io),
        }
    }

    /// Sends bypassing the injector (setup, stats, admin, shutdown).
    pub fn send_raw(&mut self, msg: &Message) -> Result<(), CodecError> {
        write_message(&mut self.conn, msg)
    }

    /// Blocking receive of the next reply (drains owed replies first).
    pub fn recv(&mut self) -> Result<Message, CodecError> {
        self.drain_pending()?;
        self.blocking_read()
    }

    /// Receives with a timeout: `Ok(None)` when nothing arrived in time.
    ///
    /// Implemented as a timed 1-byte peek followed by a blocking frame
    /// read, so a timeout can never strand a half-read frame on the
    /// stream. The timeout stays on the socket after a poll that found
    /// nothing, so the hedge race's repeated polls set it only once.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, CodecError> {
        self.drain_pending()?;
        // Zero-duration read timeouts mean "no timeout" to the OS; clamp.
        self.set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
        let mut probe = [0u8; 1];
        match self.conn.peek(&mut probe) {
            Ok(n) if n > 0 => self.blocking_read().map(Some),
            Ok(_) => Ok(None),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(e) => Err(CodecError::Io(e)),
        }
    }

    /// Records that one reply is owed on this connection (a hedge loser's
    /// answer that nobody waited for).
    pub fn abandon_reply(&mut self) {
        self.pending += 1;
    }

    /// Consumes owed replies so the next exchange pairs up correctly.
    pub fn drain_pending(&mut self) -> Result<(), CodecError> {
        while self.pending > 0 {
            self.blocking_read()?;
            self.pending -= 1;
        }
        Ok(())
    }

    /// Reads one whole frame with no read timeout on the socket, so a
    /// slow frame is waited for rather than cut off.
    fn blocking_read(&mut self) -> Result<Message, CodecError> {
        self.set_read_timeout(None)?;
        read_message(&mut self.conn)
    }

    /// Sets the socket's read timeout when it differs from the one it
    /// holds.
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        if self.read_timeout != timeout {
            self.conn.set_read_timeout(timeout)?;
            self.read_timeout = timeout;
        }
        Ok(())
    }
}

// The tests return `Result` and propagate failures with `?` instead of
// unwrap/expect, keeping the crate-level `clippy::unwrap_used` gate clean
// without an allow on this module.
#[cfg(test)]
mod tests {
    use super::*;
    use fault_model::{LinkFaultProfile, NetFaultPlan};
    use std::net::TcpListener;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn pair() -> io::Result<(TcpStream, TcpStream)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let a = TcpStream::connect(addr)?;
        let (b, _) = listener.accept()?;
        Ok((a, b))
    }

    fn perfect(links: usize) -> NetFaultInjector {
        NetFaultInjector::new(LinkFaultProfile::none(), NetFaultPlan::none(), links)
    }

    /// Unwraps `recv_timeout`'s inner option, turning "no frame arrived"
    /// into a typed error instead of a panic.
    fn must_arrive(got: Option<Message>) -> Result<Message, CodecError> {
        got.ok_or(CodecError::Unexpected {
            expected: "a frame before the timeout",
            got: "silence",
        })
    }

    #[test]
    fn deliver_roundtrips() -> TestResult {
        let (client, mut server) = pair()?;
        let mut t = FaultyTransport::new(client, 0);
        let mut inj = perfect(1);
        t.send(&mut inj, &Message::Ok, Duration::from_secs(1))?;
        assert_eq!(read_message(&mut server)?, Message::Ok);
        write_message(&mut server, &Message::Ok)?;
        assert_eq!(t.recv()?, Message::Ok);
        Ok(())
    }

    #[test]
    fn partitioned_link_drops_without_writing() -> TestResult {
        let (client, mut server) = pair()?;
        let mut t = FaultyTransport::new(client, 0);
        let mut inj = perfect(1);
        inj.set_link(0, false);
        assert!(matches!(
            t.send(&mut inj, &Message::Ok, Duration::from_secs(1)),
            Err(SendError::Dropped)
        ));
        // Nothing reached the peer: a heal and resend pairs up cleanly.
        inj.set_link(0, true);
        t.send(&mut inj, &Message::StatsRequest, Duration::from_secs(1))?;
        assert_eq!(read_message(&mut server)?, Message::StatsRequest);
        Ok(())
    }

    #[test]
    fn recv_timeout_returns_none_then_the_frame() -> TestResult {
        let (client, mut server) = pair()?;
        let mut t = FaultyTransport::new(client, 0);
        assert!(t.recv_timeout(Duration::from_millis(10))?.is_none());
        write_message(&mut server, &Message::Err { code: 7 })?;
        let got = must_arrive(t.recv_timeout(Duration::from_millis(500))?)?;
        assert_eq!(got, Message::Err { code: 7 });
        Ok(())
    }

    #[test]
    fn recv_after_a_timed_out_recv_timeout_blocks_until_the_frame() -> TestResult {
        let (client, mut server) = pair()?;
        let mut t = FaultyTransport::new(client, 0);
        assert!(t.recv_timeout(Duration::from_millis(10))?.is_none());
        // The poll's timeout stays on the socket for the next poll.
        assert!(t.conn.read_timeout()?.is_some());
        // The frame comes well after the poll's timeout: a blocking recv
        // must wait for it rather than fail with `TimedOut`.
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            write_message(&mut server, &Message::Err { code: 3 })
        });
        assert_eq!(t.recv()?, Message::Err { code: 3 });
        assert_eq!(t.conn.read_timeout()?, None);
        writer.join().map_err(|_| "writer panicked")??;
        Ok(())
    }

    #[test]
    fn abandoned_replies_are_drained_before_the_next_exchange() -> TestResult {
        let (client, mut server) = pair()?;
        let mut t = FaultyTransport::new(client, 0);
        // Two stale replies sit on the wire (a lost hedge race).
        write_message(&mut server, &Message::Ok)?;
        write_message(&mut server, &Message::Ok)?;
        t.abandon_reply();
        t.abandon_reply();
        // The real answer follows; recv must skip the stale ones.
        write_message(&mut server, &Message::Err { code: 9 })?;
        assert_eq!(t.recv()?, Message::Err { code: 9 });
        Ok(())
    }
}
