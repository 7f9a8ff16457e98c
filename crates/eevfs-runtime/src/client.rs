//! The prototype's one client, shared by [`crate::ClusterHandle`] and
//! [`crate::loadgen`].
//!
//! A [`Client`] holds one server connection and one push inbox: the
//! callback listener every `Get` quotes, open for the client's whole
//! life. Each storage node connects to it on its first push and keeps
//! that connection (the paper's step 6 over a persistent stream). One
//! reader thread per accepted connection reads the `FileData` frames
//! into one channel, stamped with their arrival time, and the waiting
//! request takes its own frame by `req_id`. A push nobody waits for any
//! more (a hedge loser's copy, or the late answer to a request that timed
//! out) carries an older id and is dropped when the next request meets it.
//!
//! A request blocks on the server's reply first and only then on its
//! push. That cannot deadlock: the readers drain every push connection
//! all the time, and a node writes the push in full before it acks the
//! server. A server read that times out may leave part of a frame
//! behind, and the reply may still come, so the client then moves to a
//! fresh server connection. Dropping the client joins its acceptor and
//! every reader: no thread outlives it.

use crate::cluster::{GetOutcome, GetResult};
use crate::proto::{read_file_data_header, read_message, write_message, Message};
use crate::transport::no_delay;
use bytes::Bytes;
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One server connection plus the push inbox its `Get`s quote.
pub(crate) struct Client {
    server: SocketAddr,
    conn: TcpStream,
    /// How long an operation waits for the server, and then for its push.
    timeout: Duration,
    /// The push inbox: its port, the channel its readers feed, and its
    /// acceptor, which counts the push connections it accepts.
    port: u16,
    pushes: Receiver<Push>,
    accepted: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl Client {
    /// Connects to the server and opens the push inbox. A client that
    /// does not `keep_data` still reads every pushed byte, but hands back
    /// served reads without their data.
    pub(crate) fn connect(
        server: SocketAddr,
        timeout: Duration,
        keep_data: bool,
    ) -> io::Result<Client> {
        let conn = server_conn(server, timeout)?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let port = listener.local_addr()?.port();
        let (tx, pushes) = channel();
        let accepted = Arc::<AtomicUsize>::default();
        let stop = Arc::<AtomicBool>::default();
        let acceptor = {
            let (accepted, stop) = (Arc::clone(&accepted), Arc::clone(&stop));
            std::thread::Builder::new()
                .name("eevfs-client-acceptor".into())
                .spawn(move || accept_pushes(&listener, &tx, &accepted, &stop, keep_data))?
        };
        Ok(Client {
            server,
            conn,
            timeout,
            port,
            pushes,
            accepted,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// Sends one frame to the server.
    pub(crate) fn send(&mut self, msg: &Message) -> io::Result<()> {
        write_message(&mut self.conn, msg).map_err(io::Error::from)
    }

    /// Sends `msg` and waits for its reply.
    pub(crate) fn call(&mut self, msg: &Message) -> io::Result<Message> {
        self.send(msg)?;
        self.reply()
    }

    /// The server's reply to the current operation. After a timeout the
    /// client continues on a fresh connection, so the late reply can
    /// never answer a later operation.
    pub(crate) fn reply(&mut self) -> io::Result<Message> {
        read_message(&mut self.conn).map_err(|e| match io::Error::from(e) {
            e if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
            {
                match server_conn(self.server, self.timeout) {
                    Ok(fresh) => {
                        self.conn = fresh;
                        io::Error::new(io::ErrorKind::TimedOut, "timed out waiting for the server")
                    }
                    Err(e) => e,
                }
            }
            e => e,
        })
    }

    /// Sends a `Get` that quotes this client's push inbox.
    pub(crate) fn send_get(
        &mut self,
        req_id: u64,
        file: u32,
        deadline_us: u64,
        priority: u8,
    ) -> io::Result<()> {
        self.send(&Message::Get {
            req_id,
            file,
            client_port: self.port,
            deadline_us,
            priority,
        })
    }

    /// Waits for the outcome of the `Get` `req_id` for `file`: the
    /// server's reply, then, when that is `Ok`, the node's push for this
    /// id. `Busy`, `Shed` and `Err` end the request on the server
    /// connection. The response time runs from `start` to the push's
    /// arrival. The data is empty unless the client keeps data.
    pub(crate) fn await_get(
        &mut self,
        req_id: u64,
        file: u32,
        start: Instant,
    ) -> io::Result<GetOutcome> {
        match self.reply()? {
            Message::Ok => {}
            Message::Busy {
                retry_after_us,
                level,
            } => {
                return Ok(GetOutcome::Busy {
                    retry_after_us,
                    level,
                })
            }
            Message::Shed { code, level, .. } => return Ok(GetOutcome::Shed { code, level }),
            other => return Err(refused(other)),
        }
        let deadline = start + self.timeout;
        loop {
            let wait = deadline.saturating_duration_since(Instant::now());
            let push = self.pushes.recv_timeout(wait).map_err(|_| {
                let accepted = self.accepted.load(Ordering::SeqCst);
                io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("no push arrived in time ({accepted} push connections accepted)"),
                )
            })?;
            if push.req_id != req_id {
                continue; // a stale push: its request is over
            }
            if push.file != file {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("push of file {} for file {file}", push.file),
                ));
            }
            return Ok(GetOutcome::Data(GetResult {
                data: push.data,
                response: push.at.saturating_duration_since(start),
            }));
        }
    }

    /// Push connections the inbox has accepted so far.
    #[cfg(test)]
    pub(crate) fn push_connections(&self) -> usize {
        self.accepted.load(Ordering::SeqCst)
    }
}

impl Drop for Client {
    /// Unblocks the acceptor with a self-connect, then joins it; it joins
    /// the readers.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = TcpStream::connect(SocketAddr::from(([127, 0, 0, 1], self.port)));
            let _ = acceptor.join();
        }
    }
}

/// A server connection whose reads give up after `timeout`.
fn server_conn(server: SocketAddr, timeout: Duration) -> io::Result<TcpStream> {
    let conn = no_delay(TcpStream::connect(server)?)?;
    conn.set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
    Ok(conn)
}

/// The error for a reply that ends an operation without its success.
pub(crate) fn refused(reply: Message) -> io::Error {
    match reply {
        Message::Err { code } => io::Error::other(format!("server error {code}")),
        other => io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected ack {other:?}"),
        ),
    }
}

/// One `FileData` push, stamped when its reader had read it in full.
struct Push {
    at: Instant,
    req_id: u64,
    file: u32,
    /// The payload, or nothing when the client does not keep data.
    data: Bytes,
}

/// The inbox's acceptor: one reader thread per push connection, all
/// feeding `tx`. Once stopped, it closes every connection and joins every
/// reader before it returns.
fn accept_pushes(
    listener: &TcpListener,
    tx: &Sender<Push>,
    accepted: &AtomicUsize,
    stop: &AtomicBool,
    keep_data: bool,
) {
    let mut readers = Vec::new();
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok((conn, closer)) = conn
            .and_then(no_delay)
            .and_then(|c| c.try_clone().map(|closer| (c, closer)))
        else {
            continue;
        };
        accepted.fetch_add(1, Ordering::SeqCst);
        let tx = tx.clone();
        if let Ok(reader) = std::thread::Builder::new()
            .name("eevfs-client-push".into())
            .spawn(move || read_pushes(conn, &tx, keep_data))
        {
            readers.push((closer, reader));
        }
    }
    for (closer, reader) in readers {
        let _ = closer.shutdown(Shutdown::Both);
        let _ = reader.join();
    }
}

/// One push connection's reader: forwards `FileData` frames until the
/// node closes the connection or sends anything else. A client that
/// keeps data gets each payload in a buffer of its own. For one that does
/// not, the payload is drained through a small reused scratch buffer, so
/// no payload-sized buffer is ever allocated for it.
fn read_pushes(mut conn: TcpStream, tx: &Sender<Push>, keep_data: bool) {
    let mut scratch = vec![0u8; if keep_data { 0 } else { 64 << 10 }];
    while let Ok((req_id, file, len)) = read_file_data_header(&mut conn) {
        let data = if keep_data {
            let mut data = Vec::with_capacity(len as usize);
            match (&mut conn).take(len).read_to_end(&mut data) {
                Ok(n) if n as u64 == len => Bytes::from(data),
                _ => break,
            }
        } else {
            let mut left = len as usize;
            while left > 0 {
                let n = left.min(scratch.len());
                if conn.read_exact(&mut scratch[..n]).is_err() {
                    return;
                }
                left -= n;
            }
            Bytes::new()
        };
        let push = Push {
            at: Instant::now(),
            req_id,
            file,
            data,
        };
        if tx.send(push).is_err() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reply the client gave up on never answers a later operation:
    /// after the timeout the client talks to the server over a fresh
    /// connection, and the late reply dies with the old one.
    #[test]
    fn a_late_reply_never_answers_the_next_operation() -> io::Result<()> {
        let server = TcpListener::bind("127.0.0.1:0")?;
        let mut client = Client::connect(server.local_addr()?, Duration::from_millis(50), true)?;
        let (mut first, _) = server.accept()?;
        let timed_out = client.call(&Message::StatsRequest);
        assert!(
            matches!(&timed_out, Err(e) if e.kind() == io::ErrorKind::TimedOut),
            "{timed_out:?}"
        );
        let (mut second, _) = server.accept()?;
        assert_eq!(read_message(&mut first)?, Message::StatsRequest);
        write_message(&mut first, &Message::Ok)?;
        client.send(&Message::StatsRequest)?;
        assert_eq!(read_message(&mut second)?, Message::StatsRequest);
        write_message(&mut second, &Message::Err { code: 7 })?;
        assert_eq!(client.reply()?, Message::Err { code: 7 });
        Ok(())
    }
}
