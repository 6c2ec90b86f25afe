//! Socket transports: Unix-domain sockets and TCP over `std::net`.
//!
//! Both flavors share one implementation over a small stream enum; the
//! only differences are addressing (filesystem paths vs socket addresses)
//! and `TCP_NODELAY` (signals are tiny and latency-critical, so Nagle is
//! disabled).
//!
//! # Mesh formation
//!
//! Every rank binds its listener **first**, then connects to all lower
//! ranks (with capped exponential [`Backoff`], because a peer process may
//! not have bound yet), then accepts the `nodes − 1 − rank` connections
//! from higher ranks. Connect-side dependencies point only at listeners,
//! which exist before any rank blocks, and accepted connections queue in
//! the kernel backlog — so formation cannot deadlock regardless of
//! process start order.
//!
//! Each connection starts with a `Hello { rank, nodes }` frame. A
//! connection whose hello is garbage, inconsistent, or duplicated is
//! dropped and accepting continues: a stranger spraying bytes at a
//! listener can waste one backlog slot, never wedge or corrupt the mesh.
//!
//! # Delivery
//!
//! Once the handshake is done a link is non-blocking for life and there is
//! exactly one receive path, [`Transport::poll`]: for each link it can
//! claim (a `try_lock` — one pumper per link, a loser just re-checks its
//! predicate) it first decodes every whole frame already in the link's
//! small receive buffer, then `read`s what the socket holds and decodes
//! again, until the socket is dry. It never waits for data. A header is
//! validated as soon as its eight bytes are in, before any of its payload
//! is awaited, and a legal frame always fits the buffer — a corrupt
//! length can neither force an unbounded read nor park the link. A clean
//! `Bye` reports `link_down(peer, graceful = true)`; EOF or an I/O or
//! decode error without one reports a non-graceful link-down, which the
//! barrier layer treats as a peer death (after a decode error the
//! connection is dropped: framing is lost). Either way the link is then
//! closed and later polls are silent about it.
//!
//! Two drivers call that one path, each with its own sink. Threads
//! already inside the barrier poll as part of the protocol pump — `arrive`
//! after it has sent its signal, every probe of a pending episode before
//! it drives — and pass a sink over their own call, so the waiter reads
//! the frame that releases it itself and takes no lock to do so. And
//! [`Transport::start`] spawns **one** sweeper thread per endpoint — not
//! per link — that upgrades the started sink once per sweep (the only
//! code that touches it), loops the same `poll` into it, and naps 1 ms
//! (`SWEEP_NAP`) after a sweep that found nothing: it is what delivers
//! while every local thread is outside the barrier, so a `Poison`, a
//! peer's death or a completing signal is seen even if nobody pumps.
//!
//! A frame is written from a stack buffer ([`Message::encode_into`]):
//! a send allocates nothing.
//!
//! Frames are delivered with the link's receive lock held, and delivery
//! may send (the barrier's pump answers a signal with the next round's).
//! That cannot fill a socket buffer: a barrier keeps at most two episodes
//! of `⌈log₂ nodes⌉` small frames in flight per link.

use crate::error::NetError;
use crate::transport::{Backoff, FrameSink, Transport};
use crate::wire::{self, DecodeError, Message, HEADER_LEN, MAX_ENCODED, MAX_PAYLOAD};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the sweeper sleeps after a sweep that delivered nothing.
const SWEEP_NAP: Duration = Duration::from_millis(1);
/// Receive buffer per link: the largest legal frame, i.e. a dozen signals.
/// Anything that does not fit fails header validation first.
const RX_BUF: usize = HEADER_LEN + MAX_PAYLOAD;
/// How long mesh formation waits for peers to connect and say hello.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(20);
/// How many malformed connections formation tolerates before giving up.
const MAX_BAD_HANDSHAKES: usize = 64;

/// The socket file for `rank` inside a mesh directory.
#[must_use]
pub fn unix_socket_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("fuzzy-net-{rank}.sock"))
}

#[derive(Debug)]
enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(dur),
            Stream::Tcp(s) => s.set_read_timeout(dur),
        }
    }

    fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_nonblocking(on),
            Stream::Tcp(s) => s.set_nonblocking(on),
        }
    }

    fn shutdown_both(&self) {
        let _ = match self {
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            Listener::Unix(l) => l.set_nonblocking(on),
            Listener::Tcp(l) => l.set_nonblocking(on),
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        Ok(match self {
            Listener::Unix(l) => Stream::Unix(l.accept()?.0),
            Listener::Tcp(l) => {
                let s = l.accept()?.0;
                s.set_nodelay(true)?;
                Stream::Tcp(s)
            }
        })
    }
}

struct Link {
    writer: Mutex<Stream>,
    /// The read half and its reassembly buffer; whoever holds the lock is
    /// the link's one pumper.
    rx: Mutex<Rx>,
}

/// The receive side of one link: bytes read but not yet decoded sit in
/// `buf[..len]`, always starting on a frame boundary.
struct Rx {
    stream: Stream,
    buf: [u8; RX_BUF],
    len: usize,
    /// Cleared when the link's end (`Bye`, EOF, an error) has been seen.
    open: bool,
}

struct Inner {
    rank: usize,
    nodes: usize,
    links: Vec<Option<Link>>,
    sink: Mutex<Option<Weak<dyn FrameSink>>>,
    shutdown: AtomicBool,
    sweeper: Mutex<Option<JoinHandle<()>>>,
    /// Our own listener's socket file, removed at shutdown (UDS only).
    own_path: Option<PathBuf>,
}

/// A socket-backed mesh endpoint (Unix-domain or TCP).
pub struct SocketTransport {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for SocketTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketTransport")
            .field("rank", &self.inner.rank)
            .field("nodes", &self.inner.nodes)
            .finish()
    }
}

impl SocketTransport {
    /// Forms a Unix-domain-socket mesh endpoint. Every process of the mesh
    /// must call this with the same `dir` and `nodes`; the call blocks
    /// until the full mesh is connected (bounded by the backoff budget and
    /// `HANDSHAKE_TIMEOUT`).
    pub fn unix(rank: usize, nodes: usize, dir: &Path) -> Result<Self, NetError> {
        Self::unix_with(rank, nodes, dir, Backoff::default())
    }

    /// [`SocketTransport::unix`] with an explicit connect backoff.
    pub fn unix_with(
        rank: usize,
        nodes: usize,
        dir: &Path,
        backoff: Backoff,
    ) -> Result<Self, NetError> {
        check_rank(rank, nodes)?;
        let own = unix_socket_path(dir, rank);
        // A stale file from a crashed previous run would make bind fail.
        let _ = std::fs::remove_file(&own);
        let listener = UnixListener::bind(&own).map_err(setup_err)?;
        let connect = |peer: usize| -> io::Result<Stream> {
            Ok(Stream::Unix(UnixStream::connect(unix_socket_path(
                dir, peer,
            ))?))
        };
        Self::form(
            rank,
            nodes,
            Listener::Unix(listener),
            Some(own),
            connect,
            backoff,
        )
    }

    /// Forms a TCP mesh endpoint. `addrs[i]` is the listen address of rank
    /// `i`; the mesh size is `addrs.len()`.
    pub fn tcp(rank: usize, addrs: &[SocketAddr]) -> Result<Self, NetError> {
        Self::tcp_with(rank, addrs, Backoff::default())
    }

    /// [`SocketTransport::tcp`] with an explicit connect backoff.
    pub fn tcp_with(rank: usize, addrs: &[SocketAddr], backoff: Backoff) -> Result<Self, NetError> {
        let nodes = addrs.len();
        check_rank(rank, nodes)?;
        let listener = TcpListener::bind(addrs[rank]).map_err(setup_err)?;
        let addrs = addrs.to_vec();
        let connect = move |peer: usize| -> io::Result<Stream> {
            let s = TcpStream::connect(addrs[peer])?;
            s.set_nodelay(true)?;
            Ok(Stream::Tcp(s))
        };
        Self::form(rank, nodes, Listener::Tcp(listener), None, connect, backoff)
    }

    fn form(
        rank: usize,
        nodes: usize,
        listener: Listener,
        own_path: Option<PathBuf>,
        connect: impl Fn(usize) -> io::Result<Stream>,
        backoff: Backoff,
    ) -> Result<Self, NetError> {
        let mut links: Vec<Option<Link>> = (0..nodes).map(|_| None).collect();
        let hello = Message::Hello {
            rank: rank as u32,
            nodes: nodes as u32,
        };
        // Connect to every lower rank; their listeners may not exist yet.
        for (peer, slot) in links.iter_mut().enumerate().take(rank) {
            let mut stream = backoff.retry(|| connect(peer)).map_err(|e| NetError::Io {
                peer: Some(peer),
                source: e,
            })?;
            stream
                .write_all(&hello.encode())
                .map_err(|e| NetError::Io {
                    peer: Some(peer),
                    source: e,
                })?;
            *slot = Some(link_from(stream).map_err(setup_err)?);
        }
        // Accept from every higher rank; malformed connections are dropped
        // and accepting continues.
        listener.set_nonblocking(true).map_err(setup_err)?;
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        let mut expected: usize = nodes - 1 - rank;
        let mut bad = 0usize;
        while expected > 0 {
            let mut stream = match listener.accept() {
                Ok(s) => s,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(NetError::Handshake {
                            detail: format!("timed out waiting for {expected} peer(s)"),
                        });
                    }
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                }
                Err(e) => return Err(setup_err(e)),
            };
            match read_hello(&mut stream) {
                Ok((peer_rank, peer_nodes))
                    if peer_nodes == nodes
                        && peer_rank > rank
                        && peer_rank < nodes
                        && links[peer_rank].is_none() =>
                {
                    links[peer_rank] = Some(link_from(stream).map_err(setup_err)?);
                    expected -= 1;
                }
                _ => {
                    // Garbage, a misconfigured peer, or a duplicate: drop
                    // the connection, keep the mesh intact.
                    stream.shutdown_both();
                    bad += 1;
                    if bad > MAX_BAD_HANDSHAKES {
                        return Err(NetError::Handshake {
                            detail: format!("{bad} malformed connections"),
                        });
                    }
                }
            }
        }
        Ok(SocketTransport {
            inner: Arc::new(Inner {
                rank,
                nodes,
                links,
                sink: Mutex::new(None),
                shutdown: AtomicBool::new(false),
                sweeper: Mutex::new(None),
                own_path,
            }),
        })
    }
}

fn check_rank(rank: usize, nodes: usize) -> Result<(), NetError> {
    if nodes == 0 || rank >= nodes {
        return Err(NetError::Handshake {
            detail: format!("rank {rank} of {nodes}"),
        });
    }
    Ok(())
}

fn setup_err(source: io::Error) -> NetError {
    NetError::Io { peer: None, source }
}

/// Splits a handshaken stream into a link (cloned writer + read half).
/// Non-blocking mode is a property of the socket, not of the handle, so
/// the writer shares it: see `send`.
fn link_from(stream: Stream) -> io::Result<Link> {
    stream.set_nonblocking(true)?;
    let writer = stream.try_clone()?;
    Ok(Link {
        writer: Mutex::new(writer),
        rx: Mutex::new(Rx {
            stream,
            buf: [0; RX_BUF],
            len: 0,
            open: true,
        }),
    })
}

/// Reads and validates the handshake frame, under a read timeout so a
/// silent connection cannot stall mesh formation for long.
fn read_hello(stream: &mut Stream) -> Result<(usize, usize), NetError> {
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .map_err(setup_err)?;
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header).map_err(setup_err)?;
    let (kind, len) = wire::decode_header(&header)?;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).map_err(setup_err)?;
    match wire::decode_payload(kind, &payload)? {
        Message::Hello { rank, nodes } => Ok((rank as usize, nodes as usize)),
        other => Err(NetError::Handshake {
            detail: format!("expected hello, got {other:?}"),
        }),
    }
}

impl Rx {
    /// Delivers every frame of this link that has already arrived and
    /// returns how many; reports the link's end, once, when it sees it.
    fn pump(&mut self, peer: usize, sink: &dyn FrameSink, stop: &AtomicBool) -> usize {
        let mut delivered = 0;
        let mut dry = false;
        while self.open {
            // Whole frames first: what an earlier read left behind must
            // not wait for the socket to have more.
            delivered += self.deliver_buffered(peer, sink, stop);
            if dry || !self.open {
                break;
            }
            // A partial frame is shorter than a whole one, so there is room.
            let room = &mut self.buf[self.len..];
            match self.stream.read(room) {
                Ok(0) => self.close(peer, sink, stop, false),
                Ok(n) => {
                    // A short read emptied the socket: skip the read that
                    // would only say `WouldBlock`.
                    dry = n < room.len();
                    self.len += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.close(peer, sink, stop, false),
            }
        }
        delivered
    }

    /// Decodes and delivers the whole frames in the buffer, then moves the
    /// partial frame behind them (if any) to the front.
    fn deliver_buffered(&mut self, peer: usize, sink: &dyn FrameSink, stop: &AtomicBool) -> usize {
        let mut at = 0;
        let mut delivered = 0;
        while self.open {
            match wire::decode(&self.buf[at..self.len]) {
                Ok((Message::Bye, _)) => self.close(peer, sink, stop, true),
                Ok((msg, used)) => {
                    at += used;
                    sink.deliver(peer, msg);
                    delivered += 1;
                }
                // The rest of the frame has not arrived yet.
                Err(DecodeError::Truncated { .. }) => break,
                Err(e) => {
                    // Framing is lost; the connection is unrecoverable.
                    sink.decode_failure(peer, e);
                    self.stream.shutdown_both();
                    self.close(peer, sink, stop, false);
                }
            }
        }
        self.buf.copy_within(at..self.len, 0);
        self.len -= at;
        delivered
    }

    /// Marks the link ended and tells the sink — unless the end is our own
    /// `shutdown` closing the socket under us, which is nobody's death.
    fn close(&mut self, peer: usize, sink: &dyn FrameSink, stop: &AtomicBool, graceful: bool) {
        self.open = false;
        if !stop.load(Ordering::Acquire) {
            sink.link_down(peer, graceful);
        }
    }
}

impl Inner {
    /// The one receive path; see [`Transport::poll`].
    fn poll(&self, sink: &dyn FrameSink) -> usize {
        if self.shutdown.load(Ordering::Acquire) {
            return 0;
        }
        let mut delivered = 0;
        for (peer, link) in self.links.iter().enumerate() {
            let Some(link) = link else { continue };
            // One pumper per link keeps its frames in order; the loser's
            // frames are being delivered for it.
            if let Ok(mut rx) = link.rx.try_lock() {
                delivered += rx.pump(peer, sink, &self.shutdown);
            }
        }
        delivered
    }
}

/// The endpoint's background driver of `poll`, for when no caller is: one
/// upgrade of the started sink per sweep.
fn sweeper_loop(inner: &Inner) {
    while !inner.shutdown.load(Ordering::Acquire) {
        let sink = inner
            .sink
            .lock()
            .expect("sink lock")
            .as_ref()
            .and_then(Weak::upgrade);
        let delivered = sink.as_deref().map_or(0, |sink| inner.poll(sink));
        // `sink` drops here, after every receive lock: if it was the last
        // handle, the barrier — and this transport — shut down on this
        // thread.
        drop(sink);
        if delivered == 0 {
            std::thread::sleep(SWEEP_NAP);
        }
    }
}

impl Transport for SocketTransport {
    fn rank(&self) -> usize {
        self.inner.rank
    }

    fn nodes(&self) -> usize {
        self.inner.nodes
    }

    fn send(&self, to: usize, msg: &Message) -> Result<(), NetError> {
        let stop = &self.inner.shutdown;
        if stop.load(Ordering::Acquire) {
            return Err(NetError::Closed);
        }
        let link = self
            .inner
            .links
            .get(to)
            .and_then(Option::as_ref)
            .ok_or(NetError::PeerDown { peer: to })?;
        let mut frame = [0; MAX_ENCODED];
        let len = msg.encode_into(&mut frame);
        // Held across the whole frame: a partial write must be finished by
        // the sender that started it.
        let mut writer = link.writer.lock().expect("writer lock");
        let mut rest = &frame[..len];
        while !rest.is_empty() {
            match writer.write(rest) {
                Ok(0) => return Err(NetError::io(to, io::ErrorKind::WriteZero.into())),
                Ok(n) => rest = &rest[n..],
                // The socket is non-blocking for the receive side's sake,
                // so a full buffer shows up here. It is back-pressure from
                // a peer that has not read yet, not a death: wait for it.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) =>
                {
                    if stop.load(Ordering::Acquire) {
                        return Err(NetError::Closed);
                    }
                    std::thread::yield_now();
                }
                Err(e) => return Err(NetError::io(to, e)),
            }
        }
        Ok(())
    }

    fn start(&self, sink: Arc<dyn FrameSink>) {
        *self.inner.sink.lock().expect("sink lock") = Some(Arc::downgrade(&sink));
        let mut sweeper = self.inner.sweeper.lock().expect("sweeper lock");
        if sweeper.is_none() && !self.inner.shutdown.load(Ordering::Acquire) {
            let inner = Arc::clone(&self.inner);
            *sweeper = Some(
                std::thread::Builder::new()
                    .name(format!("fuzzy-net-rx-{}", self.inner.rank))
                    .spawn(move || sweeper_loop(&inner))
                    .expect("spawn sweeper"),
            );
        }
    }

    fn poll(&self, sink: &dyn FrameSink) -> usize {
        self.inner.poll(sink)
    }

    fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        let mut bye = [0; MAX_ENCODED];
        let len = Message::Bye.encode_into(&mut bye);
        for link in self.inner.links.iter().flatten() {
            // A sender stalled on back-pressure sees the flag and lets go.
            let mut writer = link.writer.lock().expect("writer lock");
            let _ = writer.write_all(&bye[..len]);
            writer.shutdown_both();
        }
        let sweeper = self.inner.sweeper.lock().expect("sweeper lock").take();
        if let Some(handle) = sweeper {
            // The sweeper itself gets here when the sink it has just
            // delivered to was the last owner of this transport; joining
            // oneself is an error, and it exits on the flag anyway.
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
        if let Some(path) = &self.inner.own_path {
            let _ = std::fs::remove_file(path);
        }
        *self.inner.sink.lock().expect("sink lock") = None;
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        // The sweeper shares `inner` but never outlives the flag.
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;
    use std::sync::Mutex as StdMutex;

    #[derive(Default)]
    struct Recorder {
        frames: StdMutex<Vec<(usize, Message)>>,
        downs: StdMutex<Vec<(usize, bool)>>,
        decode_errors: StdMutex<Vec<(usize, DecodeError)>>,
    }

    impl FrameSink for Recorder {
        fn deliver(&self, from: usize, msg: Message) {
            self.frames.lock().unwrap().push((from, msg));
        }
        fn decode_failure(&self, from: usize, err: DecodeError) {
            self.decode_errors.lock().unwrap().push((from, err));
        }
        fn link_down(&self, peer: usize, graceful: bool) {
            self.downs.lock().unwrap().push((peer, graceful));
        }
    }

    fn wait_for<T>(probe: impl Fn() -> Option<T>) -> T {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(v) = probe() {
                return v;
            }
            assert!(Instant::now() < deadline, "probe timed out");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// A connected two-node UDS mesh in a directory of its own.
    fn unix_pair(tag: &str) -> (SocketTransport, SocketTransport, PathBuf) {
        let dir = std::env::temp_dir().join(format!("fuzzy-net-ut-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let b = std::thread::spawn({
            let dir = dir.clone();
            move || SocketTransport::unix(1, 2, &dir).unwrap()
        });
        let a = SocketTransport::unix(0, 2, &dir).unwrap();
        (a, b.join().unwrap(), dir)
    }

    /// More frames than any socket buffer holds (Linux caps a UDS send
    /// buffer at ~208 KiB by default): a sender of this many cannot finish
    /// before the receiver reads.
    const FLOOD: u64 = 50_000;

    fn flood_frame(episode: u64) -> Message {
        Message::Signal { episode, round: 0 }
    }

    #[test]
    fn unix_pair_exchanges_signals_and_says_goodbye() {
        let (a, b, dir) = unix_pair("pair");

        let ra = Arc::new(Recorder::default());
        let rb = Arc::new(Recorder::default());
        a.start(ra.clone());
        b.start(rb.clone());

        a.send(
            1,
            &Message::Signal {
                episode: 3,
                round: 0,
            },
        )
        .unwrap();
        b.send(0, &Message::Poison { episode: 3 }).unwrap();

        wait_for(|| (!rb.frames.lock().unwrap().is_empty()).then_some(()));
        wait_for(|| (!ra.frames.lock().unwrap().is_empty()).then_some(()));
        assert_eq!(
            rb.frames.lock().unwrap()[0],
            (
                0,
                Message::Signal {
                    episode: 3,
                    round: 0
                }
            )
        );
        assert_eq!(
            ra.frames.lock().unwrap()[0],
            (1, Message::Poison { episode: 3 })
        );

        b.shutdown();
        // a's sweeper sees the Bye: graceful link-down, not a peer death.
        let downs = wait_for(|| {
            let d = ra.downs.lock().unwrap();
            (!d.is_empty()).then(|| d.clone())
        });
        assert_eq!(downs, vec![(1, true)]);
        a.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn send_waits_out_a_receiver_that_is_not_reading_yet() {
        let (a, b, dir) = unix_pair("backpressure");
        let rb = Arc::new(Recorder::default());
        std::thread::scope(|s| {
            let sender = s.spawn(|| {
                for episode in 0..FLOOD {
                    a.send(1, &flood_frame(episode))
                        .expect("a full link is back-pressure, not a failure");
                }
            });
            // Nobody reads b's end until here, so the sender is (or soon
            // will be) stalled on a full socket; it must come through.
            std::thread::sleep(Duration::from_millis(50));
            assert!(!sender.is_finished(), "the link cannot hold the flood");
            b.start(rb.clone());
            sender.join().unwrap();
        });
        wait_for(|| (rb.frames.lock().unwrap().len() as u64 >= FLOOD).then_some(()));
        let frames = rb.frames.lock().unwrap();
        assert_eq!(frames.len() as u64, FLOOD, "each frame exactly once");
        for (episode, frame) in frames.iter().enumerate() {
            assert_eq!(*frame, (0, flood_frame(episode as u64)), "in order");
        }
        assert!(rb.decode_errors.lock().unwrap().is_empty());
        assert!(rb.downs.lock().unwrap().is_empty());
        drop(frames);
        a.shutdown();
        b.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_releases_a_sender_stalled_on_a_full_link() {
        // b never starts, so nothing ever drains the link.
        let (a, _b, dir) = unix_pair("stalled-shutdown");
        let sent = AtomicU64::new(0);
        std::thread::scope(|s| {
            let sender = s.spawn(|| loop {
                match a.send(1, &flood_frame(sent.load(Ordering::Relaxed))) {
                    Ok(()) => sent.fetch_add(1, Ordering::Relaxed),
                    Err(e) => return e,
                };
            });
            // Wait for the stall itself: progress made, then none.
            wait_for(|| {
                let before = sent.load(Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(20));
                (before > 0 && sent.load(Ordering::Relaxed) == before).then_some(())
            });
            assert!(sent.load(Ordering::Relaxed) < FLOOD);
            a.shutdown();
            let err = sender.join().unwrap();
            assert!(matches!(err, NetError::Closed), "got {err:?}");
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A sink that owns its transport, as a barrier does, and whose
    /// `deliver` blocks until the test says go.
    struct OwningSink {
        transport: StdMutex<Option<Arc<SocketTransport>>>,
        entered: mpsc::Sender<()>,
        gate: StdMutex<mpsc::Receiver<()>>,
        /// Told, once the transport is dropped, whether that panicked.
        dropped: mpsc::Sender<bool>,
    }

    impl FrameSink for OwningSink {
        fn deliver(&self, _from: usize, _msg: Message) {
            self.entered.send(()).unwrap();
            self.gate.lock().unwrap().recv().unwrap();
        }
        fn link_down(&self, _peer: usize, _graceful: bool) {}
    }

    impl Drop for OwningSink {
        fn drop(&mut self) {
            // The last handle: `SocketTransport::shutdown` runs right here.
            drop(self.transport.lock().unwrap().take());
            let _ = self.dropped.send(std::thread::panicking());
        }
    }

    #[test]
    fn last_sink_handle_dropped_by_the_delivering_thread_shuts_down_cleanly() {
        let (a, b, dir) = unix_pair("self-join");
        let own_file = unix_socket_path(&dir, 1);
        assert!(own_file.exists());
        let (entered_tx, entered) = mpsc::channel();
        let (gate, gate_rx) = mpsc::channel();
        let (dropped_tx, dropped) = mpsc::channel();
        let b = Arc::new(b);
        let sink = Arc::new(OwningSink {
            transport: StdMutex::new(Some(Arc::clone(&b))),
            entered: entered_tx,
            gate: StdMutex::new(gate_rx),
            dropped: dropped_tx,
        });
        b.start(sink.clone());
        a.send(1, &flood_frame(0)).unwrap();
        // The sweeper is now inside `deliver`, holding the only other
        // handle to the sink; give up ours, then let it return.
        entered.recv_timeout(Duration::from_secs(5)).unwrap();
        drop(sink);
        drop(b);
        gate.send(()).unwrap();
        let panicked = dropped
            .recv_timeout(Duration::from_secs(3))
            .expect("dropping the transport on its own sweeper must not die joining itself");
        assert!(!panicked);
        wait_for(|| (!own_file.exists()).then_some(()));
        a.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
