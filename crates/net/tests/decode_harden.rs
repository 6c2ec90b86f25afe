//! Frame-decoder hardening: arbitrary bytes must produce clean
//! [`DecodeError`]s — never a panic, never a hang, never a mis-parse that
//! corrupts a live mesh — on every transport's decode boundary.

use fuzzy_barrier::{Deadline, SplitBarrier};
use fuzzy_net::wire::{self, HEADER_LEN, MAX_PAYLOAD};
use fuzzy_net::{
    DecodeError, FrameSink, LoopbackMesh, Message, NetBarrier, NetConfig, SocketTransport,
    Transport,
};
use fuzzy_util::SplitMix64;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn valid_frames() -> Vec<Vec<u8>> {
    vec![
        Message::Hello { rank: 1, nodes: 4 }.encode(),
        Message::Signal {
            episode: 12,
            round: 1,
        }
        .encode(),
        Message::Poison { episode: 3 }.encode(),
        Message::Nack {
            episode: 0,
            round: 2,
        }
        .encode(),
        Message::Bye.encode(),
    ]
}

/// Seeded mangling loop over the shared codec: every transport reads
/// frames through `wire::decode`/`decode_header`, so this is the single
/// chokepoint all of them inherit.
#[test]
fn seeded_mangling_never_panics_and_classifies() {
    let mut rng = SplitMix64::seed_from_u64(0xDEC0DE);
    let frames = valid_frames();
    let mut truncated = 0u32;
    let mut rejected = 0u32;
    let mut survived = 0u32;
    for _ in 0..20_000 {
        let mut bytes = frames[rng.below(frames.len())].clone();
        match rng.below(4) {
            // Truncate anywhere, including mid-header.
            0 => bytes.truncate(rng.below(bytes.len() + 1)),
            // Flip a random byte.
            1 => {
                let i = rng.below(bytes.len());
                bytes[i] ^= (rng.next_u64() % 255 + 1) as u8;
            }
            // Rewrite the length field entirely.
            2 => {
                let len = (rng.next_u64() as u32).to_le_bytes();
                bytes[4..8].copy_from_slice(&len);
            }
            // Replace with pure noise.
            _ => {
                let n = rng.below(64);
                bytes = (0..n).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
            }
        }
        match wire::decode(&bytes) {
            Ok((_, used)) => {
                assert!(used <= bytes.len());
                survived += 1;
            }
            Err(DecodeError::Truncated { needed, got }) => {
                assert_eq!(got, bytes.len());
                assert!(needed > got);
                truncated += 1;
            }
            Err(DecodeError::Oversized(len)) => {
                assert!(len > MAX_PAYLOAD);
                rejected += 1;
            }
            Err(
                DecodeError::BadMagic(_)
                | DecodeError::BadVersion(_)
                | DecodeError::UnknownKind(_)
                | DecodeError::BadPayload { .. },
            ) => rejected += 1,
            Err(other) => panic!("unclassified decode error {other:?}"),
        }
    }
    // The loop must actually exercise all three regimes.
    assert!(truncated > 100, "truncated {truncated}");
    assert!(rejected > 1000, "rejected {rejected}");
    assert!(survived > 100, "survived {survived}");
}

#[test]
fn oversized_length_cannot_drive_allocation() {
    // A header declaring a huge payload is rejected at the header, before
    // any payload buffer exists.
    let mut frame = vec![wire::MAGIC, wire::VERSION, 2, 0];
    frame.extend_from_slice(&(u32::MAX).to_le_bytes());
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&frame[..HEADER_LEN]);
    assert_eq!(
        wire::decode_header(&header),
        Err(DecodeError::Oversized(u32::MAX as usize))
    );
}

/// Loopback decode boundary: mangled raw frames are counted and dropped;
/// the barrier protocol on the same links is unaffected.
#[test]
fn loopback_survives_mangled_frames_mid_episode() {
    let mesh = LoopbackMesh::new(2);
    let barriers: Vec<Arc<NetBarrier>> = mesh
        .endpoints()
        .into_iter()
        .map(|t| NetBarrier::start(Arc::new(t), NetConfig::new()))
        .collect();
    let mut rng = SplitMix64::seed_from_u64(99);
    std::thread::scope(|s| {
        for b in &barriers {
            let b = Arc::clone(b);
            s.spawn(move || {
                for e in 0..50u64 {
                    let t = b.arrive(0);
                    let o = b
                        .wait_deadline(t, Deadline::after(Duration::from_secs(10)))
                        .expect("mangled noise must not break the protocol");
                    assert_eq!(o.episode, e);
                }
            });
        }
        // Spray garbage at both endpoints while they synchronize.
        for _ in 0..500 {
            let n = rng.below(24);
            let junk: Vec<u8> = (0..n).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
            mesh.inject_raw(0, 1, &junk);
            mesh.inject_raw(1, 0, &junk);
        }
    });
    for b in &barriers {
        assert_eq!(b.stats().episodes, 50);
        assert!(
            b.net_stats().decode_errors > 0,
            "the junk must have hit the decode boundary"
        );
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fuzzy-net-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A raw connection to the Unix listener at `path`, waiting for it to
/// appear: a peer whose every byte the test controls.
fn dial(path: &Path) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return s,
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("listener never appeared: {e}"),
        }
    }
}

/// A stranger spraying garbage at a Unix listener during mesh formation
/// is dropped; the real peers still connect and complete an episode.
#[test]
fn unix_mesh_forms_through_garbage_connections() {
    let dir = temp_dir("harden-uds");
    let rank0 = std::thread::spawn({
        let dir = dir.clone();
        move || SocketTransport::unix(0, 2, &dir).unwrap()
    });
    // Wait for rank 0's listener, then hit it with garbage connections:
    // raw noise, a truncated hello, and a hello claiming an absurd rank.
    let path = fuzzy_net::unix_socket_path(&dir, 0);
    {
        let mut s = dial(&path);
        s.write_all(&[0xBA, 0xAD, 0xF0, 0x0D, 1, 2, 3, 4, 5, 6])
            .unwrap();
    }
    {
        let mut s = dial(&path);
        s.write_all(&Message::Hello { rank: 1, nodes: 2 }.encode()[..5])
            .unwrap();
        // Dropped here: mid-hello hangup.
    }
    {
        let mut s = dial(&path);
        s.write_all(&Message::Hello { rank: 9, nodes: 2 }.encode())
            .unwrap();
    }
    // The genuine rank 1 connects last and must still be accepted.
    let t1 = SocketTransport::unix(1, 2, &dir).unwrap();
    let t0 = rank0.join().unwrap();
    let b0 = NetBarrier::start(Arc::new(t0) as Arc<dyn Transport>, NetConfig::new());
    let b1 = NetBarrier::start(Arc::new(t1) as Arc<dyn Transport>, NetConfig::new());
    std::thread::scope(|s| {
        let b1 = Arc::clone(&b1);
        s.spawn(move || {
            let t = b1.arrive(0);
            b1.wait_deadline(t, Deadline::after(Duration::from_secs(10)))
                .expect("mesh must have formed through the garbage");
        });
        let t = b0.arrive(0);
        b0.wait_deadline(t, Deadline::after(Duration::from_secs(10)))
            .expect("mesh must have formed through the garbage");
    });
    b0.shutdown();
    b1.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Same hardening for the TCP listener.
#[test]
fn tcp_mesh_forms_through_garbage_connections() {
    // Reserve two ports by binding, reading the addresses, and rebinding
    // inside the transports (test-local race, acceptable).
    let probe0 = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let probe1 = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addrs = [probe0.local_addr().unwrap(), probe1.local_addr().unwrap()];
    drop((probe0, probe1));
    let rank0 = std::thread::spawn(move || SocketTransport::tcp(0, &addrs).unwrap());
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let connect = || loop {
        match std::net::TcpStream::connect(addrs[0]) {
            Ok(s) => return s,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("listener never appeared: {e}"),
        }
    };
    {
        let mut s = connect();
        s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    }
    {
        let mut s = connect();
        s.write_all(&Message::Hello { rank: 1, nodes: 77 }.encode())
            .unwrap();
    }
    let t1 = SocketTransport::tcp(1, &addrs).unwrap();
    let t0 = rank0.join().unwrap();
    let b0 = NetBarrier::start(Arc::new(t0) as Arc<dyn Transport>, NetConfig::new());
    let b1 = NetBarrier::start(Arc::new(t1) as Arc<dyn Transport>, NetConfig::new());
    std::thread::scope(|s| {
        let b1 = Arc::clone(&b1);
        s.spawn(move || {
            let t = b1.arrive(0);
            b1.wait_deadline(t, Deadline::after(Duration::from_secs(10)))
                .expect("mesh must have formed through the garbage");
        });
        let t = b0.arrive(0);
        b0.wait_deadline(t, Deadline::after(Duration::from_secs(10)))
            .expect("mesh must have formed through the garbage");
    });
    b0.shutdown();
    b1.shutdown();
}

/// Everything a sink is told, in the order it was told.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    Frame(usize, Message),
    Broken(usize, DecodeError),
    Down(usize, bool),
}

#[derive(Default)]
struct Log(Mutex<Vec<Event>>);

impl Log {
    fn events(&self) -> Vec<Event> {
        self.0.lock().unwrap().clone()
    }
}

impl FrameSink for Log {
    fn deliver(&self, from: usize, msg: Message) {
        self.0.lock().unwrap().push(Event::Frame(from, msg));
    }
    fn decode_failure(&self, from: usize, err: DecodeError) {
        self.0.lock().unwrap().push(Event::Broken(from, err));
    }
    fn link_down(&self, peer: usize, graceful: bool) {
        self.0.lock().unwrap().push(Event::Down(peer, graceful));
    }
}

/// A started rank 0 of a two-node UDS mesh whose rank 1 is a raw stream,
/// handshaken by hand, plus the log rank 0 delivers into.
fn endpoint_with_raw_peer(tag: &str) -> (SocketTransport, UnixStream, Arc<Log>) {
    let dir = temp_dir(tag);
    let rank0 = std::thread::spawn({
        let dir = dir.clone();
        move || SocketTransport::unix(0, 2, &dir).unwrap()
    });
    let mut peer = dial(&fuzzy_net::unix_socket_path(&dir, 0));
    peer.write_all(&Message::Hello { rank: 1, nodes: 2 }.encode())
        .unwrap();
    let endpoint = rank0.join().unwrap();
    // The connection outlives its socket file.
    let _ = std::fs::remove_dir_all(&dir);
    let log = Arc::new(Log::default());
    endpoint.start(log.clone());
    (endpoint, peer, log)
}

/// Polls `endpoint` (its sweeper polls too; whoever gets a frame logs it)
/// until the log holds `count` events.
fn poll_until(endpoint: &SocketTransport, log: &Log, count: usize) -> Vec<Event> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        endpoint.poll(log);
        let events = log.events();
        if events.len() >= count {
            return events;
        }
        assert!(
            Instant::now() < deadline,
            "{} of {count} events",
            events.len()
        );
        std::thread::yield_now();
    }
}

/// Lets both drivers run long enough that anything still to be said about
/// the link would have been.
fn settle(endpoint: &SocketTransport, log: &Log) {
    for _ in 0..20 {
        endpoint.poll(log);
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn signal(episode: u64) -> Message {
    Message::Signal { episode, round: 0 }
}

#[test]
fn a_frame_arriving_a_byte_at_a_time_is_delivered_exactly_once() {
    let (endpoint, mut peer, log) = endpoint_with_raw_peer("reasm-bytes");
    let frame = signal(41).encode();
    let (last, head) = frame.split_last().unwrap();
    for byte in head {
        peer.write_all(&[*byte]).unwrap();
        assert_eq!(endpoint.poll(&*log), 0, "a partial frame is not a frame");
    }
    settle(&endpoint, &log);
    assert_eq!(log.events(), vec![], "nothing until the last byte is in");
    peer.write_all(&[*last]).unwrap();
    assert_eq!(
        poll_until(&endpoint, &log, 1),
        vec![Event::Frame(1, signal(41))]
    );
    settle(&endpoint, &log);
    assert_eq!(log.events().len(), 1, "and never again");
    endpoint.shutdown();
}

#[test]
fn many_frames_in_one_write_all_deliver_in_order() {
    // Far more than the receive buffer holds, so most polls end with whole
    // frames still buffered and must deliver them before reading on; the
    // tail is delivered from the buffer after the socket has run dry.
    const FRAMES: u64 = 5_000;
    let (endpoint, mut peer, log) = endpoint_with_raw_peer("reasm-burst");
    let burst: Vec<u8> = (0..FRAMES).flat_map(|e| signal(e).encode()).collect();
    let writer = std::thread::spawn(move || {
        peer.write_all(&burst).unwrap();
        peer
    });
    let events = poll_until(&endpoint, &log, FRAMES as usize);
    let _peer = writer.join().unwrap();
    settle(&endpoint, &log);
    assert_eq!(log.events().len() as u64, FRAMES, "each frame exactly once");
    for (episode, event) in events.iter().enumerate() {
        assert_eq!(*event, Event::Frame(1, signal(episode as u64)));
    }
    endpoint.shutdown();
}

#[test]
fn a_frame_then_a_close_delivers_the_frame_before_the_death() {
    let (endpoint, mut peer, log) = endpoint_with_raw_peer("reasm-close");
    peer.write_all(&signal(7).encode()).unwrap();
    drop(peer);
    assert_eq!(
        poll_until(&endpoint, &log, 2),
        vec![Event::Frame(1, signal(7)), Event::Down(1, false)]
    );
    settle(&endpoint, &log);
    assert_eq!(log.events().len(), 2, "a link dies once");
    endpoint.shutdown();
}

#[test]
fn a_bye_is_one_graceful_link_down_and_then_silence() {
    let (endpoint, mut peer, log) = endpoint_with_raw_peer("reasm-bye");
    // Whatever follows a goodbye — frames, then the close — is not news.
    let mut bytes = Message::Bye.encode();
    bytes.extend_from_slice(&signal(3).encode());
    peer.write_all(&bytes).unwrap();
    assert_eq!(poll_until(&endpoint, &log, 1), vec![Event::Down(1, true)]);
    drop(peer);
    settle(&endpoint, &log);
    assert_eq!(log.events(), vec![Event::Down(1, true)]);
    endpoint.shutdown();
}

#[test]
fn lost_framing_is_reported_and_drops_the_connection() {
    let (endpoint, mut peer, log) = endpoint_with_raw_peer("reasm-garbage");
    let mut bytes = signal(1).encode();
    // An oversized length is refused at the header: no payload is awaited.
    bytes.extend_from_slice(&[wire::MAGIC, wire::VERSION, 2, 0]);
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    peer.write_all(&bytes).unwrap();
    assert_eq!(
        poll_until(&endpoint, &log, 3),
        vec![
            Event::Frame(1, signal(1)),
            Event::Broken(1, DecodeError::Oversized(u32::MAX as usize)),
            Event::Down(1, false),
        ]
    );
    // The endpoint hung up on the garbage: the peer's next read sees it.
    peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut byte = [0u8; 1];
    assert_eq!(std::io::Read::read(&mut peer, &mut byte).unwrap(), 0);
    settle(&endpoint, &log);
    assert_eq!(log.events().len(), 3);
    endpoint.shutdown();
}

#[test]
fn poll_delivers_into_the_sink_it_is_handed() {
    let (endpoint, mut peer, started) = endpoint_with_raw_peer("reasm-sink");
    let handed = Log::default();
    // The sweeper delivers into the started sink; whatever a poll reports
    // having delivered is in the handed one.
    let mut polled = 0;
    for episode in 0..20 {
        peer.write_all(&signal(episode).encode()).unwrap();
        let frame = Event::Frame(1, signal(episode));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            polled += endpoint.poll(&handed);
            let (in_handed, in_started) = (
                handed.events().contains(&frame),
                started.events().contains(&frame),
            );
            if in_handed || in_started {
                assert!(!(in_handed && in_started), "{frame:?} delivered twice");
                break;
            }
            assert!(Instant::now() < deadline, "{frame:?} never delivered");
            std::thread::yield_now();
        }
        assert_eq!(handed.events().len(), polled);
    }
    assert!(polled > 0, "the sweeper won every frame");
    assert_eq!(started.events().len() + polled, 20);
    // With the started sink gone the sweeper has nowhere to deliver; a
    // poll still does.
    drop(started);
    peer.write_all(&signal(20).encode()).unwrap();
    let events = poll_until(&endpoint, &handed, polled + 1);
    assert_eq!(events.last(), Some(&Event::Frame(1, signal(20))));
    endpoint.shutdown();
}
