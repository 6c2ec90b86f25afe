//! `net_uds`: two `NetBarrier` endpoints over one Unix-domain-socket
//! connection, one load thread each, back-to-back point episodes with no
//! work — every episode pays encode → write → reader thread → decode →
//! `fetch_max` → wake.

use super::{
    fresh_pass, out_dir, pair_end_to_end, pair_traced, publish_spans, span_summary, Ctx, EndToEnd,
};
use crate::pair::{Member, Tally};
use crate::plan::Shape;
use crate::spec::Ledger;
use crate::stats::Summary;
use crate::trace::{Kind, Rec, NO_PARENT};
use fuzzy_barrier::{ArrivalToken, SplitBarrier};
use fuzzy_net::wire::{self, DecodeError};
use fuzzy_net::{
    FrameSink, LoopbackMesh, Message, NetBarrier, NetConfig, SocketTransport, Transport,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A fresh directory for one mesh's socket files, inside the checkout.
fn mesh_dir() -> Result<PathBuf, String> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = out_dir().join(format!(
        "uds-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Both ends of a two-node UDS mesh; forming one blocks until the peer
/// connects, so the two are formed on two threads. Also returns the
/// time that took, in ms.
fn connect() -> Result<([Arc<SocketTransport>; 2], f64), String> {
    let dir = mesh_dir()?;
    let start = Instant::now();
    let (a, b) = std::thread::scope(|s| {
        let peer = s.spawn(|| SocketTransport::unix(1, 2, &dir));
        let own = SocketTransport::unix(0, 2, &dir);
        (own, peer.join().expect("forming a mesh does not panic"))
    });
    let connect_ms = start.elapsed().as_secs_f64() * 1e3;
    // Established connections outlive their socket files.
    let _ = std::fs::remove_dir_all(&dir);
    let ends = [
        Arc::new(a.map_err(|e| format!("rank 0: {e}"))?),
        Arc::new(b.map_err(|e| format!("rank 1: {e}"))?),
    ];
    Ok((ends, connect_ms))
}

/// One endpoint and its single local participant.
#[derive(Debug)]
pub struct Endpoint {
    barrier: Arc<NetBarrier>,
}

impl Member for Endpoint {
    type Token = ArrivalToken;

    fn arrive(&mut self, _episode: u64) -> Result<ArrivalToken, String> {
        Ok(self.barrier.arrive(0))
    }

    fn wait(&mut self, token: ArrivalToken) -> Result<u64, String> {
        Ok(self.barrier.wait(token).episode)
    }

    fn poison(&self) {
        self.barrier.poison();
    }

    /// The transport's own error counts must all be zero.
    fn verify(&self) -> Result<(), String> {
        let net = self.barrier.net_stats();
        if net.retries + net.nacks + net.decode_errors > 0 {
            return Err(format!(
                "rank {}: {} retries, {} nacks, {} decode errors",
                self.barrier.rank(),
                net.retries,
                net.nacks,
                net.decode_errors
            ));
        }
        Ok(())
    }
}

fn endpoints_over(transports: [Arc<dyn Transport>; 2]) -> [Endpoint; 2] {
    transports.map(|t| Endpoint {
        barrier: NetBarrier::start(t, NetConfig::new()),
    })
}

fn members() -> Result<[Endpoint; 2], String> {
    let ([a, b], _) = connect()?;
    Ok(endpoints_over([a, b]))
}

fn loopback_members() -> [Endpoint; 2] {
    let mesh = LoopbackMesh::new(2);
    endpoints_over([Arc::new(mesh.endpoint(0)), Arc::new(mesh.endpoint(1))])
}

pub fn end_to_end(ctx: &Ctx) -> Result<EndToEnd, String> {
    pair_end_to_end(ctx, Shape::Empty, members)
}

/// Calls per `encode`/`decode` span: one call is shorter than the two
/// clock reads around it.
const WIRE_BATCH: u64 = 64;
/// Spans of each of `encode` and `decode`.
const WIRE_BATCHES: u64 = 2_000;
/// Frames the `send` probe sends, one span each.
const SENDS: u64 = 50_000;

/// `net.wire.*`: `batches` spans of [`WIRE_BATCH`] calls each, reported
/// per call.
fn put_wire_rows(ledger: &mut Ledger, batches: u64, rec: &mut Rec<true>, tally: &mut Tally) {
    let message = Message::Signal {
        episode: 0x0123_4567_89AB,
        round: 3,
    };
    let frame = message.encode();
    ledger.put("net.wire.frame_bytes", frame.len() as f64);
    for batch in 0..batches {
        rec.timed(Kind::Encode, NO_PARENT, batch, || {
            for _ in 0..WIRE_BATCH {
                std::hint::black_box(std::hint::black_box(&message).encode());
            }
        });
        rec.timed(Kind::Decode, NO_PARENT, batch, || {
            for _ in 0..WIRE_BATCH {
                let _ = std::hint::black_box(wire::decode(std::hint::black_box(&frame)));
            }
        });
    }
    tally.attempted += 1;
    if wire::decode(&frame) != Ok((message, frame.len())) {
        tally.fail("a frame did not decode to the message it encodes".to_owned());
    }
}

/// Counts what the probe's receiving end is handed.
#[derive(Debug, Default)]
struct CountingSink {
    delivered: AtomicU64,
    broken: AtomicU64,
}

impl FrameSink for CountingSink {
    fn deliver(&self, _from: usize, _msg: Message) {
        self.delivered.fetch_add(1, Ordering::Relaxed);
    }

    fn decode_failure(&self, _from: usize, _err: DecodeError) {
        self.broken.fetch_add(1, Ordering::Relaxed);
    }

    fn link_down(&self, _peer: usize, _graceful: bool) {}
}

/// `net.socket.connect_ms`, and `sends` frames through `Transport::send`
/// over a mesh of their own, one span each, every one of them delivered.
fn put_socket_rows(
    ledger: &mut Ledger,
    sends: u64,
    rec: &mut Rec<true>,
    tally: &mut Tally,
) -> Result<(), String> {
    let ([tx, rx], connect_ms) = connect()?;
    ledger.put("net.socket.connect_ms", connect_ms);
    let sink = Arc::new(CountingSink::default());
    rx.start(Arc::clone(&sink) as Arc<dyn FrameSink>);
    for episode in 0..sends {
        tally.attempted += 1;
        let message = Message::Signal { episode, round: 0 };
        if let Err(e) = rec.timed(Kind::Send, NO_PARENT, episode, || tx.send(1, &message)) {
            tally.fail(format!("send {episode}: {e}"));
        }
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while sink.delivered.load(Ordering::Relaxed) < sends && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let (delivered, broken) = (
        sink.delivered.load(Ordering::Relaxed),
        sink.broken.load(Ordering::Relaxed),
    );
    if delivered != sends || broken != 0 {
        tally.fail(format!(
            "{delivered} of {sends} frames delivered, {broken} failed to decode"
        ));
    }
    tx.shutdown();
    rx.shutdown();
    Ok(())
}

pub fn traced(ctx: &Ctx, ledger: &mut Ledger) -> Result<Tally, String> {
    let mut t = pair_traced(ctx, Shape::Empty, 0, members)?;
    let mut tally = t.tally.clone();

    // The calls an episode makes inside the net crate, on their own.
    let (batches, sends) = (ctx.reps(WIRE_BATCHES), ctx.reps(SENDS));
    let mut rec = Rec::<true>::new(2, (2 * batches + sends) as usize);
    put_wire_rows(ledger, batches, &mut rec, &mut tally);
    put_socket_rows(ledger, sends, &mut rec, &mut tally)?;
    t.bufs.push(rec.finish());
    publish_spans("net_uds", &t.bufs)?;

    let per_call = 1.0 / WIRE_BATCH as f64;
    for (name, kind, scale) in [
        ("net.barrier.arrive_ns_p50", Kind::Arrive, 1.0),
        ("net.barrier.wait_ns_p50", Kind::Wait, 1.0),
        ("net.wire.encode_ns_p50", Kind::Encode, per_call),
        ("net.wire.decode_ns_p50", Kind::Decode, per_call),
        ("net.socket.send_ns_p50", Kind::Send, 1.0),
    ] {
        ledger.put_timing(name, &span_summary(&t.bufs, kind).scaled(scale));
    }
    let barrier = &t.members[0].barrier;
    let net = barrier.net_stats();
    ledger.put(
        "net.barrier.frames_per_arrival",
        net.frames_sent as f64 / barrier.stats().arrivals.max(1) as f64,
    );
    ledger.put("net.barrier.retries", net.retries as f64);
    ledger.put("net.barrier.nacks", net.nacks as f64);
    ledger.put("net.barrier.decode_errors", net.decode_errors as f64);

    // The same two endpoints with the socket taken away.
    let loopback = || Ok(loopback_members());
    let (_, mut run) = fresh_pass::<false, _>(
        loopback,
        &t.plan,
        Shape::Empty,
        ctx.pass(0.1),
        0,
        &mut tally,
    )?;
    let loopback_ns = Summary::of(&mut run.block_ns);
    ledger.put_timing("net.loopback.episode_ns", &loopback_ns);
    ledger.put(
        "net.socket.transport_ns",
        t.untraced.median - loopback_ns.median,
    );
    ledger.put("sched.executor.busy_unit_ns", t.busy_unit_ns);
    ledger.put("bench.trace_overhead_frac", t.overhead_frac());
    Ok(tally)
}
