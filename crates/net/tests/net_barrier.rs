//! Socket-transport integration: real Unix-domain and TCP meshes running
//! [`NetBarrier`] episodes, including the acceptance scenario — a peer
//! dying mid-episode (connection closed with no `Bye`) poisons every
//! survivor within the deadline instead of wedging them.

use fuzzy_barrier::{BarrierError, Deadline, SplitBarrier};
use fuzzy_net::{unix_socket_path, Message, NetBarrier, NetConfig, SocketTransport, Transport};
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fuzzy-net-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Forms an n-node socket mesh concurrently (formation blocks until every
/// pairwise link exists, so all transports must be built in parallel).
fn form<F>(n: usize, build: F) -> Vec<SocketTransport>
where
    F: Fn(usize) -> SocketTransport + Sync,
{
    let mut out: Vec<Option<SocketTransport>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|r| {
                let build = &build;
                s.spawn(move || build(r))
            })
            .collect();
        for (slot, h) in out.iter_mut().zip(handles) {
            *slot = Some(h.join().unwrap());
        }
    });
    out.into_iter().map(Option::unwrap).collect()
}

fn run_episodes(barriers: &[Arc<NetBarrier>], episodes: u64) {
    std::thread::scope(|s| {
        for b in barriers {
            let b = Arc::clone(b);
            s.spawn(move || {
                for e in 0..episodes {
                    let token = b.arrive(0);
                    let outcome = b
                        .wait_deadline(token, Deadline::after(Duration::from_secs(20)))
                        .expect("socket mesh episode");
                    assert_eq!(outcome.episode, e);
                }
            });
        }
    });
}

#[test]
fn unix_mesh_runs_episodes_across_four_processes_worth_of_endpoints() {
    let dir = temp_dir("uds-mesh");
    let transports = form(4, |r| SocketTransport::unix(r, 4, &dir).unwrap());
    let barriers: Vec<Arc<NetBarrier>> = transports
        .into_iter()
        .map(|t| NetBarrier::start(Arc::new(t) as Arc<dyn Transport>, NetConfig::new()))
        .collect();
    run_episodes(&barriers, 25);
    for b in &barriers {
        assert_eq!(b.stats().episodes, 25);
        assert!(b.net_stats().frames_sent >= 50, "2 rounds x 25 episodes");
        assert_eq!(b.net_stats().decode_errors, 0);
        b.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Over sockets a completing frame is delivered by whoever polls first —
/// the endpoint's sweeper when no local caller is in the barrier — and a
/// deliverer is nobody's participant: its record must neither be lost nor
/// collide with the local participant's own.
#[test]
fn unix_pair_counts_completions_delivered_by_the_sweeper_and_by_pollers() {
    let dir = temp_dir("uds-sweeper-completion");
    let transports = form(2, |r| SocketTransport::unix(r, 2, &dir).unwrap());
    let barriers: Vec<Arc<NetBarrier>> = transports
        .into_iter()
        .map(|t| NetBarrier::start(Arc::new(t) as Arc<dyn Transport>, NetConfig::new()))
        .collect();
    // Episode 0 by hand: rank 0 arrives and then only *reads* its counters
    // (no probe, no wait, so its own thread never pumps the protocol)
    // until rank 1's signal has come in through the sweeper.
    let t0 = barriers[0].arrive(0);
    let t1 = barriers[1].arrive(0);
    let patience = std::time::Instant::now() + Duration::from_secs(20);
    while barriers[0].stats().episodes == 0 {
        assert!(
            std::time::Instant::now() < patience,
            "the sweeper never completed episode 0"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let within = Deadline::after(Duration::from_secs(20));
    assert_eq!(barriers[0].wait_deadline(t0, within).unwrap().episode, 0);
    assert_eq!(barriers[1].wait_deadline(t1, within).unwrap().episode, 0);
    // Then free-running episodes: the sweeper and the waiters' own polls
    // race to deliver each completion, and the books must still balance
    // exactly.
    let episodes = 200u64;
    std::thread::scope(|s| {
        for b in &barriers {
            s.spawn(move || {
                for e in 1..=episodes {
                    let token = b.arrive(0);
                    let outcome = b
                        .wait_deadline(token, Deadline::after(Duration::from_secs(20)))
                        .expect("socket pair episode");
                    assert_eq!(outcome.episode, e);
                }
            });
        }
    });
    for b in &barriers {
        let t = b.telemetry();
        assert_eq!(t.base.episodes, episodes + 1);
        assert_eq!(t.base.arrivals, episodes + 1);
        assert_eq!(t.base.waits, t.base.arrivals);
        assert_eq!(t.base, b.stats());
        assert_eq!(t.per_participant[0].arrivals, episodes + 1);
        assert_eq!(t.per_participant[0].waits, episodes + 1);
        assert_eq!(t.stall_hist.total(), t.base.stalls + t.base.timeouts);
        b.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_mesh_runs_episodes() {
    let probes: Vec<_> = (0..3)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<_> = probes.iter().map(|p| p.local_addr().unwrap()).collect();
    drop(probes);
    let transports = form(3, |r| SocketTransport::tcp(r, &addrs).unwrap());
    let barriers: Vec<Arc<NetBarrier>> = transports
        .into_iter()
        .map(|t| NetBarrier::start(Arc::new(t) as Arc<dyn Transport>, NetConfig::new()))
        .collect();
    run_episodes(&barriers, 25);
    for b in &barriers {
        assert_eq!(b.stats().episodes, 25);
        b.shutdown();
    }
}

#[test]
fn graceful_departure_is_not_a_death() {
    // A two-node mesh completes an episode; one side then shuts down
    // cleanly (sends Bye). The survivor must NOT be poisoned by the close.
    let dir = temp_dir("uds-bye");
    let transports = form(2, |r| SocketTransport::unix(r, 2, &dir).unwrap());
    let mut it = transports.into_iter();
    let b0 = NetBarrier::start(
        Arc::new(it.next().unwrap()) as Arc<dyn Transport>,
        NetConfig::new(),
    );
    let b1 = NetBarrier::start(
        Arc::new(it.next().unwrap()) as Arc<dyn Transport>,
        NetConfig::new(),
    );
    std::thread::scope(|s| {
        let b1 = Arc::clone(&b1);
        s.spawn(move || {
            let t = b1.arrive(0);
            b1.wait_deadline(t, Deadline::after(Duration::from_secs(10)))
                .unwrap();
            b1.shutdown();
        });
        let t = b0.arrive(0);
        b0.wait_deadline(t, Deadline::after(Duration::from_secs(10)))
            .unwrap();
    });
    // Give the Bye time to land, then check the survivor's health.
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        !b0.is_poisoned(),
        "a Bye close must not poison the survivor"
    );
    assert_eq!(b0.dead_peer(), None);
    b0.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance scenario over real sockets: rank 2 is a raw endpoint we
/// control byte-for-byte. It handshakes, plays episode 0 honestly, then
/// dies mid-episode-1 — closes both connections without a `Bye`. Both
/// survivors must observe `Poisoned` within the deadline, not hang.
#[test]
fn peer_death_mid_episode_poisons_all_survivors_within_deadline() {
    let dir = temp_dir("uds-death");
    // Ranks 0 and 1 are real transports; rank 2 dials in as raw streams.
    let mut fake_links = Vec::new();
    let (t0, t1) = std::thread::scope(|s| {
        let h0 = s.spawn(|| SocketTransport::unix(0, 3, &dir).unwrap());
        let h1 = s.spawn(|| SocketTransport::unix(1, 3, &dir).unwrap());

        // The fake rank 2: connect to both listeners, handshake, then send
        // exactly the episode-0 signals the dissemination pattern expects
        // from rank 2 (round 0 to rank 0, round 1 to rank 1).
        let dial = |to: usize| {
            let path = unix_socket_path(&dir, to);
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            loop {
                match std::os::unix::net::UnixStream::connect(&path) {
                    Ok(s) => return s,
                    Err(_) if std::time::Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => panic!("rank {to} listener never appeared: {e}"),
                }
            }
        };
        let mut to0 = dial(0);
        let mut to1 = dial(1);
        to0.write_all(&Message::Hello { rank: 2, nodes: 3 }.encode())
            .unwrap();
        to1.write_all(&Message::Hello { rank: 2, nodes: 3 }.encode())
            .unwrap();
        to0.write_all(
            &Message::Signal {
                episode: 0,
                round: 0,
            }
            .encode(),
        )
        .unwrap();
        to1.write_all(
            &Message::Signal {
                episode: 0,
                round: 1,
            }
            .encode(),
        )
        .unwrap();
        // Keep the streams alive past this scope: the death must happen
        // strictly AFTER episode 0 completes.
        fake_links.push(to0);
        fake_links.push(to1);
        (h0.join().unwrap(), h1.join().unwrap())
    });

    let survivors = [
        NetBarrier::start(Arc::new(t0) as Arc<dyn Transport>, NetConfig::new()),
        NetBarrier::start(Arc::new(t1) as Arc<dyn Transport>, NetConfig::new()),
    ];

    // Episode 0 completes: the fake's signals are buffered in the sockets.
    std::thread::scope(|s| {
        for b in &survivors {
            let b = Arc::clone(b);
            s.spawn(move || {
                let t = b.arrive(0);
                let outcome = b
                    .wait_deadline(t, Deadline::after(Duration::from_secs(10)))
                    .expect("episode 0 must complete before the death");
                assert_eq!(outcome.episode, 0);
            });
        }
    });

    // Rank 2 dies: both connections close with no Bye on the wire.
    drop(fake_links);

    // Episode 1: every survivor's wait must resolve to an error well
    // before the outer deadline — never hang.
    std::thread::scope(|s| {
        for b in &survivors {
            let b = Arc::clone(b);
            s.spawn(move || {
                let t = b.arrive(0);
                let err = b
                    .wait_deadline(t, Deadline::after(Duration::from_secs(15)))
                    .expect_err("a dead peer must fail the wait");
                assert!(
                    matches!(
                        err,
                        BarrierError::Poisoned { .. } | BarrierError::PeerDown { .. }
                    ),
                    "unexpected error {err:?}"
                );
                assert!(b.is_poisoned(), "survivor must be poisoned, not wedged");
            });
        }
    });
    for b in &survivors {
        b.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
