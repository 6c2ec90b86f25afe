//! A started socket endpoint owns exactly one thread — its sweeper —
//! however many links it has, and none once shut down.
//!
//! Alone in this file on purpose: the census counts the process's tasks,
//! and a test binary runs its tests on threads of one process.

use fuzzy_net::{FrameSink, Message, SocketTransport, Transport};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Ignore;

impl FrameSink for Ignore {
    fn deliver(&self, _from: usize, _msg: Message) {}
    fn link_down(&self, _peer: usize, _graceful: bool) {}
}

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// A joined thread has woken its joiner but may not have left the task
/// list yet; give it a moment before calling the count wrong.
fn assert_threads(expected: usize, what: &str) {
    let patience = Instant::now() + Duration::from_secs(2);
    while threads() != expected && Instant::now() < patience {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(threads(), expected, "{what}");
}

#[test]
fn a_started_endpoint_owns_one_thread_whatever_the_mesh_size() {
    const NODES: usize = 4;
    let dir = std::env::temp_dir().join(format!("fuzzy-net-census-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let idle = threads();
    // Formation blocks until every pairwise link exists, so it takes a
    // thread per rank; they are gone again before the census starts.
    let endpoints: Vec<SocketTransport> = std::thread::scope(|s| {
        let forming: Vec<_> = (0..NODES)
            .map(|rank| {
                let dir = &dir;
                s.spawn(move || SocketTransport::unix(rank, NODES, dir).unwrap())
            })
            .collect();
        forming.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_threads(idle, "formation leaves no thread behind");
    let sink: Arc<dyn FrameSink> = Arc::new(Ignore);
    for (started, endpoint) in endpoints.iter().enumerate() {
        endpoint.start(Arc::clone(&sink));
        assert_threads(idle + started + 1, "three links, one thread");
    }
    for (stopped, endpoint) in endpoints.iter().enumerate() {
        endpoint.shutdown();
        assert_threads(idle + NODES - stopped - 1, "shutdown joins the sweeper");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
