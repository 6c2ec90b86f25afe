//! Stream merging with multiple logical barriers (the paper's Fig. 6).
//!
//! A parent stream dynamically spawns worker streams; each spawn
//! allocates one logical barrier (tag + mask) from a registry that holds
//! at most N−1 barriers for N streams — exactly the paper's Sec. 5
//! budget. Disjoint pairs synchronize independently; at the end the
//! parent merges with each worker through its pair barrier, and a final
//! full-mask barrier closes the computation.
//!
//! Run with: `cargo run --example stream_merge`

use fuzzy_barrier::{GroupRegistry, ProcMask, SplitBarrier, SubsetBarrier, Tag};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const WORKERS: usize = 3;
const ROUNDS: u64 = 200;

fn main() {
    let streams = WORKERS + 1; // parent is stream 0
    let registry = Arc::new(GroupRegistry::new(streams));
    println!(
        "{streams} streams -> registry capacity {} logical barriers (N-1)",
        registry.capacity()
    );

    // Pair barriers: parent <-> each worker.
    let mut pairs: Vec<Arc<SubsetBarrier>> = Vec::new();
    for w in 1..=WORKERS {
        let mask: ProcMask = [0, w].into_iter().collect();
        let (tag, barrier) = registry.allocate(mask).expect("budget");
        println!("spawn worker {w}: pair barrier {tag} over {mask}");
        pairs.push(barrier);
    }

    // Partial results: workers produce, parent consumes after merging.
    let results: Arc<Vec<AtomicU64>> = Arc::new((0..WORKERS).map(|_| AtomicU64::new(0)).collect());

    std::thread::scope(|s| {
        for (w, barrier) in pairs.iter().enumerate() {
            let barrier = Arc::clone(barrier);
            let results = Arc::clone(&results);
            s.spawn(move || {
                let id = w + 1;
                // Present the credential once; arrive by rank from then on.
                let rank = barrier.rank(id, barrier.tag()).expect("tag");
                let mut acc = 0u64;
                for round in 1..=ROUNDS {
                    // Worker's work: varies per worker (different stream
                    // lengths, like the paper's S1/S2/S3).
                    for x in 0..(id as u64 * 50) {
                        acc = acc.wrapping_add(x ^ round);
                    }
                    results[w].store(acc, Ordering::Release);
                    // Merge with the parent through OUR pair barrier: the
                    // arrive/wait split lets the worker prepare its next
                    // round (the barrier region) while the parent catches
                    // up.
                    let token = barrier.arrive(rank);
                    acc = acc.rotate_left(1); // barrier-region work
                    barrier.wait(token);
                }
            });
        }

        // Parent: merges with each worker in turn, each round.
        let mut merged = 0u64;
        let ranks: Vec<usize> = pairs
            .iter()
            .map(|b| b.rank(0, b.tag()).expect("tag"))
            .collect();
        for _round in 1..=ROUNDS {
            for (w, barrier) in pairs.iter().enumerate() {
                let token = barrier.arrive(ranks[w]);
                // Parent's barrier region: fold the previous round's
                // result while this worker finishes.
                merged = merged.wrapping_add(results[w].load(Ordering::Acquire));
                barrier.wait(token);
            }
        }
        println!("parent merged checksum: {merged:#x}");
    });

    // Every pair synchronized independently, ROUNDS times.
    for (w, barrier) in pairs.iter().enumerate() {
        let stats = barrier.stats();
        println!(
            "pair parent<->{}: episodes {}, stall rate {:.0}%",
            w + 1,
            stats.episodes,
            100.0 * stats.stall_rate()
        );
        assert_eq!(stats.episodes, ROUNDS);
    }

    // Release the pair barriers and allocate one full-group barrier for a
    // final all-stream synchronization (tag reuse after release).
    let tags: Vec<Tag> = pairs.iter().map(|b| b.tag()).collect();
    drop(pairs);
    for tag in tags {
        registry.release(tag).expect("was live");
    }
    let (final_tag, final_barrier) = registry
        .allocate(ProcMask::first_n(streams))
        .expect("slots were freed");
    println!("final merge barrier: {final_tag} over all {streams} streams");
    std::thread::scope(|s| {
        for id in 1..streams {
            let b = Arc::clone(&final_barrier);
            s.spawn(move || {
                b.point(b.rank(id, b.tag()).expect("tag"));
            });
        }
        final_barrier.point(final_barrier.rank(0, final_barrier.tag()).expect("tag"));
    });
    println!("all streams merged; done.");
}
