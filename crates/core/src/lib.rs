//! # fuzzy-barrier
//!
//! Split-phase (*fuzzy*) barriers for synchronizing groups of threads, a
//! reproduction of the mechanism introduced by Rajiv Gupta in *"The Fuzzy
//! Barrier: A Mechanism for High Speed Synchronization of Processors"*
//! (ASPLOS 1989).
//!
//! A classic barrier forces every participant to stall at a single program
//! **point** until the last participant arrives. A *fuzzy* barrier replaces
//! the point with a **region**: a participant announces that it is *ready to
//! synchronize* ([`SplitBarrier::arrive`]), keeps doing useful work from its
//! barrier region, and only blocks when it reaches the end of the region
//! ([`SplitBarrier::wait`]) — and then only if some participant has still
//! not arrived. The larger the region, the less likely any participant ever
//! stalls.
//!
//! ## Quick start
//!
//! ```
//! use fuzzy_barrier::{FuzzyBarrier, SplitBarrier};
//! use std::sync::Arc;
//!
//! let n = 4;
//! let barrier = Arc::new(FuzzyBarrier::new(n));
//! std::thread::scope(|s| {
//!     for id in 0..n {
//!         let barrier = Arc::clone(&barrier);
//!         s.spawn(move || {
//!             for _step in 0..100 {
//!                 // ... non-barrier region: work that other threads will
//!                 // read after the barrier ...
//!                 let token = barrier.arrive(id);
//!                 // ... barrier region: independent work overlapping the
//!                 // synchronization ...
//!                 barrier.wait(token);
//!             }
//!         });
//!     }
//! });
//! ```
//!
//! ## Backends
//!
//! Five interchangeable [`SplitBarrier`] backends are provided, mirroring
//! the design space the paper positions itself in (software barriers whose
//! cost grows linearly or logarithmically with the number of processors,
//! Sec. 1):
//!
//! * [`CentralBarrier`] — sense-reversing centralized barrier (one shared
//!   counter; the classic hot-spot-prone design),
//! * [`CountingBarrier`] — flat epoch-counting barrier,
//! * [`DisseminationBarrier`] — O(log n) rounds, no single hot word,
//! * [`TreeBarrier`] — combining tree with configurable fan-in,
//! * [`HierBarrier`] — topology-aware hierarchy: cache-line-sharded
//!   arrival words, shard leaders signing in to a combining tree over
//!   shards, and per-shard release broadcast.
//!
//! All five are type aliases of one generic episode core,
//! [`episode::Barrier`], over a small [`episode::Protocol`] — how an
//! arrival is signalled and what one condition a waiter polls. The core
//! owns everything else, once: ids and tokens, the stall policy, deadline
//! waits, poisoning, membership (the race-free removal guard and its dual,
//! admission), and the statistics ([`SplitBarrier::stats`],
//! [`SplitBarrier::telemetry`]) that let experiments observe how often
//! waits actually stalled. Writing a sixth backend means writing a
//! `Protocol`; `fuzzy-net`'s endpoint is one more.
//!
//! ## Masks, tags and groups (multiple barriers, Sec. 5)
//!
//! The paper's hardware provides a per-processor *mask* (which processors
//! participate) and *tag* (which logical barrier). [`mask::ProcMask`],
//! [`tag::Tag`], [`group::SubsetBarrier`] and [`registry::GroupRegistry`]
//! reproduce those semantics in software: disjoint subsets of participants
//! synchronize independently, two participants synchronize only if their
//! tags match, and a registry of at most *N − 1* barriers serves *N*
//! dynamically created streams. A `SubsetBarrier` is a [`SplitBarrier`]
//! over its inner barrier: a participant presents its global id and tag
//! once, to [`group::SubsetBarrier::rank`], and drives the barrier by the
//! rank it gets back.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod async_wait;
pub mod centralized;
pub mod counting;
pub mod dissemination;
pub mod episode;
pub mod error;
pub mod failure;
pub mod fuzzy;
pub mod group;
pub mod hier;
pub mod mask;
pub mod reconfig;
pub mod registry;
pub mod spin;
pub mod stats;
pub mod sync;
pub mod tag;
pub mod token;
pub mod tree;

pub use async_wait::{AsyncBarrier, BarrierFuture};
pub use centralized::CentralBarrier;
pub use counting::CountingBarrier;
pub use dissemination::DisseminationBarrier;
pub use episode::{Barrier, Cx, FlatProtocol, Protocol};
pub use error::BarrierError;
pub use failure::Deadline;
pub use fuzzy::{FuzzyBarrier, SplitBarrier};
pub use group::SubsetBarrier;
pub use hier::HierBarrier;
pub use mask::ProcMask;
pub use reconfig::{ActivationFuture, JoinTicket, MemberHandle, ReconfigBarrier, ReconfigToken};
pub use registry::GroupRegistry;
pub use spin::StallPolicy;
pub use stats::{
    AsyncSnapshot, HistogramSnapshot, ParticipantSnapshot, SpreadSnapshot, StallHistogram,
    StatsSnapshot, TelemetrySnapshot,
};
pub use sync::{Atomic, Lock, RealSync, SyncOps};
pub use tag::Tag;
pub use token::{ArrivalToken, WaitOutcome};
pub use tree::TreeBarrier;

#[cfg(test)]
mod send_sync_tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn barriers_are_send_sync() {
        assert_send_sync::<CentralBarrier>();
        assert_send_sync::<CountingBarrier>();
        assert_send_sync::<DisseminationBarrier>();
        assert_send_sync::<TreeBarrier>();
        assert_send_sync::<HierBarrier>();
        assert_send_sync::<SubsetBarrier>();
        assert_send_sync::<FuzzyBarrier>();
        assert_send_sync::<AsyncBarrier<CentralBarrier>>();
        assert_send_sync::<BarrierFuture<'static, CentralBarrier>>();
        assert_send_sync::<GroupRegistry>();
        assert_send_sync::<BarrierError>();
        assert_send_sync::<ReconfigBarrier>();
        assert_send_sync::<AsyncBarrier<ReconfigBarrier>>();
    }
}
