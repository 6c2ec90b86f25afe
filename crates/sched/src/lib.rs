//! # fuzzy-sched
//!
//! Static and run-time scheduling of barrier-synchronized parallel loops,
//! reproducing Secs. 7.3 and 7.4 of Gupta's fuzzy-barrier paper:
//!
//! * [`static_sched`] — block, cyclic and *rotated* block schedules
//!   (Fig. 11: the extra iteration takes turns so processors do equal work
//!   over outer iterations);
//! * [`self_sched`] — self-scheduling, fixed chunking and Guided
//!   Self-Scheduling (the paper's \[19\]) over a thread-safe work queue;
//! * [`workload`] — iteration cost models (uniform, bimodal if-statements,
//!   jitter, triangular);
//! * [`executor`] — a deterministic virtual-time executor that reports
//!   idle/stall time at point vs. fuzzy barriers, plus a real thread
//!   executor built on the `fuzzy-barrier` crate;
//! * [`supervisor`] — a fault-tolerant executor: panicking workers poison
//!   the barrier, get evicted, and the supervisor retries the episode
//!   with their iterations redistributed over the survivors;
//! * [`async_exec`] — a std-only M:N episode executor: `M ≫ N` logical
//!   participants, each an async `arrive → region → await` loop over
//!   `fuzzy_barrier::AsyncBarrier`, multiplexed over `N` worker threads
//!   with per-worker run queues and work stealing;
//! * [`chaos`] — a seeded real-thread chaos harness that injects
//!   join/leave/crash/delay/spurious-timeout events into live episodes
//!   over a dynamic-membership `ReconfigBarrier` (its async members await
//!   `AsyncBarrier` over the group) and asserts liveness and
//!   release-epoch agreement — plus transport chaos
//!   ([`run_net_chaos`]) that drops, delays, duplicates and reorders
//!   frames under a live distributed `NetBarrier`;
//! * [`multiproc`] — a harness that forks real worker *processes* (by
//!   re-executing the calling binary) and runs episodes over a
//!   `fuzzy-net` socket mesh, with a parent watchdog so a wedged mesh
//!   becomes a loud failure rather than a hung run.
//!
//! ## Example
//!
//! ```
//! use fuzzy_sched::executor::{simulate_dynamic, simulate_static};
//! use fuzzy_sched::self_sched::GuidedSelfScheduling;
//! use fuzzy_sched::static_sched::block;
//! use fuzzy_sched::workload::CostModel;
//!
//! let costs = CostModel::Linear { base: 1, slope: 3 }.costs(32, 0);
//! let static_run = simulate_static(&block(32, 4), &costs);
//! let gss_run = simulate_dynamic(4, &costs, &GuidedSelfScheduling, 1);
//! assert!(gss_run.total_point_idle() <= static_run.total_point_idle());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod async_exec;
pub mod chaos;
pub mod executor;
pub mod multiproc;
pub mod self_sched;
pub mod static_sched;
pub mod supervisor;
pub mod workload;

pub use async_exec::{run_async_episodes, AsyncExecutor, AsyncRunReport};
pub use chaos::{
    run_chaos, run_net_chaos, ChaosConfig, ChaosMode, ChaosReport, EventCounts, NetChaosConfig,
    NetChaosReport,
};
pub use executor::{
    run_threaded, run_threaded_with, simulate_dynamic, simulate_static, BarrierChoice,
    ThreadReport, VirtualReport,
};
pub use multiproc::{
    maybe_run_worker, run_multiproc, MeshTransport, MultiprocConfig, MultiprocReport, WorkerFate,
    WorkerOutcome,
};
pub use self_sched::{
    ChunkPolicy, Factoring, FixedChunk, GuidedSelfScheduling, SelfScheduling, Trapezoid, WorkQueue,
};
pub use static_sched::{block, cyclic, rotated_block, Assignment};
pub use supervisor::{run_supervised, run_supervised_with, ReadmitPolicy, SupervisedReport};
pub use workload::CostModel;
