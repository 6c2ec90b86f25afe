//! # fuzzy-check
//!
//! A dependency-free, loom-lite **model checker** for the fuzzy-barrier
//! backends. It runs the *real* backend code — `CentralBarrier`,
//! `CountingBarrier`, `DisseminationBarrier`, `TreeBarrier`,
//! `HierBarrier`, plus the mask/tag/registry layers, the async frontend,
//! `ReconfigBarrier` and `NetBarrier` — on virtual threads under a
//! deterministic scheduler, and explores the interleavings of their
//! atomic operations:
//! exhaustively (bounded-preemption DFS) or by seeded random sampling.
//!
//! ## How it works
//!
//! The backends in `fuzzy-barrier` are generic over
//! [`fuzzy_barrier::SyncOps`]. Production code instantiates them with
//! `RealSync` (plain `std` atomics — zero cost). The checker instantiates
//! them with [`ShadowSync`], whose atomics *announce every access to a
//! scheduler* before performing it. One OS thread per virtual thread,
//! exactly one allowed to move at a time: every run is a sequentially
//! consistent interleaving identified by the grant sequence, which is
//! printed on failure and replayable with `check --replay`.
//!
//! What it detects:
//!
//! * **deadlock** — nothing runnable, not everything finished;
//! * **lost wakeup** — a deadlock in which every stuck waiter's episode
//!   had fully arrived (the release signal existed and was lost);
//! * **fuzzy violation** — `wait(token)` returned before every masked
//!   participant's `arrive()` for the token's episode;
//! * **protocol errors**, **panics**, and **step-limit** blowups
//!   (livelock suspicion).
//!
//! The [`scenario`] module holds the workloads: the plain `protocol` on
//! every backend, masked/tagged `subset` barriers, `registry` churn,
//! `poison`, both `evict` shapes, the `async` frontend's waker hand-off,
//! `reconfig` membership changes and an async member parked through the
//! frontend over the group, and `net` endpoints over a loopback mesh. Every body synchronizes through one checked step — the
//! [`Ledger`]'s arrival half and wait half — and one constructor owns the
//! per-schedule plumbing, so the contract is stated once.
//!
//! What it does **not** explore: weak-memory reorderings. Shadow atomics
//! execute sequentially consistently regardless of the `Ordering`
//! arguments, so a bug that requires an actual `Relaxed` reordering is out
//! of scope — this is a loom-lite, not a loom.
//!
//! ## Trying it
//!
//! ```text
//! cargo run -p fuzzy-check --bin check -- --backend all -n 3 --schedules 10000
//! ```
//!
//! The [`mutants`] module carries eighteen seeded-bug backends the
//! checker must catch. Nine are a [`fuzzy_barrier::Protocol`] holding
//! nothing but the bug, run through the real episode core: six
//! concurrency races (including a hierarchical shard leader that releases
//! early), a release word that runs one arrival early, which misleads the
//! real async frontend, and two completers that strand a waker parked in
//! the core (one never wakes it, one looks before it publishes). Three
//! replace the core, because the bug is in what the core owns: a no-op
//! poison, a mask-preserving eviction and a check-then-act eviction
//! guard. Three are async futures over the core's parking place (one
//! parks without re-reading the release word, one yields without waking
//! its task, one re-queues nothing over dissemination), two are
//! dynamic-membership bugs behind the real `ReconfigBarrier` (an admission
//! into the in-flight episode and a presentation that forgets the
//! generation), and one is a transport that forges the higher
//! dissemination rounds, releasing a `NetBarrier` endpoint on first
//! contact;
//! `cargo test -p fuzzy-check` proves the checker catches them all.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ctx;
pub mod explore;
pub mod mutants;
pub mod scenario;
pub mod sched;
pub mod shadow;

pub use explore::{
    explore_dfs, explore_random, replay, ExploreOptions, Outcome, Scenario, ScheduleRun,
};
pub use scenario::{
    async_handoff, async_handoff_with, classify, evict, evict_during_join, evict_race,
    evict_race_with, evict_with, join_evict_race, join_mid_episode, join_mid_episode_with,
    net_round, net_round_with, poison, poison_with, protocol, protocol_with, reconfig_future,
    reconfig_future_with, registry, stale_generation, stale_generation_with, subset_overlap,
    subset_pair, AsyncArrival, AsyncFrontend, BackendKind, Ledger,
};
pub use sched::{Defect, RunResult, Violation, DEFAULT_STEP_LIMIT};
pub use shadow::ShadowSync;
