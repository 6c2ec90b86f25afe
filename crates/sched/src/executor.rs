//! Loop executors: a deterministic virtual-time simulator and a real
//! thread-based runner built on the `fuzzy-barrier` crate.
//!
//! The virtual-time executor reproduces the *shape* of the scheduling
//! results (who idles, by how much) deterministically; the threaded
//! executor produces wall-clock numbers comparable to the paper's Encore
//! measurement.

use crate::self_sched::{ChunkPolicy, WorkQueue};
use crate::static_sched::Assignment;
use fuzzy_barrier::{
    CentralBarrier, CountingBarrier, DisseminationBarrier, HierBarrier, SplitBarrier, StallPolicy,
    TreeBarrier,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Duration;

/// Result of a virtual-time inner-loop execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualReport {
    /// Per-processor finish time (work units).
    pub finish: Vec<u64>,
    /// Number of dispatches (chunk grabs) per processor.
    pub dispatches: Vec<usize>,
}

impl VirtualReport {
    /// The loop's completion time (the slowest processor).
    #[must_use]
    pub fn makespan(&self) -> u64 {
        self.finish.iter().copied().max().unwrap_or(0)
    }

    /// Idle time per processor at a **point** barrier closing the loop.
    #[must_use]
    pub fn point_idle(&self) -> Vec<u64> {
        let max = self.makespan();
        self.finish.iter().map(|&f| max - f).collect()
    }

    /// Stall time per processor at a **fuzzy** barrier whose barrier
    /// region gives each processor `region` extra units of useful work
    /// after arriving: a processor stalls only for
    /// `max(0, makespan − (finish + region))`.
    #[must_use]
    pub fn fuzzy_stall(&self, region: u64) -> Vec<u64> {
        let max = self.makespan();
        self.finish
            .iter()
            .map(|&f| max.saturating_sub(f + region))
            .collect()
    }

    /// Total idle over processors at a point barrier.
    #[must_use]
    pub fn total_point_idle(&self) -> u64 {
        self.point_idle().iter().sum()
    }

    /// Total stall over processors at a fuzzy barrier with the given
    /// region size.
    #[must_use]
    pub fn total_fuzzy_stall(&self, region: u64) -> u64 {
        self.fuzzy_stall(region).iter().sum()
    }
}

/// Executes a static assignment in virtual time.
#[must_use]
pub fn simulate_static(assignment: &Assignment, costs: &[u64]) -> VirtualReport {
    let finish = crate::static_sched::per_proc_work(assignment, costs);
    VirtualReport {
        dispatches: assignment
            .iter()
            .map(|c| usize::from(!c.is_empty()))
            .collect(),
        finish,
    }
}

/// Executes a self-scheduled loop in virtual time: processors repeatedly
/// grab chunks from a shared queue; each grab costs `dispatch_cost` (the
/// critical-section overhead of the scheduler itself) and each iteration
/// its cost from `costs`.
///
/// The processor with the smallest local clock always grabs next,
/// modelling the race on the shared iteration counter.
#[must_use]
pub fn simulate_dynamic(
    procs: usize,
    costs: &[u64],
    policy: &dyn ChunkPolicy,
    dispatch_cost: u64,
) -> VirtualReport {
    assert!(procs > 0, "need at least one processor");
    let queue = WorkQueue::new(costs.len());
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..procs).map(|p| Reverse((0u64, p))).collect();
    let mut finish = vec![0u64; procs];
    let mut dispatches = vec![0usize; procs];
    while let Some(Reverse((t, p))) = heap.pop() {
        match queue.grab(policy, procs) {
            Some(range) => {
                let work: u64 = range.clone().map(|i| costs[i]).sum();
                dispatches[p] += 1;
                heap.push(Reverse((t + dispatch_cost + work, p)));
            }
            None => {
                finish[p] = t;
            }
        }
    }
    VirtualReport { finish, dispatches }
}

/// Result of a threaded run.
#[derive(Debug, Clone, Default)]
pub struct ThreadReport {
    /// Wall-clock duration of the whole loop nest.
    pub elapsed: Duration,
    /// Barrier statistics accumulated over all episodes.
    pub barrier: fuzzy_barrier::stats::StatsSnapshot,
    /// Full barrier telemetry (stall histogram, arrival spread,
    /// per-participant counters) for the same run; `telemetry.base`
    /// equals `barrier`.
    pub telemetry: fuzzy_barrier::TelemetrySnapshot,
}

/// Calibrated busy work: spins for roughly `units` abstract units.
#[inline]
pub fn busy(units: u64) {
    let mut acc = 0u64;
    for i in 0..units * 8 {
        acc = acc.wrapping_mul(31).wrapping_add(i);
    }
    std::hint::black_box(acc);
}

/// How iterations are assigned in a threaded run.
pub enum Strategy<'a> {
    /// A fixed assignment per outer iteration (function of the outer
    /// index, enabling Fig. 11's rotation).
    Static(&'a (dyn Fn(usize) -> Assignment + Sync)),
    /// Self-scheduled from a shared queue with the given policy.
    Dynamic(&'a dyn ChunkPolicy),
}

impl std::fmt::Debug for Strategy<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::Static(_) => f.write_str("Strategy::Static(..)"),
            Strategy::Dynamic(p) => write!(f, "Strategy::Dynamic({})", p.name()),
        }
    }
}

/// Which split-phase barrier backend a threaded run synchronizes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum BarrierChoice {
    /// Sense-reversing centralized barrier (the historical default).
    Central,
    /// Flat epoch-counting barrier.
    Counting,
    /// Dissemination barrier.
    Dissemination,
    /// Combining tree with the given fan-in.
    Tree {
        /// Children per tree node (≥ 2).
        fan_in: usize,
    },
    /// Hierarchical sharded barrier.
    Hier {
        /// Participants per arrival shard (≥ 1).
        shard_size: usize,
    },
}

impl BarrierChoice {
    /// Builds the chosen backend for `procs` participants.
    ///
    /// # Panics
    ///
    /// Panics if `procs == 0`, or on a degenerate shape (`fan_in < 2`,
    /// `shard_size == 0`).
    #[must_use]
    pub fn build(self, procs: usize, policy: StallPolicy) -> Arc<dyn SplitBarrier> {
        match self {
            BarrierChoice::Central => Arc::new(CentralBarrier::with_policy(procs, policy)),
            BarrierChoice::Counting => Arc::new(CountingBarrier::with_policy(procs, policy)),
            BarrierChoice::Dissemination => {
                Arc::new(DisseminationBarrier::with_policy(procs, policy))
            }
            BarrierChoice::Tree { fan_in } => {
                Arc::new(TreeBarrier::with_fan_in(procs, fan_in, policy))
            }
            BarrierChoice::Hier { shard_size } => {
                Arc::new(HierBarrier::with_shards(procs, shard_size, policy))
            }
        }
    }
}

/// Runs `outer` barrier-separated phases over `costs[outer_idx][iter]`
/// work on `procs` OS threads, synchronizing with a split-phase barrier.
///
/// After finishing its share of an outer iteration, each thread *arrives*,
/// performs `region_units` of barrier-region work, and then *waits* — so
/// `region_units = 0` is the point-barrier baseline and growing it
/// reproduces the paper's Sec. 8 sweep.
///
/// # Panics
///
/// Panics if `procs == 0` or a static assignment has the wrong arity.
#[must_use]
pub fn run_threaded(
    procs: usize,
    costs: &[Vec<u64>],
    strategy: &Strategy<'_>,
    region_units: u64,
    stall_policy: StallPolicy,
) -> ThreadReport {
    run_threaded_with(
        procs,
        costs,
        strategy,
        region_units,
        stall_policy,
        BarrierChoice::Central,
    )
}

/// [`run_threaded`] with an explicit [`BarrierChoice`], so experiments can
/// sweep the backend dimension of the same loop nest.
///
/// # Panics
///
/// Panics if `procs == 0` or a static assignment has the wrong arity.
#[must_use]
pub fn run_threaded_with(
    procs: usize,
    costs: &[Vec<u64>],
    strategy: &Strategy<'_>,
    region_units: u64,
    stall_policy: StallPolicy,
    backend: BarrierChoice,
) -> ThreadReport {
    assert!(procs > 0, "need at least one processor");
    let barrier: Arc<dyn SplitBarrier> = backend.build(procs, stall_policy);
    // Pre-build the per-outer work pools for the dynamic strategy.
    let queues: Vec<WorkQueue> = costs.iter().map(|c| WorkQueue::new(c.len())).collect();

    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for p in 0..procs {
            let barrier = Arc::clone(&barrier);
            let queues = &queues;
            s.spawn(move || {
                for (k, outer_costs) in costs.iter().enumerate() {
                    match strategy {
                        Strategy::Static(assign_fn) => {
                            let assignment = assign_fn(k);
                            assert_eq!(assignment.len(), procs, "assignment arity");
                            for &i in &assignment[p] {
                                busy(outer_costs[i]);
                            }
                        }
                        Strategy::Dynamic(policy) => {
                            while let Some(range) = queues[k].grab(*policy, procs) {
                                for i in range {
                                    busy(outer_costs[i]);
                                }
                            }
                        }
                    }
                    let token = barrier.arrive(p);
                    busy(region_units);
                    barrier.wait(token);
                }
            });
        }
    });
    ThreadReport {
        elapsed: start.elapsed(),
        barrier: barrier.stats(),
        telemetry: barrier.telemetry(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::self_sched::{GuidedSelfScheduling, SelfScheduling};
    use crate::static_sched::block;
    use crate::workload::CostModel;

    #[test]
    fn static_simulation_matches_hand_computation() {
        let a = block(4, 2);
        let r = simulate_static(&a, &[1, 2, 3, 4]);
        assert_eq!(r.finish, vec![3, 7]);
        assert_eq!(r.makespan(), 7);
        assert_eq!(r.point_idle(), vec![4, 0]);
        assert_eq!(r.total_point_idle(), 4);
    }

    #[test]
    fn fuzzy_region_absorbs_idle() {
        let a = block(4, 2);
        let r = simulate_static(&a, &[1, 2, 3, 4]);
        assert_eq!(r.fuzzy_stall(0), vec![4, 0]);
        assert_eq!(r.fuzzy_stall(3), vec![1, 0]);
        assert_eq!(r.fuzzy_stall(4), vec![0, 0]);
        assert_eq!(r.total_fuzzy_stall(10), 0);
    }

    #[test]
    fn dynamic_simulation_executes_everything() {
        let costs = CostModel::Jitter { lo: 1, hi: 20 }.costs(64, 3);
        let r = simulate_dynamic(4, &costs, &GuidedSelfScheduling, 2);
        let total: u64 = costs.iter().sum();
        let busy: u64 =
            r.finish.iter().sum::<u64>() - r.dispatches.iter().map(|&d| d as u64 * 2).sum::<u64>();
        // Every unit of work is accounted for on some processor.
        assert_eq!(busy, total);
    }

    #[test]
    fn gss_balances_better_than_block_on_skewed_work() {
        // Triangular costs defeat block scheduling; GSS should leave far
        // less idle time at the closing barrier.
        let costs = CostModel::Linear { base: 1, slope: 4 }.costs(64, 0);
        let static_r = simulate_static(&block(64, 4), &costs);
        let gss_r = simulate_dynamic(4, &costs, &GuidedSelfScheduling, 1);
        assert!(
            gss_r.total_point_idle() < static_r.total_point_idle() / 2,
            "gss idle {} vs block idle {}",
            gss_r.total_point_idle(),
            static_r.total_point_idle()
        );
    }

    #[test]
    fn self_scheduling_minimizes_idle_but_maximizes_dispatches() {
        let costs = CostModel::Uniform { cost: 5 }.costs(40, 0);
        let ss = simulate_dynamic(4, &costs, &SelfScheduling, 0);
        let gss = simulate_dynamic(4, &costs, &GuidedSelfScheduling, 0);
        assert!(ss.dispatches.iter().sum::<usize>() > gss.dispatches.iter().sum::<usize>());
    }

    #[test]
    fn threaded_run_completes_and_counts_episodes() {
        let costs: Vec<Vec<u64>> = (0..5).map(|_| vec![10u64; 8]).collect();
        let report = run_threaded(
            4,
            &costs,
            &Strategy::Dynamic(&GuidedSelfScheduling),
            0,
            StallPolicy::yielding(),
        );
        assert_eq!(report.barrier.episodes, 5);
        assert_eq!(report.barrier.arrivals, 20);
        assert_eq!(report.telemetry.base, report.barrier);
        assert_eq!(report.telemetry.per_participant.len(), 4);
        let per: u64 = report
            .telemetry
            .per_participant
            .iter()
            .map(|p| p.arrivals)
            .sum();
        assert_eq!(per, 20);
    }

    #[test]
    fn threaded_run_sweeps_every_backend() {
        let costs: Vec<Vec<u64>> = (0..3).map(|_| vec![5u64; 8]).collect();
        let choices = [
            BarrierChoice::Central,
            BarrierChoice::Counting,
            BarrierChoice::Dissemination,
            BarrierChoice::Tree { fan_in: 2 },
            BarrierChoice::Hier { shard_size: 2 },
        ];
        for choice in choices {
            let report = run_threaded_with(
                4,
                &costs,
                &Strategy::Dynamic(&GuidedSelfScheduling),
                0,
                StallPolicy::yielding(),
                choice,
            );
            assert_eq!(report.barrier.episodes, 3, "{choice:?}");
            assert_eq!(report.barrier.arrivals, 12, "{choice:?}");
        }
    }

    #[test]
    fn threaded_static_rotation_runs() {
        let costs: Vec<Vec<u64>> = (0..6).map(|_| vec![5u64; 4]).collect();
        let assign = |outer: usize| crate::static_sched::rotated_block(4, 3, outer);
        let report = run_threaded(
            3,
            &costs,
            &Strategy::Static(&assign),
            10,
            StallPolicy::yielding(),
        );
        assert_eq!(report.barrier.episodes, 6);
    }
}
