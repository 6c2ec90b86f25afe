//! The closed loop shared by every real-thread workload: two load
//! threads (the host has two cores) run the plan's episodes against one
//! barrier, each starting episode `e + 1` only after its `wait(e)`
//! returned. Participant 0 times blocks of [`BLOCK`] episodes with one
//! clock read per block.

use crate::host::work;
use crate::plan::{Plan, Shape};
use crate::trace::{Kind, Rec, SpanBuf, NO_PARENT};
use fuzzy_barrier::{ArrivalToken, SplitBarrier};
use fuzzy_util::CachePadded;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Episodes per timed block.
pub const BLOCK: u64 = 1000;
/// Spans one participant records per episode: the episode and its
/// `work`, `arrive`, `region` and `wait` children.
pub const SPANS_PER_EPISODE: usize = 5;

/// One participant's view of the barrier under test.
pub trait Member: Send {
    type Token;
    /// False for the barrier-free twin, which cannot promise visibility.
    const SYNCS: bool = true;

    fn arrive(&mut self, episode: u64) -> Result<Self::Token, String>;
    /// Returns the episode the barrier says it released.
    fn wait(&mut self, token: Self::Token) -> Result<u64, String>;
    /// Releases the peer after this participant failed.
    fn poison(&self);
    /// Checked once the pass has ended.
    fn verify(&self) -> Result<(), String> {
        Ok(())
    }

    /// Runs before the episode's work; `threads_churn` hosts its guest
    /// member here.
    fn before_episode<const T: bool>(
        &mut self,
        _episode: u64,
        _rec: &mut Rec<T>,
        _parent: u32,
    ) -> Result<(), String> {
        Ok(())
    }

    /// Runs after `wait` returned.
    fn after_episode<const T: bool>(
        &mut self,
        _episode: u64,
        _rec: &mut Rec<T>,
        _parent: u32,
    ) -> Result<(), String> {
        Ok(())
    }
}

/// A participant calling a [`SplitBarrier`] directly.
#[derive(Debug)]
pub struct Direct<B: SplitBarrier + ?Sized> {
    pub barrier: Arc<B>,
    pub id: usize,
}

impl<B: SplitBarrier + ?Sized> Direct<B> {
    /// Participants 0 and 1 of `barrier`.
    pub fn pair(barrier: Arc<B>) -> [Self; 2] {
        [0, 1].map(|id| Direct {
            barrier: Arc::clone(&barrier),
            id,
        })
    }
}

impl<B: SplitBarrier + ?Sized> Member for Direct<B> {
    type Token = ArrivalToken;

    fn arrive(&mut self, _episode: u64) -> Result<ArrivalToken, String> {
        Ok(self.barrier.arrive(self.id))
    }

    fn wait(&mut self, token: ArrivalToken) -> Result<u64, String> {
        Ok(self.barrier.wait(token).episode)
    }

    fn poison(&self) {
        self.barrier.poison();
    }
}

/// The barrier-free twin: same threads, same plan, no `arrive`/`wait`.
/// An episode's cost minus its twin's is the synchronisation cost
/// (the paper's Sec. 8 definition).
#[derive(Debug)]
pub struct NoSync;

impl Member for NoSync {
    type Token = u64;
    const SYNCS: bool = false;

    fn arrive(&mut self, episode: u64) -> Result<u64, String> {
        Ok(episode)
    }

    fn wait(&mut self, token: u64) -> Result<u64, String> {
        Ok(token)
    }

    fn poison(&self) {}
}

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }
}

/// One pass of the closed loop.
#[derive(Debug, Default)]
pub struct PairRun {
    /// Wall-clock ns per episode of each block, timed by participant 0.
    pub block_ns: Vec<f64>,
    /// One operation is one participant's episode.
    pub tally: Tally,
    pub bufs: Vec<SpanBuf>,
}

/// When a pass ends: after `seconds` of episodes, at the next block
/// boundary, or after `max_blocks` blocks, whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct Limit {
    pub seconds: f64,
    pub max_blocks: u64,
}

impl Limit {
    /// As many blocks as fit in `seconds`.
    pub fn seconds(seconds: f64) -> Limit {
        Limit {
            seconds,
            max_blocks: u64::MAX / BLOCK,
        }
    }
}

struct Shared<'a> {
    plan: &'a Plan,
    shape: Shape,
    limit: Limit,
    /// The visibility contract's data: each participant writes `e + 1` to
    /// its own slot before `arrive(e)` and must read at least that from
    /// its peer's slot after `wait(e)`. Relaxed on purpose: the barrier,
    /// not the slot, has to order the two.
    slots: [CachePadded<AtomicU64>; 2],
    /// Episodes to run. Participant 0 lowers it to `e + 1` before its
    /// `arrive(e)` once the time is up; the barrier orders that store
    /// before the peer's next look, so both stop after the same episode.
    /// A failing participant lowers it to 0.
    end: AtomicU64,
    start: std::sync::Barrier,
}

fn drive<const T: bool, M: Member>(
    id: usize,
    member: &mut M,
    shared: &Shared<'_>,
    rec: &mut Rec<T>,
    block_ns: &mut Vec<f64>,
    tally: &mut Tally,
) -> Result<(), String> {
    let units = &shared.plan.work[id];
    shared.start.wait();
    let pass_start = Instant::now();
    let mut block_start = pass_start;
    let mut e = 0;
    while e < shared.end.load(Ordering::Relaxed) {
        if id == 0 && e % BLOCK == 0 && e > 0 {
            let now = Instant::now();
            block_ns.push((now - block_start).as_nanos() as f64 / BLOCK as f64);
            block_start = now;
            if (now - pass_start).as_secs_f64() >= shared.limit.seconds {
                shared.end.fetch_min(e + 1, Ordering::Relaxed);
            }
        }
        tally.attempted += 1;
        let (before, inside) = shared.shape.split(units[e as usize % units.len()]);
        let parent = rec.open(Kind::Episode, NO_PARENT, e);
        member.before_episode(e, rec, parent)?;
        let t0 = rec.now();
        work(before);
        shared.slots[id].store(e + 1, Ordering::Relaxed);
        let t1 = rec.now();
        rec.push(Kind::Work, t0, t1, parent, e);
        let token = member.arrive(e)?;
        let t2 = rec.now();
        rec.push(Kind::Arrive, t1, t2, parent, e);
        work(inside);
        let t3 = rec.now();
        rec.push(Kind::Region, t2, t3, parent, e);
        let released = member.wait(token)?;
        let t4 = rec.now();
        rec.push(Kind::Wait, t3, t4, parent, e);
        member.after_episode(e, rec, parent)?;
        if released != e {
            tally.fail(format!(
                "participant {id}: wait released episode {released}, expected {e}"
            ));
        }
        if M::SYNCS && shared.slots[1 - id].load(Ordering::Relaxed) <= e {
            tally.fail(format!(
                "participant {id}: peer's write before arrive({e}) not visible after wait({e})"
            ));
        }
        rec.close(parent);
        e += 1;
    }
    Ok(())
}

/// Blocks a traced pass may record at most; at 5 spans an episode this
/// bounds a participant's buffer to about 32 MB.
pub const MAX_TRACED_BLOCKS: u64 = 200;

/// Runs episodes on two threads until `limit`. `T` turns span recording
/// on; `hook_spans` is how many spans per episode the members' hooks add.
pub fn run_pair<const T: bool, M: Member>(
    members: &mut [M; 2],
    plan: &Plan,
    shape: Shape,
    limit: Limit,
    hook_spans: usize,
) -> PairRun {
    let limit = Limit {
        max_blocks: if T {
            limit.max_blocks.min(MAX_TRACED_BLOCKS)
        } else {
            limit.max_blocks
        },
        ..limit
    };
    let shared = Shared {
        plan,
        shape,
        limit,
        slots: [
            CachePadded::new(AtomicU64::new(0)),
            CachePadded::new(AtomicU64::new(0)),
        ],
        // One episode past the last block, so that block gets timed.
        end: AtomicU64::new(limit.max_blocks * BLOCK + 1),
        start: std::sync::Barrier::new(2),
    };
    let capacity = if T {
        (limit.max_blocks * BLOCK + 1) as usize * (SPANS_PER_EPISODE + hook_spans)
    } else {
        0
    };
    let mut run = PairRun::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = members
            .iter_mut()
            .enumerate()
            .map(|(id, member)| {
                let shared = &shared;
                s.spawn(move || {
                    let mut rec = Rec::<T>::new(id as u32, capacity);
                    let mut block_ns = Vec::with_capacity(1 << 14);
                    let mut tally = Tally::default();
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        drive(id, member, shared, &mut rec, &mut block_ns, &mut tally)
                    }));
                    let error = match outcome {
                        Ok(Ok(())) => None,
                        Ok(Err(e)) => Some(e),
                        Err(_) => Some("panicked".to_owned()),
                    };
                    if let Some(e) = error {
                        tally.fail(format!("participant {id}: {e}"));
                        shared.end.store(0, Ordering::Relaxed);
                        member.poison();
                    }
                    if let Err(e) = member.verify() {
                        tally.fail(e);
                    }
                    (block_ns, tally, rec.finish())
                })
            })
            .collect();
        for handle in handles {
            let (block_ns, tally, buf) = handle.join().expect("the participant catches its panics");
            if buf.tid == 0 {
                run.block_ns = block_ns;
            }
            run.tally.absorb(tally);
            run.bufs.push(buf);
        }
    });
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzy_barrier::FuzzyBarrier;

    fn blocks(max_blocks: u64) -> Limit {
        Limit {
            seconds: f64::INFINITY,
            max_blocks,
        }
    }

    #[test]
    fn a_pass_ends_at_the_first_block_boundary_after_its_time() {
        let plan = Plan::generate(1, 64);
        let mut m = members();
        let run = run_pair::<false, _>(&mut m, &plan, Shape::Empty, Limit::seconds(0.0), 0);
        assert_eq!(run.block_ns.len(), 1);
        assert_eq!(
            (run.tally.attempted, run.tally.failed),
            (2 * (BLOCK + 1), 0)
        );
    }

    fn members() -> [Direct<FuzzyBarrier>; 2] {
        Direct::pair(Arc::new(FuzzyBarrier::new(2)))
    }

    #[test]
    fn untraced_pass_times_every_block_and_fails_nothing() {
        let plan = Plan::generate(1, 64);
        let mut m = members();
        let run = run_pair::<false, _>(&mut m, &plan, Shape::Fuzzy, blocks(3), 0);
        assert_eq!(run.block_ns.len(), 3);
        assert_eq!(
            (run.tally.attempted, run.tally.failed),
            (2 * (3 * BLOCK + 1), 0)
        );
        assert!(run.bufs.iter().all(|b| b.spans.is_empty()));
        assert_eq!(m[0].barrier.stats().episodes, 3 * BLOCK + 1);
    }

    #[test]
    fn traced_pass_records_five_spans_per_episode_under_one_parent() {
        let plan = Plan::generate(1, 64);
        let mut m = members();
        let run = run_pair::<true, _>(&mut m, &plan, Shape::Point, blocks(1), 0);
        for buf in &run.bufs {
            assert_eq!(buf.spans.len(), (BLOCK as usize + 1) * SPANS_PER_EPISODE);
            assert_eq!(buf.dropped, 0);
            let wait = &buf.spans[4];
            assert_eq!((wait.kind, wait.parent, wait.episode), (Kind::Wait, 0, 0));
            assert!(buf.spans[0].end_ns >= wait.end_ns);
        }
    }

    #[test]
    fn a_failing_member_ends_the_pass_instead_of_wedging_it() {
        struct FailsAt(Direct<FuzzyBarrier>, u64);
        impl Member for FailsAt {
            type Token = ArrivalToken;
            fn arrive(&mut self, episode: u64) -> Result<ArrivalToken, String> {
                if episode == self.1 {
                    return Err("injected".into());
                }
                self.0.arrive(episode)
            }
            fn wait(&mut self, token: ArrivalToken) -> Result<u64, String> {
                self.0.wait(token)
            }
            fn poison(&self) {
                self.0.poison();
            }
        }
        let plan = Plan::generate(1, 64);
        let [a, b] = members();
        let mut m = [FailsAt(a, 10), FailsAt(b, u64::MAX)];
        let run = run_pair::<false, _>(&mut m, &plan, Shape::Empty, blocks(1), 0);
        assert!(run.tally.failed >= 1, "{:?}", run.tally);
        assert!(run.tally.messages.iter().any(|m| m.contains("injected")));
    }
}
