//! `threads_churn`: the `threads_fuzzy` plan over a `ReconfigBarrier`
//! with bounded waits, while thread 0 hosts a guest member that joins
//! every [`CYCLE`] episodes, arrives for [`STAY`], then leaves — so
//! membership writes run beside the episode reads.

use super::threads::put_core_stats;
use super::{pair_end_to_end, pair_traced, publish_spans, span_summary, threads, Ctx, EndToEnd};
use crate::pair::{Member, Tally};
use crate::plan::Shape;
use crate::spec::Ledger;
use crate::stats::{median, Summary};
use crate::trace::{Kind, Rec};
use fuzzy_barrier::{
    CentralBarrier, Deadline, JoinTicket, MemberHandle, ReconfigBarrier, ReconfigToken,
};
use std::sync::Arc;
use std::time::Duration;

const CAPACITY: usize = 4;
/// The guest joins at episodes `0, CYCLE, 2 * CYCLE, …`.
const CYCLE: u64 = 64;
/// Episodes the guest arrives for before it leaves.
const STAY: u64 = 32;
/// A wait that would wedge becomes a counted failure instead.
const WAIT_DEADLINE: Duration = Duration::from_secs(5);
/// Spans the guest adds to an episode at most.
const HOOK_SPANS: usize = 3;

/// The guest member, driven by the thread that hosts it.
#[derive(Debug, Default)]
struct Guest {
    /// A join staged and not yet seen active, with its episode.
    staged: Option<(JoinTicket, u64)>,
    handle: Option<MemberHandle>,
    arrivals: u64,
    token: Option<ReconfigToken>,
    /// Episodes from `join` to the first episode that saw it active.
    activation_episodes: Vec<f64>,
}

#[derive(Debug)]
pub struct ChurnMember {
    barrier: Arc<ReconfigBarrier>,
    handle: MemberHandle,
    guest: Option<Guest>,
}

impl Member for ChurnMember {
    type Token = ReconfigToken;

    fn arrive(&mut self, _episode: u64) -> Result<ReconfigToken, String> {
        self.barrier.arrive(&self.handle).map_err(|e| e.to_string())
    }

    fn wait(&mut self, token: ReconfigToken) -> Result<u64, String> {
        self.barrier
            .wait_deadline(&token, Deadline::after(WAIT_DEADLINE))
            .map(|outcome| outcome.episode)
            .map_err(|e| e.to_string())
    }

    fn poison(&self) {
        self.barrier.poison();
    }

    fn before_episode<const T: bool>(
        &mut self,
        episode: u64,
        rec: &mut Rec<T>,
        parent: u32,
    ) -> Result<(), String> {
        let Some(guest) = &mut self.guest else {
            return Ok(());
        };
        let barrier = &self.barrier;
        if let Some((ticket, joined)) = guest.staged {
            if barrier.is_active(&ticket) {
                guest.handle = Some(barrier.wait_active(&ticket));
                guest.staged = None;
                guest.arrivals = 0;
                guest.activation_episodes.push((episode - joined) as f64);
            }
        }
        if episode.is_multiple_of(CYCLE) && guest.staged.is_none() && guest.handle.is_none() {
            let ticket = rec
                .timed(Kind::Join, parent, episode, || barrier.join())
                .map_err(|e| format!("join: {e}"))?;
            guest.staged = Some((ticket, episode));
        }
        if let Some(handle) = guest.handle {
            if guest.arrivals == STAY {
                guest.handle = None;
                rec.timed(Kind::Leave, parent, episode, || barrier.leave(handle))
                    .map_err(|e| format!("leave: {e}"))?;
            } else {
                guest.arrivals += 1;
                let token = rec
                    .timed(Kind::GuestArrive, parent, episode, || {
                        barrier.arrive(&handle)
                    })
                    .map_err(|e| format!("guest arrive: {e}"))?;
                guest.token = Some(token);
            }
        }
        Ok(())
    }

    fn after_episode<const T: bool>(
        &mut self,
        episode: u64,
        rec: &mut Rec<T>,
        parent: u32,
    ) -> Result<(), String> {
        let Some(token) = self.guest.as_mut().and_then(|g| g.token.take()) else {
            return Ok(());
        };
        let barrier = &self.barrier;
        let released = rec
            .timed(Kind::GuestWait, parent, episode, || {
                barrier.wait_deadline(&token, Deadline::after(WAIT_DEADLINE))
            })
            .map_err(|e| format!("guest wait: {e}"))?
            .episode;
        if released != episode {
            return Err(format!(
                "guest released from episode {released}, expected {episode}"
            ));
        }
        Ok(())
    }
}

fn members() -> Result<[ChurnMember; 2], String> {
    let (barrier, handles) =
        ReconfigBarrier::new(CAPACITY, 2, |n| Arc::new(CentralBarrier::new(n)));
    let barrier = Arc::new(barrier);
    let members: Vec<ChurnMember> = handles
        .into_iter()
        .enumerate()
        .map(|(index, handle)| ChurnMember {
            barrier: Arc::clone(&barrier),
            handle,
            guest: (index == 0).then(Guest::default),
        })
        .collect();
    members
        .try_into()
        .map_err(|_| "ReconfigBarrier::new(_, 2, _) did not return two handles".to_owned())
}

pub fn end_to_end(ctx: &Ctx) -> Result<EndToEnd, String> {
    pair_end_to_end(ctx, Shape::Fuzzy, members)
}

pub fn traced(ctx: &Ctx, ledger: &mut Ledger) -> Result<Tally, String> {
    let t = pair_traced(ctx, Shape::Fuzzy, HOOK_SPANS, members)?;
    let mut tally = t.tally.clone();
    publish_spans("threads_churn", &t.bufs)?;

    for (name, kind) in [
        ("core.reconfig.arrive_ns_p50", Kind::Arrive),
        ("core.reconfig.wait_ns_p50", Kind::Wait),
        ("core.reconfig.join_ns_p50", Kind::Join),
        ("core.reconfig.leave_ns_p50", Kind::Leave),
    ] {
        ledger.put_timing(name, &span_summary(&t.bufs, kind));
    }
    let guest = t.members[0].guest.as_ref();
    let mut activations = guest.map_or(Vec::new(), |g| g.activation_episodes.clone());
    if activations.is_empty() {
        tally.fail("the guest never became active".to_owned());
    }
    ledger.put_timing(
        "core.reconfig.join_to_active_episodes",
        &Summary::of(&mut activations),
    );
    // `threads_fuzzy` is this plan and shape over the plain barrier.
    let plain = threads::untraced_pass(ctx, Shape::Fuzzy, &t.plan, &mut tally)?;
    ledger.put(
        "core.reconfig.gate_overhead_ns",
        t.untraced.median - median(plain),
    );
    let barrier = &t.members[0].barrier;
    put_core_stats(ledger, &barrier.stats(), || barrier.telemetry());
    ledger.put("sched.executor.busy_unit_ns", t.busy_unit_ns);
    ledger.put("bench.trace_overhead_frac", t.overhead_frac());
    Ok(tally)
}
