//! The message-passing dissemination barrier over a [`Transport`].
//!
//! [`NetBarrier`] implements the [`SplitBarrier`] contract across a mesh
//! of `nodes` endpoints (processes, or threads over the loopback
//! transport), each hosting `locals` local participants. Nothing in the
//! split-phase contract requires shared memory: arrival is a *signal*,
//! release is a *wait*, and the fuzzy region between them is exactly the
//! slack that hides a network round-trip instead of a cache miss.
//!
//! # Protocol
//!
//! Per episode `e`, an endpoint first aggregates its `locals` local
//! arrivals (a shared-memory counter), then runs `⌈log₂ nodes⌉`
//! dissemination rounds: in round `r` it sends `Signal { e, r }` to rank
//! `(rank + 2^r) mod nodes` and waits for the mirror-image signal from
//! `(rank − 2^r) mod nodes`. All protocol state is **monotone** — per-round
//! `seen`/`sent` words hold `episode + 1` and only advance via `fetch_max`
//! — so duplicated, reordered, and re-transmitted frames are harmless by
//! construction, and any thread (a waiter, an `is_complete` probe, the
//! transport's sweeper delivering a frame) can *drive* the protocol
//! forward idempotently. Receive is part of the same pump: `arrive`,
//! `is_complete` and every probe of a stalled `wait` first
//! [`Transport::poll`] — deliver, on their own thread, whatever has
//! already arrived — and then drive, so the waiter itself reads the frame
//! that releases it and the barrier region hides the round-trip without a
//! hand-off from a reader thread. That drive-from-anywhere property is
//! what lets the [`fuzzy_barrier::AsyncBarrier`] frontend run unmodified
//! on top: its polls call [`SplitBarrier::is_complete`], which pumps both
//! directions.
//!
//! # Failure model
//!
//! * **Lost frames** are recovered receiver-side: a waiter whose round
//!   stalls past [`NetConfig::round_timeout`] re-sends its own claimed
//!   rounds and `Nack`s the round's source, which re-transmits.
//! * **Peer death** — a non-graceful `link_down`, a send failure, or
//!   [`NetConfig::resend_limit`] exhausted round recoveries — poisons the
//!   local endpoint and broadcasts a `Poison` frame, so every survivor's
//!   wait returns [`BarrierError::Poisoned`] instead of wedging.
//! * **Deadlines**: `wait_deadline` reuses the overshoot-clamped deadline
//!   arithmetic of `fuzzy_barrier::spin` (the outer deadline and the
//!   per-round receive budget are combined with `nearest_deadline`), and
//!   expiry surfaces as [`BarrierError::Timeout`] exactly like the
//!   in-memory backends.

use crate::error::NetError;
use crate::transport::{FrameSink, Transport};
use crate::wire::{DecodeError, Message};
use fuzzy_barrier::spin::{nearest_deadline, SpinReport};
use fuzzy_barrier::stats::BarrierStats;
use fuzzy_barrier::sync::Atomic;
use fuzzy_barrier::{
    ArrivalToken, BarrierError, Deadline, NetSnapshot, NetStats, RealSync, SplitBarrier,
    StallPolicy, StatsSnapshot, SyncOps, TelemetrySnapshot, WaitOutcome,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Construction-time configuration for a [`NetBarrier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Local participants hosted by this endpoint (dense ids `0..locals`).
    pub locals: usize,
    /// Stall policy for local waits.
    pub policy: StallPolicy,
    /// Receive budget per dissemination round before the recovery path
    /// (retransmit own rounds, nack the stalled source) runs. `None`
    /// disables recovery: waits block until completion, poison, or their
    /// own deadline.
    pub round_timeout: Option<Duration>,
    /// Round recoveries tolerated before the stalled round's source is
    /// declared dead and the barrier poisons.
    pub resend_limit: u32,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            locals: 1,
            // The unit is socket polls, not loads: a probe of a stalled
            // wait is a `read(2)` per link, some 100x a shared-memory
            // probe. Sixteen of them cover a peer that is running; past
            // that the waiter is burning the time slice of the peer it is
            // waiting for, and yields.
            policy: StallPolicy::SpinYield { spin_limit: 16 },
            round_timeout: Some(Duration::from_millis(200)),
            resend_limit: 25,
        }
    }
}

impl NetConfig {
    /// The default configuration: one local participant.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of local participants.
    #[must_use]
    pub fn locals(mut self, locals: usize) -> Self {
        self.locals = locals;
        self
    }

    /// Sets the local stall policy.
    #[must_use]
    pub fn policy(mut self, policy: StallPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets (or with `None`, disables) the per-round receive budget.
    #[must_use]
    pub fn round_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.round_timeout = timeout;
        self
    }

    /// Sets the recovery budget before a stalled source is declared dead.
    #[must_use]
    pub fn resend_limit(mut self, limit: u32) -> Self {
        self.resend_limit = limit;
        self
    }
}

/// Sentinel in the dead-peer word: no peer recorded (stored value is
/// `peer + 1`).
const NO_DEAD_PEER: usize = 0;

/// A [`SplitBarrier`] whose episodes are completed by message passing
/// across a [`Transport`] mesh. See the module docs for the protocol and
/// failure model.
#[derive(Debug)]
pub struct NetBarrier<S: SyncOps = RealSync> {
    transport: Arc<dyn Transport>,
    rank: usize,
    nodes: usize,
    locals: usize,
    rounds: u32,
    policy: StallPolicy,
    round_timeout: Option<Duration>,
    resend_limit: u32,
    /// Per local participant: episodes arrived (the next token's episode).
    member_episode: Vec<S::AtomicU64>,
    /// Total local arrivals ever; the endpoint has entered episode `e`
    /// once this reaches `locals * (e + 1)`. Monotone, so it needs no
    /// per-episode reset.
    local_count: S::AtomicU64,
    /// Per round: `episode + 1` of the highest inbound signal (fetch_max).
    seen: Vec<S::AtomicU64>,
    /// Per round: `episode + 1` up to which our signal is claimed sent.
    sent: Vec<S::AtomicU64>,
    /// Episodes completed at this endpoint.
    completed: S::AtomicU64,
    /// Nonzero once poisoned; doubles as the broadcast-once guard.
    poisoned: S::AtomicU32,
    /// `peer + 1` of a peer declared dead ([`NO_DEAD_PEER`] = none).
    dead_peer: S::AtomicUsize,
    stats: BarrierStats,
    net: NetStats,
}

impl NetBarrier<RealSync> {
    /// Builds the barrier over `transport` and starts frame delivery.
    ///
    /// # Panics
    ///
    /// Panics if `config.locals == 0`.
    #[must_use]
    pub fn start(transport: Arc<dyn Transport>, config: NetConfig) -> Arc<Self> {
        Self::start_in(transport, config)
    }
}

impl<S: SyncOps> NetBarrier<S> {
    /// [`NetBarrier::start`] over an explicit [`SyncOps`] domain (the
    /// `fuzzy-check` model checker substitutes its instrumented domain
    /// here).
    ///
    /// # Panics
    ///
    /// Panics if `config.locals == 0`.
    #[must_use]
    pub fn start_in(transport: Arc<dyn Transport>, config: NetConfig) -> Arc<Self> {
        assert!(config.locals > 0, "an endpoint needs at least one local");
        let rank = transport.rank();
        let nodes = transport.nodes();
        let rounds = if nodes <= 1 {
            0
        } else {
            usize::BITS - (nodes - 1).leading_zeros()
        };
        let barrier = Arc::new(NetBarrier {
            transport,
            rank,
            nodes,
            locals: config.locals,
            rounds,
            policy: config.policy,
            round_timeout: config.round_timeout,
            resend_limit: config.resend_limit,
            member_episode: (0..config.locals).map(|_| S::AtomicU64::new(0)).collect(),
            local_count: S::AtomicU64::new(0),
            seen: (0..rounds).map(|_| S::AtomicU64::new(0)).collect(),
            sent: (0..rounds).map(|_| S::AtomicU64::new(0)).collect(),
            completed: S::AtomicU64::new(0),
            poisoned: S::AtomicU32::new(0),
            dead_peer: S::AtomicUsize::new(NO_DEAD_PEER),
            stats: BarrierStats::with_participants(config.locals),
            net: NetStats::new(nodes),
        });
        let sink: Arc<dyn FrameSink> = Arc::clone(&barrier) as Arc<dyn FrameSink>;
        barrier.transport.start(sink);
        barrier
    }

    /// This endpoint's mesh rank.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of mesh endpoints.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Transport telemetry: per-peer frame counts, retries, decode errors.
    #[must_use]
    pub fn net_stats(&self) -> NetSnapshot {
        self.net.snapshot()
    }

    /// The peer this endpoint declared dead, if any.
    #[must_use]
    pub fn dead_peer(&self) -> Option<usize> {
        let v = self.dead_peer.load(Ordering::Acquire);
        (v != NO_DEAD_PEER).then(|| v - 1)
    }

    /// Says goodbye and stops frame delivery. After this the barrier can
    /// complete no further episodes.
    pub fn shutdown(&self) {
        self.transport.shutdown();
    }

    fn out_partner(&self, round: u32) -> usize {
        (self.rank + (1usize << round)) % self.nodes
    }

    fn in_partner(&self, round: u32) -> usize {
        let step = (1usize << round) % self.nodes;
        (self.rank + self.nodes - step) % self.nodes
    }

    fn locally_entered(&self, goal: u64) -> bool {
        self.local_count.load(Ordering::Acquire) >= self.locals as u64 * goal
    }

    fn is_poisoned_now(&self) -> bool {
        self.poisoned.load(Ordering::Acquire) != 0
    }

    /// The full pump, for a thread entering the barrier on behalf of local
    /// participant `who`: receive what has arrived, then [`Self::drive`].
    /// Delivery itself drives (see [`FrameSink::deliver`] below) but never
    /// polls, so the pump does not re-enter the transport.
    fn pump(&self, who: usize) {
        self.transport.poll();
        self.drive(who);
    }

    /// Non-blocking protocol pump: sends every round that is due for the
    /// lowest incomplete episode and advances completion. Idempotent and
    /// callable from any thread — waiters, probes, and whoever delivers a
    /// frame all drive. `who` is the statistics recorder pumping: the local
    /// participant whose arrival, probe or wait this is, or
    /// [`BarrierStats::NOT_A_PARTICIPANT`] for a delivering thread — it may
    /// be the transport's sweeper or another participant's poll, so a
    /// completion it observes must not be counted in some participant's
    /// single-writer cell.
    fn drive(&self, who: usize) {
        loop {
            let goal = self.completed.load(Ordering::Acquire) + 1;
            if !self.locally_entered(goal) {
                return;
            }
            let mut due = 0;
            while due < self.rounds {
                if due > 0 && self.seen[due as usize - 1].load(Ordering::Acquire) < goal {
                    break;
                }
                self.send_round(goal, due);
                due += 1;
            }
            // Release needs every round's inbound signal — the transitive
            // all-arrived proof runs through this endpoint's own waits,
            // so the final round's signal alone is not sufficient.
            let released = due == self.rounds
                && (self.rounds == 0
                    || self.seen[self.rounds as usize - 1].load(Ordering::Acquire) >= goal);
            if !released {
                return;
            }
            if self.completed.fetch_max(goal, Ordering::AcqRel) < goal {
                self.stats.record_episode(who, goal - 1);
                // The next episode's arrivals may already be in; keep
                // pumping until nothing more is due.
                continue;
            }
            return;
        }
    }

    /// Sends round `round` of the episode with goal word `goal` exactly
    /// once (the `sent` fetch_max is the claim).
    fn send_round(&self, goal: u64, round: u32) {
        // Cheap pre-check before the RMW claim: `drive` re-walks every due
        // round on each pump, and polling paths (`is_complete` loops)
        // would otherwise hammer a no-op `fetch_max` per probe.
        if self.sent[round as usize].load(Ordering::Acquire) >= goal {
            return;
        }
        if self.sent[round as usize].fetch_max(goal, Ordering::AcqRel) >= goal {
            return;
        }
        let to = self.out_partner(round);
        self.transmit(
            to,
            Message::Signal {
                episode: goal - 1,
                round,
            },
        );
    }

    fn transmit(&self, to: usize, msg: Message) {
        match self.transport.send(to, &msg) {
            Ok(()) => self.net.record_send(to),
            Err(err) => self.on_send_failure(to, &err),
        }
    }

    fn on_send_failure(&self, to: usize, err: &NetError) {
        let peer = err.peer().unwrap_or(to);
        self.mark_peer_dead(peer);
    }

    /// Declares `peer` dead: survivors poison and release instead of
    /// wedging on signals that will never come.
    fn mark_peer_dead(&self, peer: usize) {
        self.dead_peer.fetch_max(peer + 1, Ordering::AcqRel);
        self.poison_and_broadcast();
    }

    /// Poisons locally and (on the first transition only) tells every
    /// peer, so one endpoint's fault releases the whole mesh.
    fn poison_and_broadcast(&self) {
        if self.poisoned.fetch_max(1, Ordering::AcqRel) != 0 {
            return;
        }
        self.stats.record_poisoning();
        self.net.record_poison_frame();
        let episode = self.completed.load(Ordering::Acquire);
        for peer in 0..self.nodes {
            if peer != self.rank {
                // Best effort: an unreachable peer is already released by
                // its own link-down observation.
                if self
                    .transport
                    .send(peer, &Message::Poison { episode })
                    .is_ok()
                {
                    self.net.record_send(peer);
                }
            }
        }
    }

    /// The lowest round still missing its inbound signal for `goal`.
    fn first_unseen_round(&self, goal: u64) -> Option<u32> {
        (0..self.rounds).find(|&r| self.seen[r as usize].load(Ordering::Acquire) < goal)
    }

    /// Round-timeout recovery: re-send every claimed round of the stalled
    /// episode (our signal may have been dropped) and nack the source of
    /// the first missing inbound round (its signal may have been).
    fn retransmit(&self, goal: u64) {
        let episode = goal - 1;
        for round in 0..self.rounds {
            if self.sent[round as usize].load(Ordering::Acquire) < goal {
                break;
            }
            let to = self.out_partner(round);
            if self
                .transport
                .send(to, &Message::Signal { episode, round })
                .is_ok()
            {
                self.net.record_retry(to);
            } else {
                self.mark_peer_dead(to);
                return;
            }
        }
        if let Some(round) = self.first_unseen_round(goal) {
            let source = self.in_partner(round);
            if self
                .transport
                .send(source, &Message::Nack { episode, round })
                .is_ok()
            {
                self.net.record_nack();
                self.net.record_send(source);
            } else {
                self.mark_peer_dead(source);
            }
        }
    }
}

impl<S: SyncOps> SplitBarrier for NetBarrier<S> {
    fn arrive(&self, id: usize) -> ArrivalToken {
        assert!(
            id < self.locals,
            "participant id {id} out of range for {} locals",
            self.locals
        );
        let episode = self.member_episode[id].fetch_add(1, Ordering::AcqRel);
        self.stats.record_arrival(id, episode);
        self.local_count.fetch_add(1, Ordering::AcqRel);
        self.pump(id);
        ArrivalToken::new(id, episode)
    }

    fn is_complete(&self, token: &ArrivalToken) -> bool {
        self.pump(token.participant());
        self.completed.load(Ordering::Acquire) > token.episode()
    }

    fn wait_deadline(
        &self,
        token: ArrivalToken,
        deadline: Deadline,
    ) -> Result<WaitOutcome, BarrierError> {
        let episode = token.episode();
        let goal = episode + 1;
        let outer = deadline.instant();
        let mut total = SpinReport::default();
        let mut recoveries = 0u32;
        loop {
            self.pump(token.participant());
            if self.completed.load(Ordering::Acquire) >= goal {
                let outcome = WaitOutcome::from_report(episode, total);
                self.stats.record_wait(token.participant(), &outcome);
                return Ok(outcome);
            }
            if self.is_poisoned_now() {
                return Err(BarrierError::Poisoned { episode });
            }
            let round_budget = self.round_timeout.map(|t| Instant::now() + t);
            let slice = nearest_deadline(outer, round_budget);
            let report = S::wait_until_budget(self.policy, slice, || {
                // Each probe receives; a delivered signal drives the
                // protocol itself, so completion needs no second step.
                self.transport.poll();
                self.completed.load(Ordering::Acquire) >= goal || self.is_poisoned_now()
            });
            total.probes += report.probes;
            total.waited += report.waited;
            total.descheduled |= report.descheduled;
            if !report.timed_out {
                continue; // the predicate held; resolve at the top
            }
            if outer.is_some_and(|d| Instant::now() >= d) {
                total.timed_out = true;
                self.stats.record_timeout(token.participant(), &total);
                return Err(BarrierError::Timeout { episode });
            }
            // A round budget expired. Recovery only applies when we are
            // stalled on the *network*; a slow local barrier region is
            // not a fault.
            if !self.locally_entered(goal) {
                continue;
            }
            recoveries += 1;
            if recoveries > self.resend_limit {
                match self.first_unseen_round(goal) {
                    Some(round) => self.mark_peer_dead(self.in_partner(round)),
                    None => self.poison_and_broadcast(),
                }
                continue; // resolves as Poisoned (or completion) above
            }
            self.retransmit(goal);
        }
    }

    fn poison(&self) {
        self.poison_and_broadcast();
    }

    fn clear_poison(&self) {
        self.poisoned.store(0, Ordering::Release);
    }

    fn is_poisoned(&self) -> bool {
        self.is_poisoned_now()
    }

    fn participants(&self) -> usize {
        self.locals
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        self.stats.telemetry()
    }
}

impl<S: SyncOps> FrameSink for NetBarrier<S> {
    fn deliver(&self, from: usize, msg: Message) {
        self.net.record_recv(from);
        match msg {
            Message::Signal { episode, round } => {
                if (round as usize) < self.seen.len() {
                    self.seen[round as usize].fetch_max(episode + 1, Ordering::AcqRel);
                    self.drive(BarrierStats::NOT_A_PARTICIPANT);
                }
                // An out-of-range round is a peer bug, not ours: ignore.
            }
            Message::Nack { episode, round } => {
                // The sender is missing our `round` signal; re-send it if
                // we have in fact claimed it.
                if (round as usize) < self.sent.len()
                    && self.sent[round as usize].load(Ordering::Acquire) > episode
                    && self.out_partner(round) == from
                    && self
                        .transport
                        .send(from, &Message::Signal { episode, round })
                        .is_ok()
                {
                    self.net.record_retry(from);
                }
            }
            Message::Poison { .. } => {
                self.net.record_poison_frame();
                // Local only: the origin already told everyone.
                if self.poisoned.fetch_max(1, Ordering::AcqRel) == 0 {
                    self.stats.record_poisoning();
                }
            }
            Message::Hello { .. } | Message::Bye => {}
        }
    }

    fn decode_failure(&self, _from: usize, _err: DecodeError) {
        self.net.record_decode_error();
    }

    fn link_down(&self, peer: usize, graceful: bool) {
        if !graceful {
            self.mark_peer_dead(peer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::LoopbackMesh;

    fn mesh_barriers(nodes: usize, config: NetConfig) -> (LoopbackMesh, Vec<Arc<NetBarrier>>) {
        let mesh = LoopbackMesh::new(nodes);
        let barriers = mesh
            .endpoints()
            .into_iter()
            .map(|t| NetBarrier::start(Arc::new(t), config))
            .collect();
        (mesh, barriers)
    }

    #[test]
    fn single_node_is_a_local_barrier() {
        let (_mesh, bs) = mesh_barriers(1, NetConfig::new());
        let b = &bs[0];
        for e in 0..5 {
            let t = b.arrive(0);
            assert_eq!(t.episode(), e);
            assert!(b.is_complete(&t));
            assert_eq!(b.wait(t).episode, e);
        }
        assert_eq!(b.stats().episodes, 5);
    }

    #[test]
    fn membership_is_fixed_at_start() {
        let (_mesh, bs) = mesh_barriers(2, NetConfig::new());
        for b in &bs {
            assert_eq!(b.admit(0), Err(BarrierError::AdmitUnsupported));
            assert!(b.is_member(0) && !b.is_member(b.participants()));
        }
    }

    #[test]
    fn two_nodes_complete_episodes_in_lockstep() {
        let (_mesh, bs) = mesh_barriers(2, NetConfig::new());
        std::thread::scope(|s| {
            for b in &bs {
                let b = Arc::clone(b);
                s.spawn(move || {
                    for e in 0..100u64 {
                        let t = b.arrive(0);
                        assert_eq!(b.wait(t).episode, e);
                    }
                });
            }
        });
        for b in &bs {
            assert_eq!(b.stats().episodes, 100);
        }
    }

    #[test]
    fn skew_is_absorbed_by_the_fuzzy_region() {
        // Rank 0 races ahead through its arrivals; rank 1's region is
        // slow. Episodes must still agree and pipelining must not let
        // rank 0 run more than one episode ahead (it can't: it waits).
        let (_mesh, bs) = mesh_barriers(2, NetConfig::new());
        std::thread::scope(|s| {
            let fast = Arc::clone(&bs[0]);
            let slow = Arc::clone(&bs[1]);
            s.spawn(move || {
                for e in 0..20u64 {
                    let t = fast.arrive(0);
                    assert_eq!(fast.wait(t).episode, e);
                }
            });
            s.spawn(move || {
                for e in 0..20u64 {
                    let t = slow.arrive(0);
                    std::thread::sleep(Duration::from_micros(200));
                    assert_eq!(slow.wait(t).episode, e);
                }
            });
        });
    }

    #[test]
    fn five_nodes_multi_round_dissemination() {
        let (_mesh, bs) = mesh_barriers(5, NetConfig::new());
        assert_eq!(bs[0].rounds, 3);
        std::thread::scope(|s| {
            for b in &bs {
                let b = Arc::clone(b);
                s.spawn(move || {
                    for e in 0..50u64 {
                        let t = b.arrive(0);
                        assert_eq!(b.wait(t).episode, e);
                    }
                });
            }
        });
        let snap = bs[0].net_stats();
        assert!(snap.frames_sent >= 150, "3 rounds x 50 episodes");
        assert_eq!(snap.decode_errors, 0);
    }

    #[test]
    fn local_aggregation_spans_multiple_participants() {
        // Node 0 hosts three local participants, node 1 hosts one; an
        // episode needs all four.
        let mesh = LoopbackMesh::new(2);
        let many = NetBarrier::start(Arc::new(mesh.endpoint(0)), NetConfig::new().locals(3));
        let one = NetBarrier::start(Arc::new(mesh.endpoint(1)), NetConfig::new());
        std::thread::scope(|s| {
            {
                let one = Arc::clone(&one);
                s.spawn(move || {
                    for _ in 0..10u64 {
                        let t = one.arrive(0);
                        one.wait(t);
                    }
                });
            }
            for id in 0..3 {
                let many = Arc::clone(&many);
                s.spawn(move || {
                    for e in 0..10u64 {
                        let t = many.arrive(id);
                        assert_eq!(many.wait(t).episode, e);
                    }
                });
            }
        });
        assert_eq!(many.stats().episodes, 10);
        assert_eq!(many.stats().arrivals, 30);
    }

    #[test]
    fn completion_observed_by_the_delivering_thread_is_counted() {
        // Rank 0 arrives first; the frame that completes its episode is
        // delivered (loopback: on the sender's thread) while its own
        // participant is still in its region. That deliverer is no
        // participant of rank 0's, so the completion must be on the books
        // before rank 0 probes or waits — and exactly once after it does.
        let (_mesh, bs) = mesh_barriers(2, NetConfig::new());
        for e in 0..3 * fuzzy_barrier::stats::SPREAD_SAMPLE_PERIOD {
            let t0 = bs[0].arrive(0);
            assert_eq!(bs[0].stats().episodes, e, "peer has not arrived");
            let t1 = bs[1].arrive(0);
            assert_eq!(bs[0].stats().episodes, e + 1, "delivered completion");
            assert_eq!(bs[0].wait(t0).episode, e);
            assert_eq!(bs[1].wait(t1).episode, e);
            for b in &bs {
                let s = b.stats();
                assert_eq!((s.episodes, s.arrivals, s.waits), (e + 1, e + 1, e + 1));
            }
        }
        assert_eq!(bs[0].telemetry().spread.episodes, 3);
    }

    #[test]
    fn counts_are_conserved_over_loopback() {
        // Node 0 hosts `n` locals, node 1 one: completions are observed by
        // whichever local or deliverer gets there first, and every one of
        // them must land in exactly one place.
        let episodes = 150u64;
        let sampled = episodes / fuzzy_barrier::stats::SPREAD_SAMPLE_PERIOD;
        for n in [1usize, 2, 3, 8] {
            let mesh = LoopbackMesh::new(2);
            let many = NetBarrier::start(Arc::new(mesh.endpoint(0)), NetConfig::new().locals(n));
            let one = NetBarrier::start(Arc::new(mesh.endpoint(1)), NetConfig::new());
            std::thread::scope(|s| {
                let one = &one;
                s.spawn(move || {
                    for _ in 0..episodes {
                        let t = one.arrive(0);
                        one.wait(t);
                    }
                });
                for id in 0..n {
                    let many = &many;
                    s.spawn(move || {
                        for e in 0..episodes {
                            let t = many.arrive(id);
                            assert_eq!(many.wait(t).episode, e);
                        }
                    });
                }
            });
            for (b, locals) in [(&many, n as u64), (&one, 1)] {
                let t = b.telemetry();
                assert_eq!(t.base, b.stats());
                assert_eq!(t.base.episodes, episodes, "n={n}");
                assert_eq!(t.base.arrivals, episodes * locals, "n={n}");
                assert_eq!(t.base.waits, episodes * locals, "n={n}");
                assert_eq!(t.stall_hist.total(), t.base.stalls + t.base.timeouts);
                let rows = &t.per_participant;
                assert_eq!(rows.len() as u64, locals);
                assert!(rows
                    .iter()
                    .all(|p| p.arrivals == episodes && p.waits == episodes));
                assert_eq!(rows.iter().map(|p| p.stalls).sum::<u64>(), t.base.stalls);
                assert_eq!(rows.iter().map(|p| p.probes).sum::<u64>(), t.base.probes);
                assert_eq!(
                    rows.iter().map(|p| p.stall_time).sum::<Duration>(),
                    t.base.stall_time
                );
                assert_eq!(t.spread.episodes, sampled, "n={n}");
                assert!(t.spread.max >= t.spread.mean());
            }
        }
    }

    #[test]
    fn wait_deadline_times_out_without_peers() {
        let (_mesh, bs) = mesh_barriers(2, NetConfig::new());
        let t = bs[0].arrive(0);
        let err = bs[0]
            .wait_deadline(t, Deadline::after(Duration::from_millis(30)))
            .unwrap_err();
        assert_eq!(err, BarrierError::Timeout { episode: 0 });
        assert_eq!(bs[0].stats().timeouts, 1);
    }

    #[test]
    fn poison_crosses_the_wire() {
        let (_mesh, bs) = mesh_barriers(2, NetConfig::new());
        let t = bs[0].arrive(0);
        bs[1].poison();
        let err = bs[0]
            .wait_deadline(t, Deadline::after(Duration::from_secs(5)))
            .unwrap_err();
        assert_eq!(err, BarrierError::Poisoned { episode: 0 });
        assert!(bs[0].is_poisoned());
        assert!(bs[0].net_stats().poison_frames >= 1);
    }

    #[test]
    fn timeout_then_poison_releases_the_peer() {
        let (_mesh, bs) = mesh_barriers(3, NetConfig::new());
        // Ranks 0 and 1 arrive; rank 2 never does. Rank 0 times out and
        // poisons, which must release rank 1 across the mesh as Poisoned.
        let t0 = bs[0].arrive(0);
        let t1 = bs[1].arrive(0);
        assert_eq!(
            bs[0].wait_deadline(t0, Deadline::after(Duration::from_millis(30))),
            Err(BarrierError::Timeout { episode: 0 })
        );
        bs[0].poison();
        let err = bs[1]
            .wait_deadline(t1, Deadline::after(Duration::from_secs(5)))
            .unwrap_err();
        assert_eq!(err, BarrierError::Poisoned { episode: 0 });
    }

    #[test]
    fn dead_peer_poisons_survivors_not_wedges() {
        let (mesh, bs) = mesh_barriers(3, NetConfig::new());
        let t0 = bs[0].arrive(0);
        mesh.kill(2);
        let err = bs[0]
            .wait_deadline(t0, Deadline::after(Duration::from_secs(5)))
            .unwrap_err();
        assert_eq!(err, BarrierError::Poisoned { episode: 0 });
        assert_eq!(bs[0].dead_peer(), Some(2));
    }

    #[test]
    fn seeded_frame_faults_are_survived_by_recovery() {
        use crate::loopback::FaultPlan;
        let plan = FaultPlan {
            seed: 7,
            drop_permille: 60,
            dup_permille: 60,
            delay_permille: 60,
            reorder_permille: 60,
        };
        let mesh = LoopbackMesh::with_faults(4, plan);
        let config = NetConfig::new()
            .round_timeout(Some(Duration::from_millis(20)))
            .resend_limit(500);
        let bs: Vec<Arc<NetBarrier>> = mesh
            .endpoints()
            .into_iter()
            .map(|t| NetBarrier::start(Arc::new(t), config))
            .collect();
        std::thread::scope(|s| {
            for b in &bs {
                let b = Arc::clone(b);
                s.spawn(move || {
                    for e in 0..40u64 {
                        let t = b.arrive(0);
                        let outcome = b
                            .wait_deadline(t, Deadline::after(Duration::from_secs(20)))
                            .expect("faulty links must be recovered, not fatal");
                        assert_eq!(outcome.episode, e);
                    }
                });
            }
        });
        let counts = mesh.fault_counts();
        assert!(counts.drops > 0, "the plan must actually have dropped");
        let recovered: u64 = bs.iter().map(|b| b.net_stats().retries).sum();
        assert!(recovered > 0, "drops must have forced retransmissions");
    }

    #[test]
    fn async_frontend_runs_unmodified_over_the_mesh() {
        use fuzzy_barrier::AsyncBarrier;
        let (_mesh, bs) = mesh_barriers(2, NetConfig::new());
        // Cooperative: each endpoint completes by its own rounds, so the
        // frontend must take its sweep path.
        assert_eq!(bs[0].release_epoch(), None);
        let asy = Arc::new(AsyncBarrier::new(Arc::clone(&bs[0])));
        std::thread::scope(|s| {
            let peer = Arc::clone(&bs[1]);
            s.spawn(move || {
                for _ in 0..10u64 {
                    let t = peer.arrive(0);
                    peer.wait(t);
                }
            });
            s.spawn(move || {
                for e in 0..10u64 {
                    let future = asy.arrive_async(0);
                    let outcome = futures_block_on(future).expect("episode must complete");
                    assert_eq!(outcome.episode, e);
                }
            });
        });
    }

    /// Minimal single-future block_on: polls with a thread-parking waker.
    fn futures_block_on<F: std::future::Future>(future: F) -> F::Output {
        use std::pin::pin;
        use std::sync::mpsc;
        use std::task::{Context, Poll, Wake, Waker};
        struct Notify(mpsc::Sender<()>);
        impl Wake for Notify {
            fn wake(self: Arc<Self>) {
                let _ = self.0.send(());
            }
        }
        let (tx, rx) = mpsc::channel();
        let waker = Waker::from(Arc::new(Notify(tx)));
        let mut cx = Context::from_waker(&waker);
        let mut future = pin!(future);
        loop {
            match future.as_mut().poll(&mut cx) {
                Poll::Ready(v) => return v,
                Poll::Pending => {
                    // Re-poll on wake or after a short nap: the net
                    // barrier is cooperative, so polls also drive it.
                    let _ = rx.recv_timeout(Duration::from_millis(5));
                }
            }
        }
    }
}
