//! Per-barrier statistics and episode telemetry, kept off the shared
//! cache lines.
//!
//! Every backend records how many episodes completed, how many arrivals it
//! saw, and — crucially for reproducing the paper's Sec. 8 measurement —
//! how many waits actually *stalled* and for how long. A stall that
//! escalates to a deschedule corresponds to the Encore context save/restore
//! the paper identifies as the dominant synchronization cost.
//!
//! The paper's Sec. 1 case against software barriers is the hot spot:
//! every processor doing a read-modify-write on the same word. Telemetry
//! must not rebuild that hot spot beside the protocol, so recording and
//! reporting are split:
//!
//! * **Recording** (`record_*`, on the `arrive` / `wait` paths) writes one
//!   participant-private, cache-line-padded *cell* with a plain load and
//!   store: no read-modify-write, no line another participant writes, and
//!   no clock read except on a sampled arrival (below). Each cell holds
//!   every per-event counter and the participant's own power-of-two stall
//!   histogram ([`StallHistogram`]: bucket `i` counts stalls with
//!   `2^i <= ns < 2^(i+1)`, bucket 0 also absorbs zero).
//! * **Reporting** (`BarrierStats::snapshot`, `BarrierStats::telemetry`)
//!   folds the cells into the public snapshot types: totals are the shared
//!   block plus the sum over cells, histograms are merged. A snapshot is
//!   O(participants); it is the cold side, taken a few times a run, and
//!   that is the side that should pay.
//! * **Arrival spread** — the gap between the first and last `arrive` of an
//!   episode, the direct measure of the drift the barrier region absorbed —
//!   is measured on every [`SPREAD_SAMPLE_PERIOD`]-th episode (never on
//!   episode 0, which measures thread start-up). On a sampled episode each
//!   arriver stamps its own cell (the one clock read left on the arrive
//!   path) and the completer takes max − min over the cells stamped for
//!   exactly that episode.
//!
//! A small shared block remains for what has no participant: the cold
//! counters (timeouts, evictions, poisonings, spread totals), and as the
//! read-modify-write fallback for participant-blind statistics, ids out of
//! range, and recorders that are not a participant's thread
//! (`BarrierStats::NOT_A_PARTICIPANT`). Nothing on either path allocates.

use crate::spin::SpinReport;
use crate::token::WaitOutcome;
use fuzzy_util::{counter_set, CachePadded, Json, HISTOGRAM_BUCKETS, SHARED_SECTION_KEYS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A point-in-time copy of a [`StallHistogram`]: the power-of-two
/// histogram the simulator's stall cycles are reported in too.
pub use fuzzy_util::Histogram as HistogramSnapshot;

/// Arrival spread is measured on every `SPREAD_SAMPLE_PERIOD`-th episode —
/// the last of each period: episodes 63, 127, … One in 64 keeps the clock
/// read and the completer's walk over the cells under 2 % of the arrivals
/// while a run of a few thousand episodes still folds dozens of samples.
///
/// Episode 0 is thereby never sampled, on purpose: its spread is thread
/// start-up skew, milliseconds against the microseconds of a steady
/// episode, and sampled 1-in-64 it would weigh 64 times what it did when
/// every episode was measured. A run shorter than one period measures no
/// spread.
pub const SPREAD_SAMPLE_PERIOD: u64 = 64;
const _: () = assert!(SPREAD_SAMPLE_PERIOD.is_power_of_two());

/// Stamp tag of a cell that holds no arrival stamp (yet, or mid-rewrite).
const NO_STAMP: u64 = u64::MAX;

pub(crate) fn is_sampled(episode: u64) -> bool {
    episode & (SPREAD_SAMPLE_PERIOD - 1) == SPREAD_SAMPLE_PERIOD - 1
}

fn saturating_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// `total / count` without narrowing the count (a `Duration` divides by
/// `u32` only); zero when nothing was counted.
fn mean_duration(total: Duration, count: u64) -> Duration {
    const NANOS_PER_SEC: u128 = 1_000_000_000;
    if count == 0 {
        return Duration::ZERO;
    }
    let nanos = total.as_nanos() / u128::from(count);
    Duration::new(
        (nanos / NANOS_PER_SEC) as u64,
        (nanos % NANOS_PER_SEC) as u32,
    )
}

/// Adds `n` to a counter. A participant's own cell has a single writer, so
/// a load and a store suffice; the shared block takes the
/// read-modify-write.
#[inline]
pub(crate) fn add(counter: &AtomicU64, n: u64, sole_writer: bool) {
    if sole_writer {
        let value = counter.load(Ordering::Relaxed).wrapping_add(n);
        counter.store(value, Ordering::Relaxed);
    } else {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// A lock-free recorder of a [`HistogramSnapshot`]: the same
/// power-of-two buckets, one atomic counter each. For barrier stalls the
/// recorded value is nanoseconds.
#[derive(Debug)]
pub struct StallHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for StallHistogram {
    fn default() -> Self {
        StallHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl StallHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket(&self, value: u64) -> &AtomicU64 {
        &self.buckets[HistogramSnapshot::bucket_index(value)]
    }

    /// Records one observation of `value`. Safe from any number of threads.
    pub fn record(&self, value: u64) {
        add(self.bucket(value), 1, false);
    }

    /// Takes a point-in-time copy of the bucket counts.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// One block of per-event counters. It exists once per participant, inside
/// that participant's [`Cell`] and written by it alone, and once more as
/// the shared block any thread may write.
#[derive(Debug, Default)]
struct Counters {
    /// Episodes whose completion this writer recorded.
    episodes: AtomicU64,
    arrivals: AtomicU64,
    waits: AtomicU64,
    stalls: AtomicU64,
    deschedules: AtomicU64,
    stall_nanos: AtomicU64,
    probes: AtomicU64,
    stall_hist: StallHistogram,
}

impl Counters {
    /// Folds the cost of one wait that had to stall — completed or cut
    /// short by its deadline — into the stall totals and the histogram.
    fn record_stall(&self, probes: u64, nanos: u64, sole_writer: bool) {
        add(&self.stall_nanos, nanos, sole_writer);
        add(&self.probes, probes, sole_writer);
        add(self.stall_hist.bucket(nanos), 1, sole_writer);
    }

    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            episodes: self.episodes.load(Ordering::Relaxed),
            arrivals: self.arrivals.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
            deschedules: self.deschedules.load(Ordering::Relaxed),
            stall_time: Duration::from_nanos(self.stall_nanos.load(Ordering::Relaxed)),
            probes: self.probes.load(Ordering::Relaxed),
            ..StatsSnapshot::default()
        }
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            base: self.snapshot(),
            stall_hist: self.stall_hist.snapshot(),
            ..TelemetrySnapshot::default()
        }
    }
}

/// One participant's private statistics: its counters and its arrival
/// stamp for the most recent sampled episode.
#[derive(Debug)]
struct Cell {
    counters: Counters,
    /// The sampled episode `stamp_nanos` belongs to, or [`NO_STAMP`].
    stamp_episode: AtomicU64,
    /// When this participant arrived for `stamp_episode`, in ns since the
    /// stats anchor.
    stamp_nanos: AtomicU64,
}

impl Cell {
    fn new() -> Self {
        Cell {
            counters: Counters::default(),
            stamp_episode: AtomicU64::new(NO_STAMP),
            stamp_nanos: AtomicU64::new(0),
        }
    }

    /// Stamps this participant's arrival for sampled episode `episode`.
    /// The tag is cleared first and set last, so a completer that reads the
    /// tag on both sides of the time (see [`Self::stamp_for`]) never pairs
    /// one episode's tag with another's time.
    fn stamp(&self, episode: u64, nanos: u64) {
        self.stamp_episode.store(NO_STAMP, Ordering::Relaxed);
        self.stamp_nanos.store(nanos, Ordering::Release);
        self.stamp_episode.store(episode, Ordering::Release);
    }

    /// This participant's arrival time for `episode`, if its stamp is for
    /// exactly that episode. A stale stamp (an evicted participant's, or
    /// one not yet written) and one being rewritten both read as `None`.
    fn stamp_for(&self, episode: u64) -> Option<u64> {
        if self.stamp_episode.load(Ordering::Acquire) != episode {
            return None;
        }
        // Acquire: if this reads a later stamp's time, the tag read below
        // sees that stamp's cleared (or newer) tag and rejects it.
        let nanos = self.stamp_nanos.load(Ordering::Acquire);
        (self.stamp_episode.load(Ordering::Relaxed) == episode).then_some(nanos)
    }
}

/// What has no participant to belong to: the fallback [`Counters`] plus
/// the cold counters and the folded spread totals.
#[derive(Debug, Default)]
struct Shared {
    counters: Counters,
    timeouts: AtomicU64,
    evictions: AtomicU64,
    poisonings: AtomicU64,
    /// Sampled episodes with a measured spread.
    spread_episodes: AtomicU64,
    /// Sum of the measured spreads.
    spread_total_nanos: AtomicU64,
    /// Largest spread seen.
    spread_max_nanos: AtomicU64,
    /// Spread of the most recently measured episode.
    spread_last_nanos: AtomicU64,
}

/// Statistics recorded by barrier operations; see the module docs for the
/// split between recording and reporting.
///
/// Construct with [`BarrierStats::with_participants`] to give each
/// participant a private cell; the [`Default`] block is
/// participant-blind and records everything into the shared block (it
/// therefore measures no arrival spread — there is no cell to stamp).
///
/// # The single-writer rule
///
/// Cell `id` is written only by the thread currently *driving* participant
/// `id`: the one inside `arrive(id)`, or probing / waiting on the token
/// that arrival returned. Every `record_*` call that names an in-range id
/// relies on it, which is what lets a cell be updated with a plain load
/// and store. A participant may move between threads, but every such
/// hand-off already synchronizes: an async task migrates through the
/// executor's run-queue mutex and is probed by other tasks only under the
/// frontend's probe lock; a reconfigurable barrier's slot changes owner
/// when a departure frees it, with a release the next joiner's claim
/// acquires;
/// a supervisor re-admits a crashed member through the same join path. So
/// the next writer always observes the previous writer's last store. A
/// recorder that is *not* the driving thread — a supervisor running
/// `evict`, a transport reader delivering the frame that completes an
/// episode — must pass [`BarrierStats::NOT_A_PARTICIPANT`] and takes the
/// shared block's read-modify-write instead; two writers on one cell would
/// lose counts. Snapshots read cells with relaxed loads from any thread.
#[derive(Debug)]
pub(crate) struct BarrierStats {
    /// One padded cell per participant; empty when participant-blind.
    cells: Box<[CachePadded<Cell>]>,
    shared: Shared,
    /// Monotonic time origin for arrival stamps.
    anchor: Instant,
}

impl Default for BarrierStats {
    fn default() -> Self {
        Self::with_participants(0)
    }
}

impl BarrierStats {
    /// The recorder id of a thread that is not driving any participant
    /// (see the single-writer rule on the type): out of every range, so
    /// the record lands in the shared block.
    pub const NOT_A_PARTICIPANT: usize = usize::MAX;

    /// Creates a statistics block with a private cell for each of the
    /// participants `0..n`. All storage is allocated here; recording never
    /// allocates.
    #[must_use]
    pub fn with_participants(n: usize) -> Self {
        BarrierStats {
            cells: (0..n).map(|_| CachePadded::new(Cell::new())).collect(),
            shared: Shared::default(),
            anchor: Instant::now(),
        }
    }

    /// The counters recorder `id` writes, and whether it is their only
    /// writer.
    fn counters(&self, id: usize) -> (&Counters, bool) {
        match self.cells.get(id) {
            Some(cell) => (&cell.counters, true),
            None => (&self.shared.counters, false),
        }
    }

    /// Records participant `id`'s arrival for `episode`. On a sampled
    /// episode this also stamps the arrival time — the only clock read on
    /// the arrive path.
    ///
    /// Call it *before* the protocol step that makes the arrival visible
    /// to peers, so the completer of `episode` finds the stamp.
    ///
    /// Public so that [`crate::SplitBarrier`] implementations outside this
    /// crate (the `fuzzy-net` message-passing backend, checker mutants) can
    /// feed the same telemetry schema as the in-process backends.
    pub fn record_arrival(&self, id: usize, episode: u64) {
        let Some(cell) = self.cells.get(id) else {
            add(&self.shared.counters.arrivals, 1, false);
            return;
        };
        add(&cell.counters.arrivals, 1, true);
        if is_sampled(episode) {
            cell.stamp(episode, saturating_nanos(self.anchor.elapsed()));
        }
    }

    /// Records the completion of `episode`, observed by recorder `id`, and
    /// on a sampled episode folds its arrival spread. Call exactly once
    /// per episode, from whichever thread observes completion first.
    pub fn record_episode(&self, id: usize, episode: u64) {
        let (counters, sole_writer) = self.counters(id);
        add(&counters.episodes, 1, sole_writer);
        if is_sampled(episode) {
            self.fold_spread(episode);
        }
    }

    /// Measures `episode`'s arrival spread: latest minus earliest stamp
    /// over the cells stamped for exactly this episode. Exact, because a
    /// cell's stamp names its episode: neither an early arrival for a later
    /// episode nor an evicted participant's old stamp can leak in.
    fn fold_spread(&self, episode: u64) {
        let mut stamps = self.cells.iter().filter_map(|c| c.stamp_for(episode));
        let Some(first) = stamps.next() else {
            return;
        };
        let (earliest, latest) =
            stamps.fold((first, first), |(lo, hi), at| (lo.min(at), hi.max(at)));
        let spread = latest - earliest;
        let shared = &self.shared;
        shared.spread_episodes.fetch_add(1, Ordering::Relaxed);
        shared
            .spread_total_nanos
            .fetch_add(spread, Ordering::Relaxed);
        shared.spread_max_nanos.fetch_max(spread, Ordering::Relaxed);
        shared.spread_last_nanos.store(spread, Ordering::Relaxed);
    }

    /// Records one completed wait by participant `id`: stall/deschedule
    /// counters and the stall histogram.
    pub fn record_wait(&self, id: usize, outcome: &WaitOutcome) {
        let (counters, sole_writer) = self.counters(id);
        add(&counters.waits, 1, sole_writer);
        if outcome.stalled {
            add(&counters.stalls, 1, sole_writer);
            let nanos = saturating_nanos(outcome.stall_time);
            counters.record_stall(outcome.probes, nanos, sole_writer);
        }
        if outcome.descheduled {
            add(&counters.deschedules, 1, sole_writer);
        }
    }

    /// Records a wait that expired at its deadline. The time spent stalled
    /// before giving up goes into the same stall histogram and per
    /// participant attribution as a successful stalled wait — a timeout
    /// *is* a stall, just one that was cut short — plus the dedicated
    /// `timeouts` counter. `waits`/`stalls` are untouched so the
    /// waits-equals-arrivals invariant keeps holding once the wait is
    /// eventually retried to completion.
    pub fn record_timeout(&self, id: usize, report: &SpinReport) {
        self.shared.timeouts.fetch_add(1, Ordering::Relaxed);
        let (counters, sole_writer) = self.counters(id);
        counters.record_stall(report.probes, saturating_nanos(report.waited), sole_writer);
        if report.descheduled {
            add(&counters.deschedules, 1, sole_writer);
        }
    }

    /// Records a participant eviction (mask shrink due to failure).
    pub fn record_eviction(&self) {
        self.shared.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a poisoning transition (only the first `poison` call after a
    /// clear counts).
    pub fn record_poisoning(&self) {
        self.shared.poisonings.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds the flat counters: the shared block plus every cell. Fields
    /// are read individually with relaxed ordering; exact cross-field
    /// consistency is not needed for statistics.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut total = self.shared_snapshot();
        for cell in self.cells.iter() {
            total.merge(&cell.counters.snapshot());
        }
        total
    }

    fn shared_snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            timeouts: self.shared.timeouts.load(Ordering::Relaxed),
            evictions: self.shared.evictions.load(Ordering::Relaxed),
            poisonings: self.shared.poisonings.load(Ordering::Relaxed),
            ..self.shared.counters.snapshot()
        }
    }

    /// Takes the full telemetry snapshot: flat counters and stall
    /// histogram folded over the cells as in [`Self::snapshot`], the
    /// arrival spread, and one row per cell.
    #[must_use]
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let shared = &self.shared;
        let mut total = TelemetrySnapshot {
            base: self.shared_snapshot(),
            spread: SpreadSnapshot {
                episodes: shared.spread_episodes.load(Ordering::Relaxed),
                total: Duration::from_nanos(shared.spread_total_nanos.load(Ordering::Relaxed)),
                max: Duration::from_nanos(shared.spread_max_nanos.load(Ordering::Relaxed)),
                last: Duration::from_nanos(shared.spread_last_nanos.load(Ordering::Relaxed)),
            },
            per_participant: Vec::with_capacity(self.cells.len()),
            ..shared.counters.telemetry()
        };
        for cell in self.cells.iter() {
            let own = cell.counters.telemetry();
            total.merge(&own);
            total.per_participant.push(ParticipantSnapshot {
                arrivals: own.base.arrivals,
                waits: own.base.waits,
                stalls: own.base.stalls,
                stall_time: own.base.stall_time,
                probes: own.base.probes,
            });
        }
        total
    }
}

counter_set! {
    /// A point-in-time copy of a barrier's flat counters.
    pub struct StatsSnapshot {
        /// Completed barrier episodes.
        episodes: u64 => "episodes",
        /// Total arrivals across all participants and episodes.
        arrivals: u64 => "arrivals",
        /// Total waits (should equal arrivals when the protocol is followed).
        waits: u64 => "waits",
        /// Waits that found synchronization incomplete and had to stall.
        stalls: u64 => "stalls",
        /// Stalls that escalated to a yield or park (context switch analogue).
        deschedules: u64 => "deschedules",
        /// Total wait probes performed while stalled.
        probes: u64 => "probes",
        /// Bounded waits that expired at their deadline.
        timeouts: u64 => "timeouts",
        /// Participants evicted from the barrier (mask shrinks due to failure).
        evictions: u64 => "evictions",
        /// Poisoning transitions (unpoisoned barrier marked poisoned).
        poisonings: u64 => "poisonings",
        /// Total wall-clock time spent stalled, summed over participants.
        stall_time: Duration => "stall_ns",
    }
}

impl StatsSnapshot {
    /// Fraction of waits that stalled, in `[0, 1]`. Returns 0 when no waits
    /// have happened yet.
    #[must_use]
    pub fn stall_rate(&self) -> f64 {
        if self.waits == 0 {
            0.0
        } else {
            self.stalls as f64 / self.waits as f64
        }
    }

    /// Mean stall time per wait (not per stall), the per-synchronization
    /// overhead comparable to the paper's µs-per-barrier numbers.
    #[must_use]
    pub fn mean_stall_per_wait(&self) -> Duration {
        mean_duration(self.stall_time, self.waits)
    }
}

/// Arrival-spread summary: per-episode gap between first and last arrival,
/// over the sampled episodes (see [`SPREAD_SAMPLE_PERIOD`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpreadSnapshot {
    /// Episodes with a measured spread.
    pub episodes: u64,
    /// Sum of spreads over those episodes.
    pub total: Duration,
    /// Largest single-episode spread.
    pub max: Duration,
    /// Spread of the most recently measured episode.
    pub last: Duration,
}

impl SpreadSnapshot {
    /// The keys of [`Self::to_json`]: `episodes`, `total`, `max`, `last`
    /// and the derived mean, the durations in nanoseconds.
    pub const KEYS: [&'static str; 5] = ["episodes", "total_ns", "max_ns", "last_ns", "mean_ns"];

    /// Mean spread per measured episode.
    #[must_use]
    pub fn mean(&self) -> Duration {
        mean_duration(self.total, self.episodes)
    }

    /// JSON form, keyed by [`Self::KEYS`].
    #[must_use]
    pub fn to_json(&self) -> Json {
        let [episodes, total, max, last, mean] = Self::KEYS;
        Json::obj()
            .field(episodes, self.episodes)
            .field(total, saturating_nanos(self.total))
            .field(max, saturating_nanos(self.max))
            .field(last, saturating_nanos(self.last))
            .field(mean, saturating_nanos(self.mean()))
    }
}

counter_set! {
    /// One participant's view of the counters.
    pub struct ParticipantSnapshot {
        /// Arrivals performed by this participant.
        arrivals: u64 => "arrivals",
        /// Waits performed by this participant.
        waits: u64 => "waits",
        /// Waits that stalled.
        stalls: u64 => "stalls",
        /// Total time this participant spent stalled.
        stall_time: Duration => "stall_ns",
        /// Probes performed while stalled.
        probes: u64 => "probes",
    }
}

counter_set! {
    /// Counters of the async (poll-based) barrier frontend.
    ///
    /// Tracked separately from the barrier's own statistics on purpose: the
    /// flat [`StatsSnapshot`] feeds schema-pinned experiment exports, so
    /// async-only counters have a shape of their own rather than widening a
    /// frozen one.
    /// The parking-protocol counts come from
    /// [`crate::AsyncBarrier::async_stats`], which folds them at snapshot time
    /// (there is no shared counter block to bump on the poll path); `steals`
    /// is `fuzzy-sched`'s executor's.
    pub struct AsyncSnapshot {
        /// Waiters that registered a waker (on a release-word backend the
        /// second pending poll, elsewhere the first).
        parked: u64 => "parked",
        /// Previously parked waiters that completed their episode.
        resumed: u64 => "resumed",
        /// Drain sweeps over the parked-waiter registry.
        drains: u64 => "drains",
        /// Wakers invoked by drains.
        wakes: u64 => "wakes",
        /// Barrier-future polls.
        polls: u64 => "polls",
        /// Futures whose first pending poll yielded (woke its own task)
        /// instead of parking.
        yields: u64 => "yields",
        /// Tasks stolen from another worker's run queue.
        steals: u64 => "steals",
    }
}

/// The full telemetry picture: flat counters, stall histogram, arrival
/// spread, and per-participant counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// The flat counters (same values as [`crate::SplitBarrier::stats`]).
    pub base: StatsSnapshot,
    /// Power-of-two-nanosecond histogram of individual stall durations.
    pub stall_hist: HistogramSnapshot,
    /// Per-episode first-to-last arrival gap summary.
    pub spread: SpreadSnapshot,
    /// Per-participant counters; empty for participant-blind stats.
    pub per_participant: Vec<ParticipantSnapshot>,
}

impl TelemetrySnapshot {
    /// The keys [`Self::to_json`] adds after the flat counters'
    /// [`StatsSnapshot::KEYS`]: the stall histogram, the spread and the
    /// per-participant rows.
    pub const KEYS: [&'static str; 3] = [
        SHARED_SECTION_KEYS[0],
        SHARED_SECTION_KEYS[1],
        "per_participant",
    ];

    /// Wraps a flat snapshot with empty telemetry — the default
    /// [`crate::SplitBarrier::telemetry`] for backends that only track flat
    /// counters.
    #[must_use]
    pub fn from_base(base: StatsSnapshot) -> Self {
        TelemetrySnapshot {
            base,
            ..TelemetrySnapshot::default()
        }
    }

    /// Adds another snapshot into this one (for aggregation across
    /// barriers or participants): flat counters and spread totals add,
    /// histograms merge, spread `max` keeps the larger side, and spread
    /// `last` follows `other` when it measured anything. `per_participant`
    /// is left alone: rows of different barriers do not line up.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        self.base.merge(&other.base);
        self.stall_hist.merge(&other.stall_hist);
        if other.spread.episodes > 0 {
            let spread = &mut self.spread;
            spread.episodes = spread.episodes.saturating_add(other.spread.episodes);
            spread.total = spread.total.saturating_add(other.spread.total);
            spread.max = spread.max.max(other.spread.max);
            spread.last = other.spread.last;
        }
    }

    /// JSON form: the flat counters, then the sections named by
    /// [`Self::KEYS`] — the `--stats-json` schema of README.md's
    /// Telemetry section.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let [hist, spread, rows] = Self::KEYS;
        let rows_json = self
            .per_participant
            .iter()
            .map(ParticipantSnapshot::to_json);
        self.base
            .to_json()
            .field(hist, self.stall_hist.to_json("ns"))
            .field(spread, self.spread.to_json())
            .field(rows, Json::Arr(rows_json.collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_of_fresh_stats_is_zero() {
        let s = BarrierStats::default().snapshot();
        assert_eq!(s, StatsSnapshot::default());
        assert_eq!(s.stall_rate(), 0.0);
        assert_eq!(s.mean_stall_per_wait(), Duration::ZERO);
    }

    #[test]
    fn record_wait_accumulates() {
        let stats = BarrierStats::default();
        stats.record_arrival(0, 0);
        stats.record_wait(
            0,
            &WaitOutcome {
                episode: 0,
                stalled: true,
                descheduled: true,
                probes: 12,
                stall_time: Duration::from_micros(3),
            },
        );
        stats.record_wait(0, &WaitOutcome::default());
        let s = stats.snapshot();
        assert_eq!(s.arrivals, 1);
        assert_eq!(s.waits, 2);
        assert_eq!(s.stalls, 1);
        assert_eq!(s.deschedules, 1);
        assert_eq!(s.probes, 12);
        assert!((s.stall_rate() - 0.5).abs() < f64::EPSILON);
    }

    #[test]
    fn mean_stall_divides_by_waits() {
        let stats = BarrierStats::default();
        for _ in 0..4 {
            stats.record_wait(
                0,
                &WaitOutcome {
                    episode: 0,
                    stalled: true,
                    descheduled: false,
                    probes: 1,
                    stall_time: Duration::from_micros(8),
                },
            );
        }
        let s = stats.snapshot();
        assert_eq!(s.mean_stall_per_wait(), Duration::from_micros(8));
    }

    #[test]
    fn telemetry_json_has_schema_fields() {
        use crate::{CentralBarrier, SplitBarrier};
        let b = CentralBarrier::new(2);
        std::thread::scope(|s| {
            for id in 0..2 {
                let b = &b;
                s.spawn(move || {
                    for _ in 0..3 {
                        let t = b.arrive(id);
                        b.wait(t);
                    }
                });
            }
        });
        let j = b.telemetry().to_json();
        assert_eq!(j.get("episodes").and_then(Json::as_f64), Some(3.0));
        assert_eq!(j.get("arrivals").and_then(Json::as_f64), Some(6.0));
        assert!(j.get("stall_hist").is_some());
        assert!(j.get("spread").unwrap().get("mean_ns").is_some());
        assert_eq!(j.get("per_participant").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn empty_episode_telemetry_snapshot() {
        let t = BarrierStats::with_participants(3).telemetry();
        assert_eq!(t.base, StatsSnapshot::default());
        assert!(t.stall_hist.is_empty());
        assert_eq!(t.spread, SpreadSnapshot::default());
        assert_eq!(t.spread.mean(), Duration::ZERO);
        assert_eq!(t.per_participant.len(), 3);
        assert!(t
            .per_participant
            .iter()
            .all(|p| *p == ParticipantSnapshot::default()));
    }

    /// The `k`-th sampled episode.
    fn sampled(k: u64) -> u64 {
        (k + 1) * SPREAD_SAMPLE_PERIOD - 1
    }

    /// The gap between two cells' arrival stamps, read white-box.
    fn stamp_gap(stats: &BarrierStats, early: usize, late: usize) -> Duration {
        let at = |id: usize| stats.cells[id].stamp_nanos.load(Ordering::Relaxed);
        Duration::from_nanos(at(late) - at(early))
    }

    #[test]
    fn only_the_last_episode_of_each_period_is_sampled() {
        assert!(!is_sampled(0), "episode 0 measures thread start-up");
        let hits: Vec<u64> = (0..3 * SPREAD_SAMPLE_PERIOD)
            .filter(|&e| is_sampled(e))
            .collect();
        assert_eq!(hits, [sampled(0), sampled(1), sampled(2)]);
    }

    #[test]
    fn spread_measures_first_to_last_arrival() {
        let stats = BarrierStats::with_participants(2);
        // Episodes between samples count as episodes and measure nothing.
        for e in 0..sampled(0) {
            stats.record_arrival(0, e);
            stats.record_arrival(1, e);
            stats.record_episode(0, e);
        }
        assert_eq!(stats.telemetry().spread, SpreadSnapshot::default());
        stats.record_arrival(0, sampled(0));
        std::thread::sleep(Duration::from_millis(2));
        stats.record_arrival(1, sampled(0));
        stats.record_episode(1, sampled(0));
        let t = stats.telemetry();
        assert_eq!(t.base.episodes, SPREAD_SAMPLE_PERIOD);
        assert_eq!(t.spread.episodes, 1);
        assert!(t.spread.last >= Duration::from_millis(2), "{:?}", t.spread);
        assert_eq!(
            t.spread.last,
            stamp_gap(&stats, 0, 1),
            "exact, not approximate"
        );
        assert_eq!(t.spread.last, t.spread.max);
        assert_eq!(t.spread.last, t.spread.total);
        // The next sampled episode re-arms cleanly.
        stats.record_arrival(0, sampled(1));
        stats.record_arrival(1, sampled(1));
        stats.record_episode(0, sampled(1));
        let t = stats.telemetry();
        assert_eq!(t.spread.episodes, 2);
        assert_eq!(t.spread.last, stamp_gap(&stats, 0, 1));
        assert!(t.spread.last <= t.spread.max);
        assert_eq!(t.spread.mean(), t.spread.total / 2);
    }

    #[test]
    fn early_arrival_for_the_next_episode_leaves_the_sample_alone() {
        // Participant 0 is released from sampled episode e and arrives for
        // e + 1 before the completer gets to record e: the shared
        // first/last words this replaces folded that arrival into e's
        // spread. A cell's stamp names its episode, so nothing leaks.
        let stats = BarrierStats::with_participants(2);
        let e = sampled(0);
        stats.record_arrival(0, e);
        stats.record_arrival(1, e);
        let exact = stamp_gap(&stats, 0, 1);
        std::thread::sleep(Duration::from_millis(2));
        stats.record_arrival(0, e + 1);
        stats.record_episode(1, e);
        let spread = stats.telemetry().spread;
        assert_eq!(spread.episodes, 1);
        assert_eq!(spread.last, exact);
        // Even an arrival for the next *sampled* episode only removes its
        // own cell from the fold; it never stretches the sample.
        stats.record_arrival(0, sampled(1));
        stats.record_arrival(1, sampled(1));
        std::thread::sleep(Duration::from_millis(2));
        stats.record_arrival(0, sampled(2));
        stats.record_episode(1, sampled(1));
        let spread = stats.telemetry().spread;
        assert_eq!(spread.episodes, 2);
        assert_eq!(spread.last, Duration::ZERO, "one stamped cell left");
    }

    #[test]
    fn evicted_participants_stale_stamp_is_ignored() {
        let stats = BarrierStats::with_participants(3);
        for id in 0..3 {
            stats.record_arrival(id, sampled(0));
        }
        stats.record_episode(2, sampled(0));
        // Participant 2 is evicted; its cell keeps the old stamp.
        std::thread::sleep(Duration::from_millis(2));
        stats.record_arrival(0, sampled(1));
        stats.record_arrival(1, sampled(1));
        stats.record_episode(BarrierStats::NOT_A_PARTICIPANT, sampled(1));
        let t = stats.telemetry();
        assert_eq!(t.base.episodes, 2);
        assert_eq!(t.spread.episodes, 2);
        assert_eq!(t.spread.last, stamp_gap(&stats, 0, 1));
        assert!(t.spread.last < stamp_gap(&stats, 2, 0), "{:?}", t.spread);
    }

    #[test]
    fn unsampled_episode_reads_no_clock_derived_state() {
        let stats = BarrierStats::with_participants(2);
        for e in 0..sampled(0) {
            stats.record_arrival(0, e);
            stats.record_arrival(1, e);
            stats.record_episode(1, e);
        }
        let t = stats.telemetry();
        assert_eq!(t.base.episodes, SPREAD_SAMPLE_PERIOD - 1);
        assert_eq!(t.base.arrivals, 2 * (SPREAD_SAMPLE_PERIOD - 1));
        assert_eq!(t.spread, SpreadSnapshot::default());
        for cell in stats.cells.iter() {
            assert_eq!(cell.stamp_episode.load(Ordering::Relaxed), NO_STAMP);
            assert_eq!(cell.stamp_nanos.load(Ordering::Relaxed), 0);
        }
        // Participant-blind statistics have no cell to stamp: arrivals and
        // episodes count, spread stays unmeasured even on a sampled episode.
        let blind = BarrierStats::default();
        blind.record_arrival(0, sampled(0));
        blind.record_episode(0, sampled(0));
        let t = blind.telemetry();
        assert_eq!((t.base.arrivals, t.base.episodes), (1, 1));
        assert_eq!(t.spread, SpreadSnapshot::default());
    }

    #[test]
    fn cells_are_padded_and_in_range_recording_never_touches_the_shared_block() {
        let stats = BarrierStats::with_participants(4);
        for pair in stats.cells.windows(2) {
            let a = std::ptr::from_ref::<Cell>(&pair[0]) as usize;
            let b = std::ptr::from_ref::<Cell>(&pair[1]) as usize;
            assert!(b - a >= 128, "cells {a:#x} and {b:#x} share a line pair");
            assert_eq!(a % 128, 0);
        }
        assert!(
            std::mem::size_of::<CachePadded<Cell>>() <= 768,
            "a cell is {} bytes",
            std::mem::size_of::<CachePadded<Cell>>()
        );
        let stalled = WaitOutcome {
            episode: 0,
            stalled: true,
            descheduled: true,
            probes: 3,
            stall_time: Duration::from_nanos(700),
        };
        for e in 0..1_000u64 {
            for id in 0..4 {
                stats.record_arrival(id, e);
            }
            stats.record_episode((e % 4) as usize, e);
            for id in 0..4 {
                stats.record_wait(id, &stalled);
            }
        }
        // The hot-spot words of the old design are never written.
        let shared = stats.shared.counters.telemetry();
        assert_eq!(shared.base, StatsSnapshot::default());
        assert!(shared.stall_hist.is_empty());
        // ... and the fold still reports every event.
        let t = stats.telemetry();
        assert_eq!(t.base, stats.snapshot());
        assert_eq!(t.base.arrivals, 4_000);
        assert_eq!(t.base.waits, 4_000);
        assert_eq!(t.base.stalls, 4_000);
        assert_eq!(t.base.deschedules, 4_000);
        assert_eq!(t.base.probes, 12_000);
        assert_eq!(t.base.episodes, 1_000);
        assert_eq!(t.stall_hist.total(), 4_000);
        assert_eq!(t.per_participant.len(), 4);
        assert!(t.per_participant.iter().all(|p| p.arrivals == 1_000));
    }

    #[test]
    fn out_of_range_and_non_participant_recorders_take_the_shared_block() {
        let stats = BarrierStats::with_participants(2);
        stats.record_arrival(0, sampled(0));
        stats.record_arrival(7, sampled(0));
        stats.record_wait(7, &WaitOutcome::default());
        stats.record_episode(BarrierStats::NOT_A_PARTICIPANT, sampled(0));
        let shared = stats.shared.counters.snapshot();
        assert_eq!((shared.arrivals, shared.waits, shared.episodes), (1, 1, 1));
        let t = stats.telemetry();
        assert_eq!((t.base.arrivals, t.base.waits, t.base.episodes), (2, 1, 1));
        assert_eq!(t.per_participant[0].arrivals, 1);
        assert_eq!(t.spread.episodes, 1, "cell 0 stamped the episode");
    }

    #[test]
    fn means_survive_more_than_u32_max_counts() {
        // 2^33 episodes of 3 ns each: dividing by a count clamped to
        // u32::MAX reported 6 ns, growing with the run.
        let episodes = 1u64 << 33;
        let spread = SpreadSnapshot {
            episodes,
            total: Duration::from_nanos(3 * episodes),
            ..SpreadSnapshot::default()
        };
        assert_eq!(spread.mean(), Duration::from_nanos(3));
        let stats = StatsSnapshot {
            waits: episodes,
            stall_time: Duration::from_nanos(5 * episodes),
            ..StatsSnapshot::default()
        };
        assert_eq!(stats.mean_stall_per_wait(), Duration::from_nanos(5));
        // Totals past u64 nanoseconds still divide exactly.
        let long = SpreadSnapshot {
            episodes: 4,
            total: Duration::from_secs(u64::MAX / 2),
            ..SpreadSnapshot::default()
        };
        assert_eq!(long.mean(), Duration::from_secs(u64::MAX / 2) / 4);
    }

    #[test]
    fn merge_adds_counts_and_keeps_the_larger_extremes() {
        let a = BarrierStats::with_participants(1);
        let b = BarrierStats::with_participants(1);
        let wait = |probes, nanos| WaitOutcome {
            episode: 0,
            stalled: true,
            descheduled: false,
            probes,
            stall_time: Duration::from_nanos(nanos),
        };
        a.record_arrival(0, sampled(0));
        a.record_episode(0, sampled(0));
        a.record_wait(0, &wait(10, 100));
        a.record_eviction();
        b.record_arrival(0, sampled(0));
        b.record_episode(0, sampled(0));
        b.record_wait(0, &wait(40, 900));
        b.record_wait(0, &wait(40, 900));
        b.record_poisoning();
        let (ta, tb) = (a.telemetry(), b.telemetry());
        let mut total = ta.clone();
        total.merge(&tb);
        assert_eq!(total.base.arrivals, 2);
        assert_eq!(total.base.episodes, 2);
        assert_eq!(total.base.waits, 3);
        assert_eq!(total.base.probes, 90);
        assert_eq!(total.base.stall_time, Duration::from_nanos(1_900));
        assert_eq!((total.base.evictions, total.base.poisonings), (1, 1));
        assert_eq!(total.stall_hist.total(), 3);
        assert_eq!(total.spread.episodes, 2);
        assert_eq!(total.per_participant, ta.per_participant, "rows untouched");
        let mut flat = ta.base;
        flat.merge(&tb.base);
        assert_eq!(flat, total.base);
        // The spread maximum keeps the larger side; `last` follows the
        // side merged in.
        let wide = Duration::from_millis(5);
        let mut spread = TelemetrySnapshot {
            spread: SpreadSnapshot {
                episodes: 1,
                total: wide,
                max: wide,
                last: wide,
            },
            ..TelemetrySnapshot::default()
        };
        spread.merge(&total);
        assert_eq!(spread.spread.episodes, 3);
        assert_eq!(spread.spread.max, wide);
        assert_eq!(spread.spread.last, total.spread.last);
    }

    #[test]
    fn fault_counters_accumulate() {
        let stats = BarrierStats::with_participants(2);
        stats.record_timeout(
            1,
            &crate::spin::SpinReport {
                probes: 40,
                descheduled: true,
                waited: Duration::from_micros(9),
                timed_out: true,
            },
        );
        stats.record_eviction();
        stats.record_poisoning();
        let t = stats.telemetry();
        assert_eq!(t.base.timeouts, 1);
        assert_eq!(t.base.evictions, 1);
        assert_eq!(t.base.poisonings, 1);
        assert_eq!(t.base.deschedules, 1);
        assert_eq!(t.base.stall_time, Duration::from_micros(9));
        assert_eq!(t.stall_hist.total(), 1, "timeout stall lands in the hist");
        assert_eq!(t.per_participant[1].probes, 40);
        // Waits/stalls untouched: the arrival has not completed its wait.
        assert_eq!(t.base.waits, 0);
        assert_eq!(t.base.stalls, 0);
    }

    #[test]
    fn per_participant_counters_attribute_stalls() {
        let stats = BarrierStats::with_participants(2);
        stats.record_arrival(0, 0);
        stats.record_arrival(1, 0);
        stats.record_wait(
            1,
            &WaitOutcome {
                episode: 0,
                stalled: true,
                descheduled: false,
                probes: 7,
                stall_time: Duration::from_micros(5),
            },
        );
        stats.record_wait(0, &WaitOutcome::default());
        let t = stats.telemetry();
        assert_eq!(t.per_participant[0].stalls, 0);
        assert_eq!(t.per_participant[1].stalls, 1);
        assert_eq!(t.per_participant[1].probes, 7);
        assert_eq!(t.per_participant[1].stall_time, Duration::from_micros(5));
        assert_eq!(t.stall_hist.total(), 1);
        // Out-of-range ids (from participant-blind callers) are ignored,
        // not a panic.
        stats.record_wait(9, &WaitOutcome::default());
        assert_eq!(stats.snapshot().waits, 3);
    }
}
