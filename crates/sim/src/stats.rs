//! Execution statistics collected by the machine.
//!
//! The thread library's telemetry schema (`fuzzy-barrier`'s `stats`
//! module) with **cycles** in place of nanoseconds: the shared
//! power-of-two stall histogram, per-sync-event arrival spread (first vs
//! last barrier-region entry of the group), and per-processor counters.

use fuzzy_util::{counter_set, Histogram, Json, SHARED_SECTION_KEYS};

/// Machine-level synchronization telemetry, in cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncTelemetry {
    /// Histogram of individual stall durations (cycles a processor spent
    /// in state iv before its group synchronized).
    pub stall_hist: Histogram,
    /// Sync events with a measured arrival spread.
    pub spread_events: u64,
    /// Sum of per-event spreads (first-to-last barrier-region entry).
    pub spread_total_cycles: u64,
    /// Largest single-event spread.
    pub spread_max_cycles: u64,
    /// Spread of the most recent sync event.
    pub spread_last_cycles: u64,
}

impl SyncTelemetry {
    /// The keys of [`Self::spread_json`]: event count, total, maximum,
    /// last and mean spread, in cycles.
    pub const SPREAD_KEYS: [&'static str; 5] = [
        "events",
        "total_cycles",
        "max_cycles",
        "last_cycles",
        "mean_cycles",
    ];

    /// Records the arrival spread of one sync event.
    pub fn record_spread(&mut self, spread: u64) {
        self.spread_events += 1;
        self.spread_total_cycles += spread;
        self.spread_max_cycles = self.spread_max_cycles.max(spread);
        self.spread_last_cycles = spread;
    }

    /// Mean arrival spread per sync event, in cycles.
    #[must_use]
    pub fn mean_spread_cycles(&self) -> f64 {
        if self.spread_events == 0 {
            0.0
        } else {
            self.spread_total_cycles as f64 / self.spread_events as f64
        }
    }

    /// The spread summary as JSON, keyed by [`Self::SPREAD_KEYS`].
    #[must_use]
    pub fn spread_json(&self) -> Json {
        let [events, total, max, last, mean] = Self::SPREAD_KEYS;
        Json::obj()
            .field(events, self.spread_events)
            .field(total, self.spread_total_cycles)
            .field(max, self.spread_max_cycles)
            .field(last, self.spread_last_cycles)
            .field(mean, self.mean_spread_cycles())
    }
}

counter_set! {
    /// Per-processor counters.
    pub struct ProcStats {
        /// Instructions issued (and, in this model, executed).
        instructions: u64 => "instructions",
        /// Cycles spent stalled at a barrier exit (state iv). This is the
        /// quantity the fuzzy barrier exists to minimize.
        stall_cycles: u64 => "stall_cycles",
        /// Distinct stall episodes (entries into state iv) — the cycle-domain
        /// twin of the thread library's per-participant `stalls` counter.
        stall_events: u64 => "stall_events",
        /// Cycles the processor was busy waiting on a multi-cycle instruction
        /// (dominated by memory latency).
        busy_cycles: u64 => "busy_cycles",
        /// Number of dynamic barrier-region entries.
        barrier_entries: u64 => "barrier_entries",
        /// Number of synchronizations this processor took part in.
        syncs: u64 => "syncs",
    }
}

impl ProcStats {
    /// Total cycles attributable to this processor's activity so far
    /// (issue + busy + stall). Useful as a sanity cross-check against the
    /// machine clock.
    #[must_use]
    pub fn active_cycles(&self) -> u64 {
        self.instructions + self.busy_cycles + self.stall_cycles
    }
}

/// Machine-level aggregates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Cycles elapsed.
    pub cycles: u64,
    /// Synchronization events (one per tag-group per firing cycle).
    pub sync_events: u64,
    /// Stall histogram and arrival-spread telemetry, in cycles.
    pub sync: SyncTelemetry,
    /// Per-processor counters.
    pub procs: Vec<ProcStats>,
}

impl MachineStats {
    /// The keys of [`Self::to_json`]: the clock, the sync-event count, the
    /// stall histogram, the spread summary and the per-processor rows.
    pub const KEYS: [&'static str; 5] = [
        "cycles",
        "sync_events",
        SHARED_SECTION_KEYS[0],
        SHARED_SECTION_KEYS[1],
        "procs",
    ];

    /// Sum of stall cycles across processors — the headline cost metric in
    /// the experiments.
    #[must_use]
    pub fn total_stall_cycles(&self) -> u64 {
        self.procs.iter().map(|p| p.stall_cycles).sum()
    }

    /// Sum of instructions across processors.
    #[must_use]
    pub fn total_instructions(&self) -> u64 {
        self.procs.iter().map(|p| p.instructions).sum()
    }

    /// Fraction of processor-cycles lost to barrier stalls, in `[0, 1]`.
    #[must_use]
    pub fn stall_fraction(&self) -> f64 {
        let total = self.cycles * self.procs.len() as u64;
        if total == 0 {
            0.0
        } else {
            self.total_stall_cycles() as f64 / total as f64
        }
    }

    /// JSON form of the whole snapshot in the shared telemetry schema
    /// (the `--stats-json` output of `fsim` and the `exp_*` binaries),
    /// keyed by [`Self::KEYS`].
    #[must_use]
    pub fn to_json(&self) -> Json {
        let [cycles, sync_events, hist, spread, procs] = Self::KEYS;
        let procs_json = self.procs.iter().map(ProcStats::to_json);
        Json::obj()
            .field(cycles, self.cycles)
            .field(sync_events, self.sync_events)
            .field(hist, self.sync.stall_hist.to_json("cycles"))
            .field(spread, self.sync.spread_json())
            .field(procs, Json::Arr(procs_json.collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_sum_over_procs() {
        let stats = MachineStats {
            cycles: 100,
            sync_events: 3,
            sync: SyncTelemetry::default(),
            procs: vec![
                ProcStats {
                    instructions: 50,
                    stall_cycles: 10,
                    ..ProcStats::default()
                },
                ProcStats {
                    instructions: 60,
                    stall_cycles: 30,
                    ..ProcStats::default()
                },
            ],
        };
        assert_eq!(stats.total_stall_cycles(), 40);
        assert_eq!(stats.total_instructions(), 110);
        assert!((stats.stall_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_zero_stall_fraction() {
        assert_eq!(MachineStats::default().stall_fraction(), 0.0);
    }

    #[test]
    fn sync_telemetry_tracks_spread() {
        let mut t = SyncTelemetry::default();
        assert_eq!(t.mean_spread_cycles(), 0.0);
        t.record_spread(4);
        t.record_spread(10);
        t.record_spread(1);
        assert_eq!(t.spread_events, 3);
        assert_eq!(t.spread_total_cycles, 15);
        assert_eq!(t.spread_max_cycles, 10);
        assert_eq!(t.spread_last_cycles, 1);
        assert!((t.mean_spread_cycles() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn active_cycles_adds_components() {
        let p = ProcStats {
            instructions: 5,
            stall_cycles: 2,
            busy_cycles: 3,
            ..ProcStats::default()
        };
        assert_eq!(p.active_cycles(), 10);
    }
}
