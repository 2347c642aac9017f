use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::emit::JsonWriter;
use crate::trace::{Lane, TraceBus};
use crate::SimTime;

/// The seven phases of the DimBoost worker execution plan (Figure 7), used
/// to attribute communication and computation to the step that caused it.
///
/// No recording entry point files under [`Phase::Other`], so a run leaves it
/// empty; it stays because the checkpoint's ledger block writes one slot per
/// [`Phase::ALL`] entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Workers build local per-feature quantile sketches and push them.
    CreateSketch,
    /// Workers pull the merged sketches and derive split candidates.
    PullSketch,
    /// Tree setup: feature sampling, layout install, gradient computation.
    NewTree,
    /// Local histogram construction and the push to the servers.
    BuildHistogram,
    /// Server-side split scans, pulls of the winners, decision publishing.
    FindSplit,
    /// Decision broadcast and node-to-instance index updates.
    SplitTree,
    /// End-of-round work: score updates, loss aggregation.
    Finish,
    /// No entry point records here: kept so the checkpoint's per-phase
    /// ledger block keeps its eight slots (see the type docs).
    Other,
}

impl Phase {
    /// Number of distinct phases (the size of a per-phase table).
    pub const COUNT: usize = 8;

    /// Every phase, in execution-plan order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::CreateSketch,
        Phase::PullSketch,
        Phase::NewTree,
        Phase::BuildHistogram,
        Phase::FindSplit,
        Phase::SplitTree,
        Phase::Finish,
        Phase::Other,
    ];

    /// Stable snake_case name, used in reports and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Phase::CreateSketch => "create_sketch",
            Phase::PullSketch => "pull_sketch",
            Phase::NewTree => "new_tree",
            Phase::BuildHistogram => "build_histogram",
            Phase::FindSplit => "find_split",
            Phase::SplitTree => "split_tree",
            Phase::Finish => "finish",
            Phase::Other => "other",
        }
    }

    /// Dense index into a `[T; Phase::COUNT]` table.
    pub fn index(self) -> usize {
        match self {
            Phase::CreateSketch => 0,
            Phase::PullSketch => 1,
            Phase::NewTree => 2,
            Phase::BuildHistogram => 3,
            Phase::FindSplit => 4,
            Phase::SplitTree => 5,
            Phase::Finish => 6,
            Phase::Other => 7,
        }
    }

    /// Inverse of [`Phase::name`]: the phase whose snake_case name is
    /// `name`, if any. Used by every textual format that round-trips phases
    /// (fault plans, the events-text trace).
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Accumulated communication statistics: what moved, how many packages, and
/// how much simulated time it cost. Used by the trainer to decompose run
/// time into computation and communication (Figure 13 of the paper).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CommStats {
    /// Total payload bytes moved over the simulated network.
    pub bytes: u64,
    /// Number of packages (point-to-point messages).
    pub packages: u64,
    /// Simulated communication time. Parallel transfers within one
    /// collective are already collapsed to the critical path.
    pub sim_time: SimTime,
}

impl CommStats {
    /// A zeroed record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one logical transfer event.
    pub fn record(&mut self, bytes: u64, packages: u64, time: SimTime) {
        self.bytes += bytes;
        self.packages += packages;
        self.sim_time += time;
    }

    /// Adds another record into this one.
    pub fn absorb(&mut self, other: &CommStats) {
        self.bytes += other.bytes;
        self.packages += other.packages;
        self.sim_time += other.sim_time;
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.bytes == 0 && self.packages == 0 && self.sim_time.seconds() == 0.0
    }

    /// Writes the record's members into the object open on `w`.
    pub fn emit(&self, w: &mut JsonWriter) {
        w.u64("bytes", self.bytes);
        w.u64("packages", self.packages);
        w.f64("sim_time_secs", self.sim_time.seconds());
    }
}

/// A communication ledger broken down by [`Phase`].
///
/// Only the per-phase buckets are stored; [`CommLedger::total`] folds them
/// in [`Phase::ALL`] order. That makes the invariant *sum of per-phase
/// entries == total* structural — any consumer that re-sums the buckets in
/// plan order reproduces the aggregate bit-for-bit, including the `f64`
/// simulated time (summing in event order instead could differ in the last
/// ulp).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommLedger {
    per_phase: [CommStats; Phase::COUNT],
}

impl CommLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one event under `phase`.
    pub fn record(&mut self, phase: Phase, bytes: u64, packages: u64, time: SimTime) {
        self.per_phase[phase.index()].record(bytes, packages, time);
    }

    /// Adds a whole [`CommStats`] under `phase`.
    pub fn absorb(&mut self, phase: Phase, stats: &CommStats) {
        self.per_phase[phase.index()].absorb(stats);
    }

    /// Merges another ledger into this one, phase by phase.
    pub fn absorb_ledger(&mut self, other: &CommLedger) {
        for phase in Phase::ALL {
            self.absorb(phase, other.phase(phase));
        }
    }

    /// The aggregate over all phases (folded in plan order).
    pub fn total(&self) -> CommStats {
        let mut total = CommStats::new();
        for stats in &self.per_phase {
            total.absorb(stats);
        }
        total
    }

    /// One phase's accumulated statistics.
    pub fn phase(&self, phase: Phase) -> &CommStats {
        &self.per_phase[phase.index()]
    }

    /// `(phase, stats)` pairs with activity, in execution-plan order.
    pub fn entries(&self) -> impl Iterator<Item = (Phase, &CommStats)> {
        Phase::ALL
            .into_iter()
            .map(|p| (p, self.phase(p)))
            .filter(|(_, s)| !s.is_empty())
    }
}

/// A thread-safe, shareable [`CommLedger`] accumulator. The parameter server
/// and the collectives all record into one of these so a training run ends
/// with a single communication ledger, attributed by phase.
///
/// Every entry point takes its phase explicitly; none files under
/// [`Phase::Other`].
///
/// When a [`TraceBus`] is attached, every record additionally emits exactly
/// one trace event with the same `(phase, bytes, packages, sim_time)` — this
/// single funnel is what makes "trace comm events sum to the ledger
/// bit-exactly" hold by construction rather than by convention.
#[derive(Debug, Clone, Default)]
pub struct StatsRecorder {
    inner: Arc<Mutex<CommLedger>>,
    trace: Arc<Mutex<Option<TraceBus>>>,
}

impl StatsRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mirrors every subsequent record onto `bus` as a trace event.
    pub fn attach_trace(&self, bus: TraceBus) {
        *self.trace.lock() = Some(bus);
    }

    /// Records one event under `phase` with an operation name for the trace
    /// (e.g. `push_histogram`). The ledger ignores the name.
    pub fn record_named(
        &self,
        phase: Phase,
        name: &'static str,
        bytes: u64,
        packages: u64,
        time: SimTime,
    ) {
        self.inner.lock().record(phase, bytes, packages, time);
        if let Some(bus) = &*self.trace.lock() {
            bus.on_request(phase, name, bytes, packages, time);
        }
    }

    /// Records a pure simulated-time charge (no bytes, no packages) under
    /// `phase`. On the trace this is a barrier that advances the global
    /// simulated clock.
    pub fn charge(&self, phase: Phase, time: SimTime) {
        self.inner.lock().record(phase, 0, 0, time);
        if let Some(bus) = &*self.trace.lock() {
            bus.on_charge(phase, time);
        }
    }

    /// Mirrors a fault or membership event onto `lane` of the attached
    /// trace bus (no ledger entry — the simulated time the event costs is
    /// charged separately through [`StatsRecorder::charge`], which keeps
    /// the ledger-sum invariant intact).
    pub fn lane_event(
        &self,
        lane: Lane,
        phase: Phase,
        name: &'static str,
        dur: SimTime,
        bytes: u64,
        count: u64,
    ) {
        if let Some(bus) = &*self.trace.lock() {
            bus.on_lane(lane, phase, name, dur, bytes, count);
        }
    }

    /// Merges a previously accumulated ledger (a checkpoint's) into this
    /// recorder *without* emitting trace events: the restored history
    /// already happened in the run being resumed; replaying it would
    /// double-count events and advance the simulated clock twice.
    pub fn preload(&self, ledger: &CommLedger) {
        self.inner.lock().absorb_ledger(ledger);
    }

    /// Snapshot of the current totals (aggregate over all phases).
    pub fn snapshot(&self) -> CommStats {
        self.inner.lock().total()
    }

    /// Snapshot of the full per-phase ledger.
    pub fn ledger(&self) -> CommLedger {
        self.inner.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_absorb() {
        let mut a = CommStats::new();
        a.record(100, 2, SimTime(0.5));
        let mut b = CommStats::new();
        b.record(50, 1, SimTime(0.25));
        a.absorb(&b);
        assert_eq!(a.bytes, 150);
        assert_eq!(a.packages, 3);
        assert!((a.sim_time.seconds() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn recorder_is_shared() {
        let r = StatsRecorder::new();
        let r2 = r.clone();
        r.record_named(Phase::FindSplit, "pull_split", 10, 1, SimTime(0.1));
        r2.record_named(Phase::SplitTree, "pull_decisions", 20, 1, SimTime(0.2));
        let snap = r.snapshot();
        assert_eq!(snap.bytes, 30);
        assert_eq!(snap.packages, 2);
    }

    #[test]
    fn recorder_concurrent_updates() {
        let r = StatsRecorder::new();
        // Test-only thread spawn (this module is #[cfg(test)]): it
        // deliberately hammers the recorder from raw OS threads to prove
        // thread safety. Production hot paths never spawn per call — they
        // run on the persistent pool in `dimboost-core::pool`.
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let r = r.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        r.record_named(
                            Phase::BuildHistogram,
                            "push_histogram",
                            1,
                            1,
                            SimTime(0.001),
                        );
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.bytes, 8000);
        assert_eq!(snap.packages, 8000);
        assert!((snap.sim_time.seconds() - 8.0).abs() < 1e-6);
    }

    #[test]
    fn ledger_sums_to_total() {
        let mut ledger = CommLedger::new();
        ledger.record(Phase::CreateSketch, 100, 1, SimTime(0.1));
        ledger.record(Phase::BuildHistogram, 400, 4, SimTime(0.4));
        ledger.record(Phase::BuildHistogram, 600, 2, SimTime(0.2));
        ledger.record(Phase::FindSplit, 48, 3, SimTime(0.05));
        let mut summed = CommStats::new();
        for phase in Phase::ALL {
            summed.absorb(ledger.phase(phase));
        }
        assert_eq!(summed, ledger.total());
        assert_eq!(ledger.phase(Phase::BuildHistogram).bytes, 1000);
        assert_eq!(ledger.phase(Phase::SplitTree), &CommStats::default());
    }

    #[test]
    fn no_entry_point_files_under_other() {
        let r = StatsRecorder::new();
        r.record_named(Phase::NewTree, "publish_sampled", 10, 1, SimTime(0.1));
        r.charge(Phase::BuildHistogram, SimTime(0.05));
        r.lane_event(
            Lane::Fault,
            Phase::FindSplit,
            "dedup_hit",
            SimTime::ZERO,
            0,
            1,
        );
        let stale = "stale_reject";
        r.lane_event(
            Lane::Membership,
            Phase::BuildHistogram,
            stale,
            SimTime::ZERO,
            0,
            1,
        );
        let mut restored = CommLedger::new();
        restored.record(Phase::Finish, 5, 1, SimTime(0.25));
        r.preload(&restored);
        let ledger = r.ledger();
        assert_eq!(ledger.phase(Phase::Other), &CommStats::default());
        assert_eq!(ledger.total().bytes, 15);
    }

    #[test]
    fn ledger_entries_skip_empty_phases() {
        let r = StatsRecorder::new();
        r.record_named(Phase::NewTree, "publish_sampled", 4, 1, SimTime::ZERO);
        r.record_named(Phase::SplitTree, "pull_decisions", 64, 1, SimTime(0.2));
        let ledger = r.ledger();
        let entries: Vec<(Phase, CommStats)> = ledger.entries().map(|(p, s)| (p, *s)).collect();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, Phase::NewTree);
        assert_eq!(entries[1].0, Phase::SplitTree);
    }

    #[test]
    fn absorb_ledger_merges_per_phase() {
        let mut a = CommLedger::new();
        a.record(Phase::FindSplit, 10, 1, SimTime(0.1));
        let mut b = CommLedger::new();
        b.record(Phase::FindSplit, 20, 2, SimTime(0.2));
        b.record(Phase::Finish, 8, 1, SimTime::ZERO);
        a.absorb_ledger(&b);
        assert_eq!(a.phase(Phase::FindSplit).bytes, 30);
        assert_eq!(a.phase(Phase::Finish).bytes, 8);
        assert_eq!(a.total().bytes, 38);
    }

    #[test]
    fn attached_trace_mirrors_every_record() {
        use crate::trace::{comm_totals, TraceBus};
        use crate::CostModel;

        let r = StatsRecorder::new();
        let bus = TraceBus::new(2, 2, CostModel::GIGABIT_LAN, true);
        r.attach_trace(bus.clone());
        bus.set_worker(Some(0));
        r.record_named(
            Phase::BuildHistogram,
            "push_histogram",
            4096,
            2,
            SimTime::ZERO,
        );
        bus.set_worker(None);
        r.charge(Phase::BuildHistogram, SimTime(0.125));
        r.record_named(Phase::FindSplit, "pull_split", 64, 1, SimTime(0.001));
        r.record_named(Phase::Finish, "finish", 8, 1, SimTime::ZERO);

        let events = bus.snapshot_events();
        assert_eq!(comm_totals(&events), r.ledger());
        crate::trace::validate_events(&events).unwrap();
    }

    #[test]
    fn phase_names_and_indices_are_stable() {
        for (i, phase) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(phase.index(), i);
        }
        assert_eq!(Phase::BuildHistogram.name(), "build_histogram");
        assert_eq!(Phase::ALL.len(), Phase::COUNT);
    }
}
