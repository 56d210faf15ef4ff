//! Run observation hooks: stage lifecycle events, counters, wall-times.
//!
//! The engine reports progress through a [`RunObserver`] — stage
//! started/finished events (with wall-clock duration) and named counters
//! (checks executed, measurements kept, retries, …). Observers are for
//! telemetry only: nothing an observer does can influence a run, so the
//! report stays a pure function of the seed no matter who is watching.
//!
//! Two implementations ship with the crate: [`NullObserver`] (the
//! default, ignores everything) and [`TimingObserver`] (collects
//! per-stage wall-times, counters and artifact-store loads, e.g. for
//! the `pipeline_times` bench bin or the `pd` CLI's `--timings` flag).
//!
//! ```
//! use pd_core::{RunObserver, StageKind, TimingObserver};
//! use std::time::Duration;
//!
//! let obs = TimingObserver::new();
//! obs.stage_started(StageKind::Crowd);
//! obs.counter(StageKind::Crowd, "checks", 60);
//! obs.stage_finished(StageKind::Crowd, Duration::from_millis(5));
//! obs.stage_loaded(StageKind::Crawl, "00000000deadbeef"); // store hit
//!
//! assert_eq!(obs.starts(StageKind::Crowd), 1);
//! assert_eq!(obs.timings()[0].counters, vec![("checks".to_owned(), 60)]);
//! assert_eq!(obs.loads(StageKind::Crawl), 1); // loaded, never started
//! assert_eq!(obs.starts(StageKind::Crawl), 0);
//! ```

use std::sync::Mutex;
use std::time::Duration;

/// The engine's pipeline stages, in run order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StageKind {
    /// World assembly (retailers, vantage fleet, crowd population).
    Build,
    /// The crowd campaign plus cleaning.
    Crowd,
    /// The systematic multi-day retailer crawl.
    Crawl,
    /// The persona and login probes (Sec. 4.4), plus the attribution
    /// and third-party probes the analysis reads.
    Personas,
    /// Figures and tables.
    Analysis,
}

impl StageKind {
    /// Stable lowercase name (used in JSON and log output).
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            StageKind::Build => "build",
            StageKind::Crowd => "crowd",
            StageKind::Crawl => "crawl",
            StageKind::Personas => "personas",
            StageKind::Analysis => "analysis",
        }
    }
}

impl std::fmt::Display for StageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Observation hooks for one engine run. All methods have no-op
/// defaults; implement only what you need. Implementations must be
/// `Send + Sync` (the engine is shareable across threads) but events are
/// only ever emitted from the coordinating thread, in deterministic
/// order.
pub trait RunObserver: Send + Sync {
    /// All following events belong to the named sweep arm (emitted once
    /// per labeled arm, before its build stage; never emitted for
    /// single-run scenarios). Arm events arrive merged in arm order —
    /// concurrent arms record into per-arm buffers that are replayed
    /// label-ordered, so observers need no locking discipline beyond
    /// `Send + Sync`.
    fn arm_started(&self, _label: &str) {}
    /// A stage is about to run.
    fn stage_started(&self, _stage: StageKind) {}
    /// A stage finished after `wall` of wall-clock time.
    fn stage_finished(&self, _stage: StageKind, _wall: Duration) {}
    /// A named quantity observed while `stage` ran.
    fn counter(&self, _stage: StageKind, _name: &str, _value: u64) {}
    /// A stage's artifact was satisfied from an artifact store
    /// ([`crate::store`]) instead of being computed: the stage will emit
    /// no `stage_started`/`stage_finished` pair. `fingerprint` is the
    /// hex stage fingerprint the load was validated against.
    fn stage_loaded(&self, _stage: StageKind, _fingerprint: &str) {}
}

/// The do-nothing observer (the engine default).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl RunObserver for NullObserver {}

/// One completed stage as recorded by [`TimingObserver`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTiming {
    /// Sweep-arm label the stage ran under (empty for single runs).
    pub arm: String,
    /// Which stage.
    pub stage: StageKind,
    /// Wall-clock duration.
    pub wall: Duration,
    /// Counters emitted while the stage ran, in emission order.
    pub counters: Vec<(String, u64)>,
}

#[derive(Debug, Default)]
struct TimingState {
    arm: String,
    started: Vec<StageKind>,
    finished: Vec<StageTiming>,
    pending: Vec<(StageKind, String, u64)>,
    loaded: Vec<(StageKind, String)>,
}

/// Collects per-stage wall-times and counters.
#[derive(Debug, Default)]
pub struct TimingObserver {
    state: Mutex<TimingState>,
}

impl TimingObserver {
    /// A fresh, empty observer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Every finished stage, in completion order.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned (a stage panicked).
    #[must_use]
    pub fn timings(&self) -> Vec<StageTiming> {
        self.state.lock().expect("observer lock").finished.clone()
    }

    /// How many times `stage` was started (cache-hit audits: a reused
    /// artifact must not re-start its stage).
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned (a stage panicked).
    #[must_use]
    pub fn starts(&self, stage: StageKind) -> usize {
        self.state
            .lock()
            .expect("observer lock")
            .started
            .iter()
            .filter(|s| **s == stage)
            .count()
    }

    /// How many times `stage` was satisfied from an artifact store
    /// (the persistence counterpart of [`TimingObserver::starts`]: a
    /// store hit must show up here and *not* in `starts`).
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned (a stage panicked).
    #[must_use]
    pub fn loads(&self, stage: StageKind) -> usize {
        self.state
            .lock()
            .expect("observer lock")
            .loaded
            .iter()
            .filter(|(s, _)| *s == stage)
            .count()
    }

    /// Every store-satisfied stage with its hex fingerprint, in load
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned (a stage panicked).
    #[must_use]
    pub fn loaded(&self) -> Vec<(StageKind, String)> {
        self.state.lock().expect("observer lock").loaded.clone()
    }
}

impl RunObserver for TimingObserver {
    fn arm_started(&self, label: &str) {
        self.state.lock().expect("observer lock").arm = label.to_owned();
    }

    fn stage_started(&self, stage: StageKind) {
        self.state
            .lock()
            .expect("observer lock")
            .started
            .push(stage);
    }

    fn stage_finished(&self, stage: StageKind, wall: Duration) {
        let mut state = self.state.lock().expect("observer lock");
        let counters = {
            let (mine, rest): (Vec<_>, Vec<_>) =
                state.pending.drain(..).partition(|(s, _, _)| *s == stage);
            state.pending = rest;
            mine.into_iter().map(|(_, n, v)| (n, v)).collect()
        };
        let arm = state.arm.clone();
        state.finished.push(StageTiming {
            arm,
            stage,
            wall,
            counters,
        });
    }

    fn counter(&self, stage: StageKind, name: &str, value: u64) {
        self.state
            .lock()
            .expect("observer lock")
            .pending
            .push((stage, name.to_owned(), value));
    }

    fn stage_loaded(&self, stage: StageKind, fingerprint: &str) {
        self.state
            .lock()
            .expect("observer lock")
            .loaded
            .push((stage, fingerprint.to_owned()));
    }
}

/// One recorded observer event (see [`BufferedObserver`]).
#[derive(Debug, Clone)]
enum ObsEvent {
    ArmStarted(String),
    Started(StageKind),
    Finished(StageKind, Duration),
    Counter(StageKind, String, u64),
    Loaded(StageKind, String),
}

/// Records every observer event for later, in-order replay.
///
/// Concurrent sweep arms each run under their own `BufferedObserver`;
/// after the arms join, the engine replays the buffers into the user's
/// observer **in arm order**. The user-facing event stream is therefore
/// deterministic and race-free no matter how the OS interleaved the
/// arms — the same contract the [`crate::Executor`]'s index-ordered
/// merge gives artifact data.
#[derive(Debug, Default)]
pub struct BufferedObserver {
    events: Mutex<Vec<ObsEvent>>,
}

impl BufferedObserver {
    /// A fresh, empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Replays every recorded event into `target`, in recording order.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned (a stage panicked).
    pub fn replay(&self, target: &dyn RunObserver) {
        for event in self.events.lock().expect("observer lock").iter() {
            match event {
                ObsEvent::ArmStarted(label) => target.arm_started(label),
                ObsEvent::Started(stage) => target.stage_started(*stage),
                ObsEvent::Finished(stage, wall) => target.stage_finished(*stage, *wall),
                ObsEvent::Counter(stage, name, value) => target.counter(*stage, name, *value),
                ObsEvent::Loaded(stage, fp) => target.stage_loaded(*stage, fp),
            }
        }
    }

    fn record(&self, event: ObsEvent) {
        self.events.lock().expect("observer lock").push(event);
    }
}

impl RunObserver for BufferedObserver {
    fn arm_started(&self, label: &str) {
        self.record(ObsEvent::ArmStarted(label.to_owned()));
    }

    fn stage_started(&self, stage: StageKind) {
        self.record(ObsEvent::Started(stage));
    }

    fn stage_finished(&self, stage: StageKind, wall: Duration) {
        self.record(ObsEvent::Finished(stage, wall));
    }

    fn counter(&self, stage: StageKind, name: &str, value: u64) {
        self.record(ObsEvent::Counter(stage, name.to_owned(), value));
    }

    fn stage_loaded(&self, stage: StageKind, fingerprint: &str) {
        self.record(ObsEvent::Loaded(stage, fingerprint.to_owned()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_observer_attributes_counters_to_stages() {
        let obs = TimingObserver::new();
        obs.stage_started(StageKind::Crowd);
        obs.counter(StageKind::Crowd, "checks", 150);
        obs.counter(StageKind::Crowd, "kept", 120);
        obs.stage_finished(StageKind::Crowd, Duration::from_millis(7));
        obs.stage_started(StageKind::Crawl);
        obs.counter(StageKind::Crawl, "retailers", 21);
        obs.stage_finished(StageKind::Crawl, Duration::from_millis(3));

        let timings = obs.timings();
        assert_eq!(timings.len(), 2);
        assert_eq!(timings[0].stage, StageKind::Crowd);
        assert_eq!(
            timings[0].counters,
            vec![("checks".to_owned(), 150), ("kept".to_owned(), 120)]
        );
        assert_eq!(timings[1].counters, vec![("retailers".to_owned(), 21)]);
        assert_eq!(obs.starts(StageKind::Crowd), 1);
        assert_eq!(obs.starts(StageKind::Analysis), 0);
    }

    #[test]
    fn store_loads_are_recorded_separately_from_starts() {
        let obs = TimingObserver::new();
        obs.stage_loaded(StageKind::Crowd, "00000000deadbeef");
        obs.stage_started(StageKind::Analysis);
        obs.stage_finished(StageKind::Analysis, Duration::from_millis(1));
        assert_eq!(obs.loads(StageKind::Crowd), 1);
        assert_eq!(obs.starts(StageKind::Crowd), 0, "a load is not a start");
        assert_eq!(obs.loads(StageKind::Analysis), 0);
        assert_eq!(
            obs.loaded(),
            vec![(StageKind::Crowd, "00000000deadbeef".to_owned())]
        );
    }

    #[test]
    fn buffered_observer_replays_in_recording_order() {
        let buf = BufferedObserver::new();
        buf.arm_started("seed-8");
        buf.stage_started(StageKind::Crowd);
        buf.counter(StageKind::Crowd, "checks", 9);
        buf.stage_finished(StageKind::Crowd, Duration::from_millis(2));
        buf.stage_loaded(StageKind::Crawl, "00000000deadbeef");

        let target = TimingObserver::new();
        buf.replay(&target);
        let timings = target.timings();
        assert_eq!(timings.len(), 1);
        assert_eq!(timings[0].arm, "seed-8");
        assert_eq!(timings[0].counters, vec![("checks".to_owned(), 9)]);
        assert_eq!(target.loads(StageKind::Crawl), 1);
        // Replay is repeatable (the buffer is not drained).
        buf.replay(&target);
        assert_eq!(target.timings().len(), 2);
    }

    #[test]
    fn timing_observer_tags_stages_with_the_current_arm() {
        let obs = TimingObserver::new();
        obs.stage_started(StageKind::Build);
        obs.stage_finished(StageKind::Build, Duration::ZERO);
        obs.arm_started("us-heavy");
        obs.stage_started(StageKind::Crowd);
        obs.stage_finished(StageKind::Crowd, Duration::ZERO);
        let timings = obs.timings();
        assert_eq!(timings[0].arm, "", "pre-sweep stages are unlabeled");
        assert_eq!(timings[1].arm, "us-heavy");
    }

    #[test]
    fn stage_kind_names_are_stable() {
        assert_eq!(StageKind::Crowd.as_str(), "crowd");
        assert_eq!(StageKind::Personas.to_string(), "personas");
    }
}
