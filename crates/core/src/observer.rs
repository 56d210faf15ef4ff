//! Run observation: stage lifecycle, counters, wall-times, store loads.
//!
//! The engine reports progress into one recorder, the
//! [`TimingObserver`]: stage started/finished events (with wall-clock
//! duration and the sweep arm that ran the stage), named counters
//! (checks executed, measurements kept, retries, …) and artifact-store
//! loads. Recording is telemetry only: nothing recorded can influence a
//! run, so the report stays a pure function of the seed no matter who
//! is watching. Its readers are the `pd` CLI's `--timings` flag, the
//! `pipeline_times` bench bin and the `pd serve` daemon (per-job status
//! and the `/metrics` totals it folds in when a job ends).
//!
//! ```
//! use pd_core::{StageKind, TimingObserver};
//! use std::time::Duration;
//!
//! let obs = TimingObserver::new();
//! obs.stage_started(StageKind::Crowd);
//! obs.counter(StageKind::Crowd, "checks", 60);
//! obs.stage_finished("", StageKind::Crowd, Duration::from_millis(5));
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
    started: Vec<StageKind>,
    finished: Vec<StageTiming>,
    pending: Vec<(StageKind, String, u64)>,
    loaded: Vec<(StageKind, String)>,
}

/// The engine's recorder: per-stage wall-times and counters, stage
/// starts and store loads. Events may arrive from any thread (the
/// engine is shareable); each is recorded under one short lock, never
/// per page. Concurrent sweep arms each record into their own observer,
/// merged in arm order when the sweep joins.
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

    fn state(&self) -> std::sync::MutexGuard<'_, TimingState> {
        self.state.lock().expect("observer lock")
    }

    /// A stage is about to run.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned (a recording panicked).
    pub fn stage_started(&self, stage: StageKind) {
        self.state().started.push(stage);
    }

    /// A stage finished after `wall` of wall-clock time, run by the
    /// sweep arm labeled `arm` (empty outside sweeps). The counters
    /// `stage` emitted since it last finished become its counters.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned (a recording panicked).
    pub fn stage_finished(&self, arm: &str, stage: StageKind, wall: Duration) {
        let mut state = self.state();
        let (mine, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut state.pending)
            .into_iter()
            .partition(|(s, _, _)| *s == stage);
        state.pending = rest;
        state.finished.push(StageTiming {
            arm: arm.to_owned(),
            stage,
            wall,
            counters: mine.into_iter().map(|(_, n, v)| (n, v)).collect(),
        });
    }

    /// A named quantity observed while `stage` ran.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned (a recording panicked).
    pub fn counter(&self, stage: StageKind, name: &str, value: u64) {
        self.state().pending.push((stage, name.to_owned(), value));
    }

    /// A stage's artifact was satisfied from the stage memo or an
    /// artifact store ([`crate::store`]) instead of being computed: the
    /// stage records no start and no timing. `fingerprint` is the hex
    /// stage fingerprint the load was validated against.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned (a recording panicked).
    pub fn stage_loaded(&self, stage: StageKind, fingerprint: &str) {
        self.state().loaded.push((stage, fingerprint.to_owned()));
    }

    /// Appends everything `other` recorded — starts, finished stages and
    /// loads, each in `other`'s order — after this observer's own
    /// records. A sweep merges its arms' observers this way, in arm
    /// order, so the merged stream does not depend on how the arms
    /// interleaved. Counters of a stage `other` never finished are not
    /// carried over.
    pub(crate) fn absorb(&self, other: &TimingObserver) {
        let other = other.state();
        let mut state = self.state();
        state.started.extend_from_slice(&other.started);
        state.finished.extend_from_slice(&other.finished);
        state.loaded.extend_from_slice(&other.loaded);
    }

    /// Every finished stage, in completion order.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned (a recording panicked).
    #[must_use]
    pub fn timings(&self) -> Vec<StageTiming> {
        self.state().finished.clone()
    }

    /// How many times `stage` was started (cache-hit audits: a reused
    /// artifact must not re-start its stage).
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned (a recording panicked).
    #[must_use]
    pub fn starts(&self, stage: StageKind) -> usize {
        self.state().started.iter().filter(|s| **s == stage).count()
    }

    /// How many times `stage` was satisfied from an artifact store
    /// (the persistence counterpart of [`TimingObserver::starts`]: a
    /// store hit must show up here and *not* in `starts`).
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned (a recording panicked).
    #[must_use]
    pub fn loads(&self, stage: StageKind) -> usize {
        self.state()
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
    /// Panics if the internal lock is poisoned (a recording panicked).
    #[must_use]
    pub fn loaded(&self) -> Vec<(StageKind, String)> {
        self.state().loaded.clone()
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
        obs.stage_finished("", StageKind::Crowd, Duration::from_millis(7));
        obs.stage_started(StageKind::Crawl);
        obs.counter(StageKind::Crawl, "retailers", 21);
        obs.stage_finished("", StageKind::Crawl, Duration::from_millis(3));

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
        obs.stage_finished("", StageKind::Analysis, Duration::from_millis(1));
        assert_eq!(obs.loads(StageKind::Crowd), 1);
        assert_eq!(obs.starts(StageKind::Crowd), 0, "a load is not a start");
        assert_eq!(obs.loads(StageKind::Analysis), 0);
        assert_eq!(
            obs.loaded(),
            vec![(StageKind::Crowd, "00000000deadbeef".to_owned())]
        );
    }

    /// One arm's observer: a build, a crowd stage with one counter, and
    /// a crawl load.
    fn arm(label: &str, checks: u64) -> TimingObserver {
        let obs = TimingObserver::new();
        obs.stage_started(StageKind::Build);
        obs.stage_finished(label, StageKind::Build, Duration::from_millis(1));
        obs.stage_started(StageKind::Crowd);
        obs.counter(StageKind::Crowd, "checks", checks);
        obs.stage_finished(label, StageKind::Crowd, Duration::from_millis(2));
        obs.stage_loaded(StageKind::Crawl, &format!("{checks:016x}"));
        obs
    }

    #[test]
    fn absorb_merges_arms_in_the_order_given() {
        // The later arm records first, as a faster arm would: each arm
        // has its own observer, so the merge follows the absorb order.
        let second = arm("seed-8", 11);
        let first = arm("seed-7", 9);
        let target = TimingObserver::new();
        target.absorb(&first);
        target.absorb(&second);
        let merged: Vec<_> = target
            .timings()
            .into_iter()
            .map(|t| (t.arm, t.stage, t.counters))
            .collect();
        let checks = |n| vec![("checks".to_owned(), n)];
        assert_eq!(
            merged,
            vec![
                ("seed-7".to_owned(), StageKind::Build, vec![]),
                ("seed-7".to_owned(), StageKind::Crowd, checks(9)),
                ("seed-8".to_owned(), StageKind::Build, vec![]),
                ("seed-8".to_owned(), StageKind::Crowd, checks(11)),
            ]
        );
        assert_eq!(target.starts(StageKind::Crowd), 2);
        assert_eq!(
            target.loaded(),
            vec![
                (StageKind::Crawl, format!("{:016x}", 9)),
                (StageKind::Crawl, format!("{:016x}", 11)),
            ]
        );
        // The arms keep their own records, and a merged observer keeps
        // recording live after it.
        assert_eq!(first.timings().len(), 2);
        target.stage_started(StageKind::Analysis);
        target.stage_finished("seed-7", StageKind::Analysis, Duration::ZERO);
        assert_eq!(target.timings()[4].arm, "seed-7");
    }

    #[test]
    fn timing_observer_tags_stages_with_the_current_arm() {
        let obs = TimingObserver::new();
        obs.stage_started(StageKind::Build);
        obs.stage_finished("", StageKind::Build, Duration::ZERO);
        obs.stage_started(StageKind::Crowd);
        obs.stage_finished("us-heavy", StageKind::Crowd, Duration::ZERO);
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
