//! The daemon's shared state: configuration, job table, bounded queue,
//! warm caches and `/metrics` aggregates.
//!
//! A [`PdService`] is everything the HTTP layer needs behind one `Arc`:
//! the process-wide [`StoreCache`] (the memo of stage artifacts and
//! analysis frames) every job's engine shares — warm-path re-analyses
//! rebuild nothing, never copy a loaded store, and from a seed's third
//! execution skip the measurement stages — the scenario registry, the
//! job table, and the [`Metrics`] each finished job is folded into.
//! Jobs execute on a **runner pool** ([`ServeConfig::runners`] threads)
//! pulling from one bounded queue — submissions beyond the queue
//! capacity are rejected immediately (the HTTP layer turns that into
//! `503` + `Retry-After`), so the accept loop never blocks on a slow
//! pipeline.
//!
//! Identical submissions **coalesce**: while a job for a given
//! fingerprint key (spec fingerprint + seed + profile) is queued or
//! running, further submissions of the same key attach to it as
//! *followers* — they are admitted instantly without a queue slot,
//! their `GET /runs/:id` carries `coalesced_into: "j-N"` naming the
//! job that does the work, and when that leader finishes every
//! follower receives the same outcome and the **same report bytes**
//! (one shared allocation, so equality is structural). The
//! `jobs_coalesced` metric counts followers admitted this way.
//!
//! Reports are stored **once per coalesce key**: the job table keeps
//! the first finished execution's `(rendered, report JSON)` pair, and a
//! later execution whose bodies are byte-identical shares it instead of
//! keeping its own copy (bodies that differ would be a determinism bug;
//! they stay the job's own). Nothing is evicted yet.

use pd_core::{
    reports_to_json, Experiment, Profile, ScenarioRegistry, ScenarioSpec, StageKind, StoreCache,
    TimingObserver,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// How the daemon is wired: address, pool sizes, warm-store directory.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, `HOST:PORT` (`:0` picks an ephemeral port).
    pub addr: String,
    /// HTTP worker threads accepting and answering connections.
    pub threads: usize,
    /// Executor threads each job's engine runs with (`0` = auto).
    /// Reports are byte-identical at any value.
    pub job_threads: usize,
    /// Runner-pool threads executing queued jobs concurrently (`0` =
    /// auto: available cores divided by the per-job thread budget, at
    /// least 1). Reports are byte-identical at any value — the pool
    /// changes completion order, never content.
    pub runners: usize,
    /// Read-through artifact store directory jobs re-analyze from (the
    /// service never writes stores — it is a read-only analysis path).
    pub artifacts: Option<PathBuf>,
    /// Bounded job-queue capacity; a full queue rejects with 503.
    pub queue_capacity: usize,
    /// Whether `POST /shutdown` is served (the graceful-shutdown path).
    pub enable_shutdown: bool,
    /// Start with the job runner gated (tests/benches fill the queue
    /// deterministically, then [`PdService::resume`]).
    pub paused: bool,
}

impl ServeConfig {
    /// The runner-pool size actually spawned: the configured value, or
    /// (for `0`) the machine's available cores divided by the per-job
    /// executor budget, so the pool and the engines never oversubscribe
    /// the host together. Always at least 1.
    #[must_use]
    pub fn effective_runners(&self) -> usize {
        if self.runners > 0 {
            return self.runners;
        }
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let per_job = if self.job_threads == 0 {
            cores
        } else {
            self.job_threads
        };
        (cores / per_job.max(1)).max(1)
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7413".to_owned(),
            threads: 4,
            job_threads: 1,
            runners: 0,
            artifacts: None,
            queue_capacity: 16,
            enable_shutdown: true,
            paused: false,
        }
    }
}

/// A `POST /runs` body: a registered scenario (or spec-search-path) name
/// *or* an inline spec, plus optional seed and profile overrides.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SubmitRequest {
    /// Scenario name — resolved against the registry, then the spec
    /// search path (`examples/specs/`, `$PD_SPEC_PATH`).
    pub scenario: Option<String>,
    /// Inline declarative spec (wins may not be combined with
    /// `scenario`).
    pub spec: Option<ScenarioSpec>,
    /// Root seed (default: the paper seed).
    pub seed: Option<u64>,
    /// Workload profile name (default `small`).
    pub profile: Option<String>,
}

/// Why a submission was turned away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — retry later (HTTP 503).
    QueueFull,
    /// The service is draining for shutdown (HTTP 503).
    Draining,
    /// The request itself is unusable (HTTP 400).
    Invalid(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "job queue is full"),
            SubmitError::Draining => write!(f, "service is shutting down"),
            SubmitError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Job lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting in the bounded queue.
    Queued,
    /// Executing on the runner thread.
    Running,
    /// Finished; report available.
    Done,
    /// The run errored or panicked; see the snapshot's `error`.
    Failed,
}

impl JobState {
    /// Stable lowercase name (the wire `status` field).
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// The public, wire-serializable view of one job (what `GET /runs/:id`
/// returns; the full report body lives at `GET /runs/:id/report`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSnapshot {
    /// Job id, `j-N`.
    pub id: String,
    /// The scenario/spec name the job runs.
    pub scenario: String,
    /// `queued` | `running` | `done` | `failed`.
    pub status: String,
    /// Failure detail when `status == "failed"`.
    pub error: Option<String>,
    /// Milliseconds spent waiting in the queue (set once running).
    pub queued_ms: Option<u64>,
    /// Milliseconds the run took (set once finished).
    pub run_ms: Option<u64>,
    /// Analysis frames built by this job (0 on a fully warm path).
    pub frames_built: u64,
    /// Analysis frames served from the shared warm memo.
    pub frames_reused: u64,
    /// Domain chunks streamed from chunked binary stores.
    pub frames_chunks_loaded: u64,
    /// Pipeline stages satisfied from the stage memo or the artifact
    /// store.
    pub store_loads: u64,
    /// Rendered per-arm summaries (set once done).
    pub rendered: Option<String>,
    /// Whether `GET /runs/:id/report` will serve a body.
    pub has_report: bool,
    /// When this submission coalesced onto an identical in-flight job,
    /// the `j-N` id of the job that executes for both (this job's
    /// report is that job's report, byte for byte).
    pub coalesced_into: Option<String>,
}

/// The `POST /runs` success body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubmitReply {
    /// The accepted job's id, `j-N`.
    pub id: String,
    /// Always `queued`.
    pub status: String,
}

/// The `GET /runs` body: recent jobs, newest first.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunsList {
    /// Snapshots, newest first (capped at 50).
    pub runs: Vec<JobSnapshot>,
}

/// What the runner pulls off the queue.
pub(crate) enum QueueMsg {
    /// Run the job with this id.
    Job(u64),
    /// Drain sentinel: everything before it has run; exit the loop.
    Shutdown,
}

/// Process-lifetime counters behind `/metrics`. All atomics — readable
/// without locking from any worker thread.
#[derive(Debug)]
pub struct Metrics {
    jobs_done: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_rejected: AtomicU64,
    jobs_coalesced: AtomicU64,
    jobs_running: AtomicU64,
    queue_depth: AtomicU64,
    frames_built: AtomicU64,
    frames_reused: AtomicU64,
    frames_chunks_loaded: AtomicU64,
    store_hits: AtomicU64,
    /// Cumulative wall microseconds, indexed by [`stage_index`].
    stage_us: [AtomicU64; 5],
    started: Instant,
}

/// Dense index for [`StageKind`] (metrics array slot).
const fn stage_index(stage: StageKind) -> usize {
    match stage {
        StageKind::Build => 0,
        StageKind::Crowd => 1,
        StageKind::Crawl => 2,
        StageKind::Personas => 3,
        StageKind::Analysis => 4,
    }
}

const STAGE_ORDER: [StageKind; 5] = [
    StageKind::Build,
    StageKind::Crowd,
    StageKind::Crawl,
    StageKind::Personas,
    StageKind::Analysis,
];

impl Metrics {
    /// Fresh, all-zero metrics with the uptime clock started.
    #[must_use]
    pub fn new() -> Self {
        Metrics {
            jobs_done: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            jobs_coalesced: AtomicU64::new(0),
            jobs_running: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            frames_built: AtomicU64::new(0),
            frames_reused: AtomicU64::new(0),
            frames_chunks_loaded: AtomicU64::new(0),
            store_hits: AtomicU64::new(0),
            stage_us: Default::default(),
            started: Instant::now(),
        }
    }

    /// Folds one ended job's observer into the process totals: each
    /// recorded stage's wall time, the frame counters (`frames_built` /
    /// `frames_reused` / `frames_chunks_loaded`) and one store hit per
    /// stage load. Other counters are not aggregated.
    pub(crate) fn add_job(&self, job: &TimingObserver) {
        for timing in job.timings() {
            let us = u64::try_from(timing.wall.as_micros()).unwrap_or(u64::MAX);
            self.stage_us[stage_index(timing.stage)].fetch_add(us, Ordering::Relaxed);
            for (name, value) in &timing.counters {
                let slot = match name.as_str() {
                    "frames_built" => &self.frames_built,
                    "frames_reused" => &self.frames_reused,
                    "frames_chunks_loaded" => &self.frames_chunks_loaded,
                    _ => continue,
                };
                slot.fetch_add(*value, Ordering::Relaxed);
            }
        }
        let loads = job.loaded().len() as u64;
        self.store_hits.fetch_add(loads, Ordering::Relaxed);
    }

    /// The counters of the `/metrics` body, one `key value` pair per
    /// line, text/plain ([`PdService::metrics_text`] appends the gauges
    /// read from the warm state).
    #[must_use]
    pub fn render_text(&self) -> String {
        let depth = self.queue_depth.load(Ordering::Relaxed);
        let mut out = String::new();
        let uptime = u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX);
        out.push_str(&format!("uptime_ms {uptime}\n"));
        out.push_str(&format!("jobs_queued {depth}\n"));
        out.push_str(&format!(
            "jobs_running {}\n",
            self.jobs_running.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "jobs_done {}\n",
            self.jobs_done.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "jobs_failed {}\n",
            self.jobs_failed.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "jobs_rejected {}\n",
            self.jobs_rejected.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "jobs_coalesced {}\n",
            self.jobs_coalesced.load(Ordering::Relaxed)
        ));
        out.push_str(&format!("queue_depth {depth}\n"));
        out.push_str(&format!(
            "frames_built {}\n",
            self.frames_built.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "frames_reused {}\n",
            self.frames_reused.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "frames_chunks_loaded {}\n",
            self.frames_chunks_loaded.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "store_hits {}\n",
            self.store_hits.load(Ordering::Relaxed)
        ));
        for stage in STAGE_ORDER {
            let ms = self.stage_us[stage_index(stage)].load(Ordering::Relaxed) / 1000;
            out.push_str(&format!("stage_ms_{} {ms}\n", stage.as_str()));
        }
        out
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

/// Pauses/resumes the runner pool (deterministic backpressure and
/// coalescing tests).
#[derive(Debug, Default)]
struct Gate {
    paused: Mutex<bool>,
    unpause: Condvar,
}

impl Gate {
    fn wait_ready(&self) {
        let mut paused = self.paused.lock().expect("gate lock");
        while *paused {
            paused = self.unpause.wait(paused).expect("gate lock");
        }
    }

    fn set_paused(&self, value: bool) {
        *self.paused.lock().expect("gate lock") = value;
        if !value {
            self.unpause.notify_all();
        }
    }
}

/// What one accepted job carries until a runner picks it up.
struct JobWork {
    spec: ScenarioSpec,
    seed: u64,
    profile: Profile,
}

/// The identity two submissions must share to coalesce: everything
/// that shapes the report. [`ScenarioSpec::fingerprint`] digests the
/// full canonical spec, the seed roots every RNG stream, and the
/// profile scales the workload (by name — profiles are a closed enum).
type CoalesceKey = (u64, u64, &'static str);

/// One row of the job table. Report strings are `Arc<str>` so a
/// leader's followers share the exact allocation — "byte-identical"
/// is structural, not a copy that happens to match.
struct JobRecord {
    scenario: String,
    state: JobState,
    error: Option<String>,
    rendered: Option<Arc<str>>,
    report_json: Option<Arc<str>>,
    queued_ms: Option<u64>,
    run_ms: Option<u64>,
    frames_built: u64,
    frames_reused: u64,
    frames_chunks_loaded: u64,
    store_loads: u64,
    submitted: Instant,
    work: Option<JobWork>,
    /// Set on a follower: the leader job id whose execution this
    /// submission attached to.
    coalesced_into: Option<u64>,
    /// Set on a leader: follower job ids to settle when it finishes.
    followers: Vec<u64>,
    /// Set on a leader while it is queued/running: its entry in
    /// [`JobTable::active`], removed on completion.
    coalesce_key: Option<CoalesceKey>,
}

/// The job table: every record ever admitted (ids stay dense) plus the
/// coalescing index over the in-flight ones.
#[derive(Default)]
struct JobTable {
    records: Vec<JobRecord>,
    /// `coalesce key → leader job id`, present exactly while that
    /// leader is queued or running — the window in which an identical
    /// submission attaches instead of executing.
    active: HashMap<CoalesceKey, u64>,
    /// `coalesce key → (rendered, report JSON)` of the first finished
    /// execution: a later execution with byte-identical bodies shares
    /// these allocations instead of keeping its own.
    reports: HashMap<CoalesceKey, (Arc<str>, Arc<str>)>,
    /// Graceful shutdown has begun: submissions are refused. Kept under
    /// the same lock as admission, so a submission either is fully
    /// queued before draining begins (and so ahead of the drain
    /// sentinel) or sees the flag.
    draining: bool,
}

impl JobTable {
    /// The `(rendered, report JSON)` allocations a finished execution of
    /// `key` keeps: the stored pair when `bodies` match it byte for
    /// byte, else its own. The first execution of a key stores its pair;
    /// a mismatch (a determinism bug) never replaces it.
    fn shared_bodies(
        &mut self,
        key: CoalesceKey,
        (rendered, report_json): (String, String),
    ) -> (Arc<str>, Arc<str>) {
        match self.reports.get(&key) {
            Some((r, j)) if **r == *rendered && **j == *report_json => {
                (Arc::clone(r), Arc::clone(j))
            }
            Some(_) => (rendered.into(), report_json.into()),
            None => {
                let pair: (Arc<str>, Arc<str>) = (rendered.into(), report_json.into());
                self.reports.insert(key, pair.clone());
                pair
            }
        }
    }
}

/// The daemon's shared state. See the [module docs](self).
pub struct PdService {
    config: ServeConfig,
    registry: ScenarioRegistry,
    stores: Arc<StoreCache>,
    metrics: Arc<Metrics>,
    jobs: Mutex<JobTable>,
    queue: Mutex<SyncSender<QueueMsg>>,
    /// The drain sentinel has been queued (it is queued once).
    sentinel_queued: AtomicBool,
    gate: Gate,
}

impl std::fmt::Debug for PdService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PdService")
            .field("config", &self.config)
            .field(
                "jobs",
                &self.jobs.lock().map(|j| j.records.len()).unwrap_or(0),
            )
            .finish()
    }
}

impl PdService {
    /// Builds the service around an already-created bounded queue sender
    /// (the matching receiver goes to [`PdService::runner_loop`]).
    #[must_use]
    pub(crate) fn new(config: ServeConfig, queue: SyncSender<QueueMsg>) -> Self {
        let metrics = Arc::new(Metrics::new());
        let gate = Gate::default();
        gate.set_paused(config.paused);
        PdService {
            config,
            registry: ScenarioRegistry::builtin(),
            stores: Arc::new(StoreCache::new()),
            metrics,
            jobs: Mutex::new(JobTable::default()),
            queue: Mutex::new(queue),
            sentinel_queued: AtomicBool::new(false),
            gate,
        }
    }

    /// The live configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The process-wide metrics (what `/metrics` renders).
    #[must_use]
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The `/metrics` body: the [`Metrics`] counters plus the
    /// `memo_entries` gauge (measurement artifacts resident in the
    /// shared memo; its frames are not counted).
    #[must_use]
    pub fn metrics_text(&self) -> String {
        let mut text = self.metrics.render_text();
        text.push_str(&format!("memo_entries {}\n", self.stores.len()));
        text
    }

    /// Gates every runner before its next job (see
    /// [`ServeConfig::paused`]).
    pub fn pause(&self) {
        self.gate.set_paused(true);
    }

    /// Releases a paused runner pool.
    pub fn resume(&self) {
        self.gate.set_paused(false);
    }

    /// Whether graceful shutdown has begun (submissions are refused).
    #[must_use]
    pub fn draining(&self) -> bool {
        self.jobs.lock().expect("jobs lock").draining
    }

    /// Accepts a submission: into the bounded queue, or — when an
    /// identical job (same spec fingerprint, seed and profile) is
    /// already queued or running — as a **follower** of that job,
    /// costing no queue slot and no execution. Followers finish when
    /// their leader does, with the same outcome and the same report
    /// bytes; their snapshot names the leader in `coalesced_into`.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] when neither/both of `scenario`/`spec`
    /// are given, the name resolves nowhere (the message carries a
    /// did-you-mean), the profile is unknown, or the inline spec fails
    /// validation; [`SubmitError::QueueFull`] / [`SubmitError::Draining`]
    /// for backpressure — the job table is untouched in every error case.
    pub fn submit(&self, req: &SubmitRequest) -> Result<String, SubmitError> {
        let spec = match (&req.scenario, &req.spec) {
            (Some(_), Some(_)) => {
                return Err(SubmitError::Invalid(
                    "give either \"scenario\" or \"spec\", not both".to_owned(),
                ))
            }
            (None, None) => {
                return Err(SubmitError::Invalid(
                    "missing \"scenario\" (name) or \"spec\" (inline)".to_owned(),
                ))
            }
            (Some(name), None) => self.resolve_name(name)?,
            (None, Some(spec)) => {
                spec.validate()
                    .map_err(|e| SubmitError::Invalid(format!("invalid spec: {e}")))?;
                spec.clone()
            }
        };
        let profile = match &req.profile {
            None => Profile::Small,
            Some(name) => Profile::parse(name)
                .ok_or_else(|| SubmitError::Invalid(format!("unknown profile {name:?}")))?,
        };
        let seed = req
            .seed
            .unwrap_or_else(|| pd_util::seed::EXPERIMENT_SEED.value());

        let key: CoalesceKey = (spec.fingerprint(), seed, profile.name());

        // Push + enqueue under one lock so ids stay dense even when a
        // full queue forces the push to roll back — and so the
        // coalescing index cannot race a leader's completion, nor the
        // admission race draining.
        let mut jobs = self.jobs.lock().expect("jobs lock");
        if jobs.draining {
            return Err(SubmitError::Draining);
        }
        let id = jobs.records.len() as u64 + 1;
        if let Some(&leader) = jobs.active.get(&key) {
            // An identical job is in flight: attach as a follower. No
            // queue slot, no work — the leader's completion settles it.
            jobs.records.push(JobRecord {
                scenario: spec.name.clone(),
                state: JobState::Queued,
                error: None,
                rendered: None,
                report_json: None,
                queued_ms: None,
                run_ms: None,
                frames_built: 0,
                frames_reused: 0,
                frames_chunks_loaded: 0,
                store_loads: 0,
                submitted: Instant::now(),
                work: None,
                coalesced_into: Some(leader),
                followers: Vec::new(),
                coalesce_key: None,
            });
            let leader_idx = usize::try_from(leader - 1).expect("dense leader id");
            jobs.records[leader_idx].followers.push(id);
            self.metrics.jobs_coalesced.fetch_add(1, Ordering::SeqCst);
            return Ok(format!("j-{id}"));
        }
        jobs.records.push(JobRecord {
            scenario: spec.name.clone(),
            state: JobState::Queued,
            error: None,
            rendered: None,
            report_json: None,
            queued_ms: None,
            run_ms: None,
            frames_built: 0,
            frames_reused: 0,
            frames_chunks_loaded: 0,
            store_loads: 0,
            submitted: Instant::now(),
            work: Some(JobWork {
                spec,
                seed,
                profile,
            }),
            coalesced_into: None,
            followers: Vec::new(),
            coalesce_key: Some(key),
        });
        jobs.active.insert(key, id);
        let sender = self.queue.lock().expect("queue lock").clone();
        match sender.try_send(QueueMsg::Job(id)) {
            Ok(()) => {
                self.metrics.queue_depth.fetch_add(1, Ordering::SeqCst);
                Ok(format!("j-{id}"))
            }
            Err(TrySendError::Full(_)) => {
                jobs.records.pop();
                jobs.active.remove(&key);
                self.metrics.jobs_rejected.fetch_add(1, Ordering::SeqCst);
                Err(SubmitError::QueueFull)
            }
            Err(TrySendError::Disconnected(_)) => {
                jobs.records.pop();
                jobs.active.remove(&key);
                Err(SubmitError::Draining)
            }
        }
    }

    /// Resolves a by-name submission: registry first, then the spec
    /// search path; the error message carries a did-you-mean.
    fn resolve_name(&self, name: &str) -> Result<ScenarioSpec, SubmitError> {
        if let Some(spec) = self.registry.get(name) {
            return Ok(spec.clone());
        }
        match pd_core::load_spec(name) {
            Ok(spec) => Ok(spec),
            Err(search_err) => {
                let mut msg = format!("unknown scenario {name:?}");
                if let Some(hint) = self.registry.suggest(name) {
                    msg.push_str(&format!("; did you mean {hint:?}?"));
                }
                msg.push_str(&format!(" ({search_err})"));
                Err(SubmitError::Invalid(msg))
            }
        }
    }

    /// `GET /runs/:id` — `None` when no such job exists.
    #[must_use]
    pub fn snapshot(&self, id: u64) -> Option<JobSnapshot> {
        let jobs = self.jobs.lock().expect("jobs lock");
        let idx = usize::try_from(id.checked_sub(1)?).ok()?;
        jobs.records.get(idx).map(|job| snapshot_of(id, job))
    }

    /// `GET /runs` — recent jobs, newest first, capped at 50.
    #[must_use]
    pub fn list(&self) -> RunsList {
        let jobs = self.jobs.lock().expect("jobs lock");
        let runs = jobs
            .records
            .iter()
            .enumerate()
            .rev()
            .take(50)
            .map(|(idx, job)| snapshot_of(idx as u64 + 1, job))
            .collect();
        RunsList { runs }
    }

    /// `GET /runs/:id/report` — the outer `None` is "no such job", the
    /// inner `None` is "job exists but has no report (yet)". A returned
    /// body is byte-identical to the offline `pd run --json` output for
    /// the same submission. Jobs of one coalescing key share one
    /// allocation: a follower serves its leader's, and a repeat
    /// execution the first execution's.
    #[must_use]
    pub fn report_body(&self, id: u64) -> Option<Option<Arc<str>>> {
        let jobs = self.jobs.lock().expect("jobs lock");
        let idx = usize::try_from(id.checked_sub(1)?).ok()?;
        jobs.records.get(idx).map(|job| job.report_json.clone())
    }

    /// The first half of graceful shutdown: refuse every later
    /// submission and unpause the runner pool. Never blocks on the
    /// queue, so `POST /shutdown` calls it before acknowledging.
    /// Idempotent.
    pub fn begin_draining(&self) {
        self.jobs.lock().expect("jobs lock").draining = true;
        self.gate.set_paused(false);
    }

    /// Starts graceful shutdown: [`PdService::begin_draining`], then
    /// append the drain sentinel so every already-queued job still runs.
    /// Idempotent. May block briefly while the queue drains enough to
    /// accept the sentinel.
    pub fn begin_shutdown(&self) {
        self.begin_draining();
        if self.sentinel_queued.swap(true, Ordering::SeqCst) {
            return;
        }
        let sender = self.queue.lock().expect("queue lock").clone();
        let _ = sender.send(QueueMsg::Shutdown);
    }

    /// One runner's loop: pull jobs off the shared bounded queue and
    /// execute them until the drain sentinel (or every sender hung up).
    /// [`crate::Server::start`] spawns [`ServeConfig::effective_runners`]
    /// threads running this over one `Mutex`-shared receiver. A runner
    /// that receives the sentinel **forwards it** before exiting, so one
    /// `Shutdown` message drains the whole pool — and because the
    /// sentinel is queued behind every accepted job, forwarding can
    /// never block (the queue is empty of work by then).
    pub(crate) fn runner_loop(self: &Arc<Self>, queue: &Mutex<Receiver<QueueMsg>>) {
        loop {
            // Gate *before* recv: a paused runner must not drain a queue
            // slot, or backpressure tests could never fill the queue.
            self.gate.wait_ready();
            let msg = queue.lock().expect("runner queue lock").recv();
            match msg {
                Err(_) => return,
                Ok(QueueMsg::Shutdown) => {
                    let sender = self.queue.lock().expect("queue lock").clone();
                    let _ = sender.send(QueueMsg::Shutdown);
                    return;
                }
                Ok(QueueMsg::Job(id)) => self.run_job(id),
            }
        }
    }

    /// Executes one queued job, recording outcome, timings and frame
    /// stats, then settles every follower that coalesced onto it. A
    /// panicking run marks the job (and its followers) failed instead
    /// of killing the runner.
    fn run_job(&self, id: u64) {
        let idx = id as usize - 1;
        let work = {
            let mut jobs = self.jobs.lock().expect("jobs lock");
            let job = &mut jobs.records[idx];
            job.state = JobState::Running;
            job.queued_ms =
                Some(u64::try_from(job.submitted.elapsed().as_millis()).unwrap_or(u64::MAX));
            job.work.take().expect("queued job carries its work")
        };
        self.metrics.queue_depth.fetch_sub(1, Ordering::SeqCst);
        self.metrics.jobs_running.fetch_add(1, Ordering::SeqCst);

        let per_job = Arc::new(TimingObserver::new());
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.execute(&work, Arc::clone(&per_job))
        }))
        .unwrap_or_else(|panic| Err(format!("job panicked: {}", panic_message(&panic))));
        let run_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
        // Whatever the job recorded, a panicking one included.
        self.metrics.add_job(&per_job);

        let timings = per_job.timings();
        let counter_total = |name: &str| -> u64 {
            timings
                .iter()
                .flat_map(|t| t.counters.iter())
                .filter(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .sum()
        };
        // Outcome, key retirement and follower settlement happen under
        // one lock: after it drops, the key is free for a fresh leader
        // and no follower can still be pending.
        let mut jobs = self.jobs.lock().expect("jobs lock");
        let job = &mut jobs.records[idx];
        job.run_ms = Some(run_ms);
        job.frames_built = counter_total("frames_built");
        job.frames_reused = counter_total("frames_reused");
        job.frames_chunks_loaded = counter_total("frames_chunks_loaded");
        job.store_loads = per_job.loaded().len() as u64;
        let followers = std::mem::take(&mut job.followers);
        let key = job
            .coalesce_key
            .take()
            .expect("an executing job leads its key");
        let settled = 1 + followers.len() as u64;
        jobs.active.remove(&key);
        let (state, error, rendered, report_json) = match outcome {
            Ok(bodies) => {
                let (rendered, report_json) = jobs.shared_bodies(key, bodies);
                (JobState::Done, None, Some(rendered), Some(report_json))
            }
            Err(msg) => (JobState::Failed, Some(msg), None, None),
        };
        let job = &mut jobs.records[idx];
        job.state = state;
        job.error.clone_from(&error);
        job.rendered.clone_from(&rendered);
        job.report_json.clone_from(&report_json);
        for fid in followers {
            let follower = &mut jobs.records[fid as usize - 1];
            follower.state = state;
            follower.error.clone_from(&error);
            follower.rendered.clone_from(&rendered);
            follower.report_json.clone_from(&report_json);
            // The follower waited its own wall time for the shared run.
            follower.queued_ms =
                Some(u64::try_from(follower.submitted.elapsed().as_millis()).unwrap_or(u64::MAX));
            follower.run_ms = Some(run_ms);
        }
        match state {
            JobState::Done => {
                self.metrics.jobs_done.fetch_add(settled, Ordering::SeqCst);
            }
            _ => {
                self.metrics
                    .jobs_failed
                    .fetch_add(settled, Ordering::SeqCst);
            }
        }
        self.metrics.jobs_running.fetch_sub(1, Ordering::SeqCst);
    }

    /// Runs one job's sweep on the shared warm state, producing the
    /// rendered summaries and the canonical report JSON (the exact
    /// [`reports_to_json`] string `pd run --json` would write).
    fn execute(
        &self,
        work: &JobWork,
        observer: Arc<TimingObserver>,
    ) -> Result<(String, String), String> {
        let mut builder = Experiment::builder()
            .spec(work.spec.clone())
            .seed(work.seed)
            .profile(work.profile)
            .threads(self.config.job_threads)
            .observer(observer)
            .store_cache(Arc::clone(&self.stores));
        if let Some(dir) = &self.config.artifacts {
            builder = builder.artifacts(dir.clone());
        }
        let arms = builder.run_sweep().map_err(|e| e.to_string())?;
        let mut rendered = String::new();
        let mut reports = Vec::new();
        for arm in arms {
            if !arm.label.is_empty() {
                rendered.push_str(&format!("== {} / {} ==\n", work.spec.name, arm.label));
            }
            rendered.push_str(&arm.analysis.report.render_summary());
            reports.push((arm.label, arm.analysis.report.clone()));
        }
        Ok((rendered, reports_to_json(&reports)))
    }
}

/// Human text out of a panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn snapshot_of(id: u64, job: &JobRecord) -> JobSnapshot {
    JobSnapshot {
        id: format!("j-{id}"),
        scenario: job.scenario.clone(),
        status: job.state.as_str().to_owned(),
        error: job.error.clone(),
        queued_ms: job.queued_ms,
        run_ms: job.run_ms,
        frames_built: job.frames_built,
        frames_reused: job.frames_reused,
        frames_chunks_loaded: job.frames_chunks_loaded,
        store_loads: job.store_loads,
        rendered: job.rendered.as_deref().map(str::to_owned),
        has_report: job.report_json.is_some(),
        coalesced_into: job.coalesced_into.map(|leader| format!("j-{leader}")),
    }
}

/// Parses a `j-N` job id (the wire format of [`JobSnapshot::id`]).
#[must_use]
pub fn parse_job_id(id: &str) -> Option<u64> {
    id.strip_prefix("j-")?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn service(capacity: usize) -> (Arc<PdService>, Receiver<QueueMsg>) {
        let (tx, rx) = mpsc::sync_channel(capacity);
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            ..ServeConfig::default()
        };
        (Arc::new(PdService::new(config, tx)), rx)
    }

    /// Drives the pool loop to completion on the calling thread (tests
    /// exercise the queue semantics without spawning runners).
    fn drain(svc: &Arc<PdService>, rx: Receiver<QueueMsg>) {
        svc.begin_shutdown();
        svc.runner_loop(&Mutex::new(rx));
    }

    #[test]
    fn submit_validates_inputs() {
        let (svc, _rx) = service(4);
        let err = svc.submit(&SubmitRequest::default()).unwrap_err();
        assert!(matches!(err, SubmitError::Invalid(_)), "{err}");
        let err = svc
            .submit(&SubmitRequest {
                scenario: Some("smoke".to_owned()),
                profile: Some("warp".to_owned()),
                ..SubmitRequest::default()
            })
            .unwrap_err();
        assert!(err.to_string().contains("unknown profile"), "{err}");
        let err = svc
            .submit(&SubmitRequest {
                scenario: Some("smok".to_owned()),
                ..SubmitRequest::default()
            })
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("did you mean \"smoke\""), "{msg}");
        // A vantage subset the runner could not complete is refused with
        // a 400 (`SubmitError::Invalid`), in the patch or a sweep arm.
        let fleet = |labels: &[&str]| labels.iter().map(|l| (*l).to_owned()).collect();
        let patched = pd_core::ScenarioSpec {
            patch: pd_core::ConfigPatch {
                vantage_labels: Some(fleet(&["USA - Boston", "Germany - Berlin"])),
                ..pd_core::ConfigPatch::default()
            },
            ..pd_core::ScenarioSpec::single("subset", "no Finland probe")
        };
        let swept = pd_core::ScenarioSpec {
            sweep: vec![pd_core::SweepAxis::VantageSubsets {
                arms: vec![pd_core::spec::VantageArm {
                    label: "mars".to_owned(),
                    labels: fleet(&["Mars - Olympus"]),
                }],
            }],
            ..pd_core::ScenarioSpec::single("subsets", "unknown probe")
        };
        for (spec, label) in [(patched, "Finland - Tampere"), (swept, "Mars - Olympus")] {
            let err = svc
                .submit(&SubmitRequest {
                    spec: Some(spec),
                    ..SubmitRequest::default()
                })
                .unwrap_err();
            assert!(matches!(err, SubmitError::Invalid(_)), "{err}");
            assert!(err.to_string().contains(label), "{err}");
        }
        // Nothing was admitted into the job table.
        assert!(svc.list().runs.is_empty());
    }

    #[test]
    fn full_queue_rejects_and_rolls_back() {
        let (svc, _rx) = service(1);
        let req = SubmitRequest {
            scenario: Some("smoke".to_owned()),
            profile: Some("smoke".to_owned()),
            ..SubmitRequest::default()
        };
        assert_eq!(svc.submit(&req).expect("first fits"), "j-1");
        // A *different* spec (other seed) cannot coalesce onto j-1, so
        // it must contend for the (full) queue and bounce.
        let other = SubmitRequest {
            seed: Some(4242),
            ..req.clone()
        };
        assert_eq!(svc.submit(&other).unwrap_err(), SubmitError::QueueFull);
        // The rejected job must not appear, and ids stay dense.
        assert_eq!(svc.list().runs.len(), 1);
        assert!(svc.metrics_text().contains("jobs_rejected 1\n"));
    }

    #[test]
    fn draining_refuses_submissions() {
        let (svc, rx) = service(4);
        svc.begin_shutdown();
        let err = svc
            .submit(&SubmitRequest {
                scenario: Some("smoke".to_owned()),
                ..SubmitRequest::default()
            })
            .unwrap_err();
        assert_eq!(err, SubmitError::Draining);
        drop(rx);
    }

    #[test]
    fn draining_refuses_submissions_before_the_sentinel_is_queued() {
        let (svc, rx) = service(4);
        svc.begin_draining();
        assert!(svc.draining());
        let err = svc
            .submit(&SubmitRequest {
                scenario: Some("smoke".to_owned()),
                ..SubmitRequest::default()
            })
            .unwrap_err();
        assert_eq!(err, SubmitError::Draining);
        assert!(rx.try_recv().is_err(), "no sentinel until begin_shutdown");
        svc.begin_shutdown();
        assert!(matches!(rx.try_recv(), Ok(QueueMsg::Shutdown)));
        svc.begin_shutdown();
        assert!(rx.try_recv().is_err(), "the sentinel is queued once");
    }

    #[test]
    fn runner_executes_queued_jobs_and_drains_on_shutdown() {
        let (svc, rx) = service(4);
        let req = SubmitRequest {
            scenario: Some("smoke".to_owned()),
            seed: Some(7),
            profile: Some("smoke".to_owned()),
            ..SubmitRequest::default()
        };
        let id = svc.submit(&req).expect("queued");
        assert_eq!(id, "j-1");
        drain(&svc, rx); // runs j-1, then hits the sentinel
        let snap = svc.snapshot(1).expect("job exists");
        assert_eq!(snap.status, "done");
        assert!(snap.has_report);
        assert!(snap.run_ms.is_some());
        assert!(snap.coalesced_into.is_none(), "a lone job leads itself");
        assert!(svc.report_body(1).expect("exists").is_some());
        assert!(svc.metrics_text().contains("jobs_done 1\n"));
    }

    /// Five identical submissions while the pool is paused: one leader
    /// in the queue, four followers attached to it. After resume +
    /// drain, one execution produced five done jobs with the same
    /// report bytes and a correct `coalesced_into` lineage.
    #[test]
    fn identical_submissions_coalesce_onto_one_execution() {
        let (tx, rx) = mpsc::sync_channel(8);
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            paused: true,
            ..ServeConfig::default()
        };
        let svc = Arc::new(PdService::new(config, tx));
        let req = SubmitRequest {
            scenario: Some("smoke".to_owned()),
            seed: Some(7),
            profile: Some("smoke".to_owned()),
            ..SubmitRequest::default()
        };
        let ids: Vec<String> = (0..5)
            .map(|_| svc.submit(&req).expect("admitted"))
            .collect();
        assert_eq!(ids, ["j-1", "j-2", "j-3", "j-4", "j-5"]);
        // Followers cost no queue slot: only the leader occupies one.
        assert!(svc.metrics_text().contains("jobs_queued 1\n"));
        assert!(svc.metrics_text().contains("jobs_coalesced 4\n"));

        svc.resume();
        drain(&svc, rx);

        let leader = svc.snapshot(1).expect("leader exists");
        assert_eq!(leader.status, "done");
        assert!(leader.coalesced_into.is_none());
        let reference = svc.report_body(1).expect("exists").expect("has report");
        for id in 2..=5 {
            let snap = svc.snapshot(id).expect("follower exists");
            assert_eq!(snap.status, "done", "j-{id}");
            assert_eq!(snap.coalesced_into.as_deref(), Some("j-1"), "j-{id}");
            assert!(snap.queued_ms.is_some(), "j-{id} waited for the leader");
            let body = svc.report_body(id).expect("exists").expect("has report");
            assert_eq!(body, reference, "j-{id} must serve the leader's bytes");
        }
        assert!(svc.metrics_text().contains("jobs_done 5\n"));
        // One execution: exactly one job carries non-zero frame builds.
        let built: Vec<u64> = (1..=5)
            .map(|id| svc.snapshot(id).expect("exists").frames_built)
            .collect();
        assert!(built[0] > 0, "the leader built the frames: {built:?}");
        assert!(built[1..].iter().all(|&b| b == 0), "{built:?}");
    }

    /// Submissions differing only in seed do NOT coalesce — the seed is
    /// part of the coalescing identity because it shapes the report.
    #[test]
    fn different_seeds_do_not_coalesce() {
        let (tx, rx) = mpsc::sync_channel(8);
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            paused: true,
            ..ServeConfig::default()
        };
        let svc = Arc::new(PdService::new(config, tx));
        let req = |seed: u64| SubmitRequest {
            scenario: Some("smoke".to_owned()),
            seed: Some(seed),
            profile: Some("smoke".to_owned()),
            ..SubmitRequest::default()
        };
        svc.submit(&req(7)).expect("admitted");
        svc.submit(&req(8)).expect("admitted");
        assert!(svc.metrics_text().contains("jobs_queued 2\n"));
        assert!(svc.metrics_text().contains("jobs_coalesced 0\n"));

        svc.resume();
        drain(&svc, rx);
        let a = svc.report_body(1).expect("exists").expect("report");
        let b = svc.report_body(2).expect("exists").expect("report");
        assert_ne!(a, b, "different seeds are different runs");
        for id in [1, 2] {
            let snap = svc.snapshot(id).expect("exists");
            assert_eq!(snap.status, "done");
            assert!(snap.coalesced_into.is_none(), "j-{id} ran for itself");
        }
    }

    /// After a leader finishes, its coalescing window is closed: the
    /// same submission executes again instead of attaching to history.
    #[test]
    fn coalescing_window_closes_with_the_leader() {
        let (svc, rx) = service(8);
        let req = SubmitRequest {
            scenario: Some("smoke".to_owned()),
            seed: Some(7),
            profile: Some("smoke".to_owned()),
            ..SubmitRequest::default()
        };
        svc.submit(&req).expect("first leader");
        // Run j-1 to completion on this thread.
        match rx.recv().expect("queued msg") {
            QueueMsg::Job(id) => svc.run_job(id),
            QueueMsg::Shutdown => panic!("no shutdown queued"),
        }
        // The identical resubmission is a fresh leader, not a follower.
        svc.submit(&req).expect("second leader");
        assert!(svc.metrics_text().contains("jobs_coalesced 0\n"));
        drain(&svc, rx);
        let snap = svc.snapshot(2).expect("exists");
        assert_eq!(snap.status, "done");
        assert!(snap.coalesced_into.is_none());
        assert_eq!(
            svc.report_body(1).expect("exists"),
            svc.report_body(2).expect("exists"),
            "same inputs, same bytes — just paid for twice"
        );
    }

    /// Sequential executions of one key: the first keeps no memo entry,
    /// the second keeps the three measurement artifacts and shares the
    /// first's report allocation, the third is served from the memo.
    #[test]
    fn repeat_executions_fill_the_memo_and_share_report_bodies() {
        let (svc, rx) = service(8);
        let req = SubmitRequest {
            scenario: Some("smoke".to_owned()),
            seed: Some(7),
            profile: Some("smoke".to_owned()),
            ..SubmitRequest::default()
        };
        let run_next = |expect_memo: usize| {
            let id = parse_job_id(&svc.submit(&req).expect("leader")).expect("j-N id");
            match rx.recv().expect("queued msg") {
                QueueMsg::Job(job) => svc.run_job(job),
                QueueMsg::Shutdown => panic!("no shutdown queued"),
            }
            let text = svc.metrics_text();
            assert!(
                text.contains(&format!("memo_entries {expect_memo}\n")),
                "after j-{id}:\n{text}"
            );
            id
        };
        let first = run_next(0);
        let second = run_next(3);
        let third = run_next(3);
        let body = |id| svc.report_body(id).expect("exists").expect("report");
        assert!(Arc::ptr_eq(&body(first), &body(second)));
        assert!(Arc::ptr_eq(&body(first), &body(third)));
        let loads: Vec<u64> = [first, second, third]
            .iter()
            .map(|&id| svc.snapshot(id).expect("exists").store_loads)
            .collect();
        assert_eq!(loads, [0, 0, 3]);
        assert!(svc.metrics_text().contains("jobs_coalesced 0\n"));
    }

    #[test]
    fn effective_runners_divides_cores_by_job_threads() {
        let config = |runners, job_threads| ServeConfig {
            runners,
            job_threads,
            ..ServeConfig::default()
        };
        assert_eq!(config(3, 1).effective_runners(), 3, "explicit value wins");
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(config(0, 1).effective_runners(), cores);
        assert_eq!(
            config(0, 0).effective_runners(),
            1,
            "auto job threads take the whole machine: one runner"
        );
        assert!(config(0, usize::MAX).effective_runners() >= 1);
    }

    #[test]
    fn metrics_fold_a_job_observer() {
        let metrics = Metrics::new();
        let job = TimingObserver::new();
        job.stage_finished("", StageKind::Analysis, Duration::from_millis(12));
        job.counter(StageKind::Analysis, "frames_built", 4);
        job.counter(StageKind::Analysis, "frames_reused", 2);
        job.counter(StageKind::Analysis, "frames_chunks_loaded", 9);
        job.counter(StageKind::Analysis, "unrelated", 99);
        job.stage_finished("", StageKind::Analysis, Duration::from_millis(5));
        job.stage_loaded(StageKind::Crowd, "00000000deadbeef");
        metrics.add_job(&job);
        let text = metrics.render_text();
        assert!(text.contains("frames_built 4\n"), "got:\n{text}");
        assert!(text.contains("frames_reused 2\n"), "got:\n{text}");
        assert!(text.contains("frames_chunks_loaded 9\n"), "got:\n{text}");
        assert!(text.contains("store_hits 1\n"), "got:\n{text}");
        assert!(text.contains("stage_ms_analysis 17\n"), "got:\n{text}");
    }

    #[test]
    fn job_ids_parse() {
        assert_eq!(parse_job_id("j-12"), Some(12));
        assert_eq!(parse_job_id("12"), None);
        assert_eq!(parse_job_id("j-x"), None);
    }
}
