//! The experiment engine: scenario-driven, staged, deterministic.
//!
//! Two layers:
//!
//! * [`ExperimentBuilder`] (from [`Experiment::builder`]) — the entry
//!   point: pick a named scenario (or a raw config), a seed, a profile,
//!   a thread count and an observer, and get an [`Engine`].
//! * [`Engine`] — runs the typed stages ([`crate::stage`]) with artifact
//!   caching: `crowd()` runs the campaign once and every later call
//!   (including `analyze()`) reuses the artifact. All parallel sections
//!   go through the deterministic [`Executor`], so the report is
//!   byte-identical at any thread count. [`Engine::from_plan`] builds
//!   one straight from a [`RunPlan`].

use crate::config::ExperimentConfig;
use crate::executor::Executor;
use crate::frames::StoreCache;
use crate::observer::{StageKind, TimingObserver};
use crate::report::Report;
use crate::scenario::{Profile, RunPlan, ScenarioParams, ScenarioRegistry};
use crate::spec::ScenarioSpec;
use crate::stage::{self, AnalysisArtifact, CrawlArtifact, CrowdArtifact, PersonaArtifact};
use crate::store::{
    self, ArtifactStore, ChunkedPayload, Provenance, StageWrite, StoreError, StoreFormat,
};
use crate::world::{AnalysisContext, World};
use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One measurement stage's artifact as the engine holds it.
enum Slot<A> {
    /// Whole, in memory: computed, a stage-memo hit, or assembled.
    Memory(Arc<A>),
    /// Opened on a store: the decoded meta chunk (the artifact with its
    /// row sections empty, the crowd's cleaning report included) and
    /// the checksummed payload the rows stream from.
    Stored { hollow: A, payload: ChunkedPayload },
}

impl<A: store::Artifact> Slot<A> {
    /// The artifact's fields outside its row sections: the whole
    /// artifact in memory, or the decoded meta chunk.
    fn meta(&self) -> &A {
        match self {
            Slot::Memory(artifact) => artifact,
            Slot::Stored { hollow, .. } => hollow,
        }
    }

    /// Where analysis reads the rows of `section`.
    fn source(&self, section: &'static str) -> stage::StoreSource<'_> {
        match self {
            Slot::Memory(artifact) => stage::StoreSource::Memory(
                artifact
                    .section(section)
                    .expect("a row section of the artifact"),
            ),
            Slot::Stored { payload, .. } => stage::StoreSource::Chunked(payload, section),
        }
    }

    /// The whole artifact, assembled from the payload when stored.
    fn whole(&self) -> Result<Cow<'_, A>, StoreError> {
        match self {
            Slot::Memory(artifact) => Ok(Cow::Borrowed(artifact)),
            Slot::Stored { payload, .. } => payload.assemble().map(Cow::Owned),
        }
    }
}

/// A measurement stage's artifact type: its stage, its slot in the
/// engine, and how the engine computes it (the world built and the
/// upstream resolved first, then the stage function in its window).
trait Measured: store::Artifact + Send + Sync + 'static {
    const KIND: StageKind;
    fn slot(engine: &Engine) -> &Option<Slot<Self>>;
    fn slot_mut(engine: &mut Engine) -> &mut Option<Slot<Self>>;
    fn compute(engine: &mut Engine) -> Self;
}

impl Measured for CrowdArtifact {
    const KIND: StageKind = StageKind::Crowd;

    fn slot(engine: &Engine) -> &Option<Slot<Self>> {
        &engine.crowd
    }

    fn slot_mut(engine: &mut Engine) -> &mut Option<Slot<Self>> {
        &mut engine.crowd
    }

    fn compute(engine: &mut Engine) -> Self {
        let world = engine.world();
        engine.observed(Self::KIND, || {
            stage::crowd_stage(world, &engine.plan, &engine.executor, &engine.observer)
        })
    }
}

impl Measured for CrawlArtifact {
    const KIND: StageKind = StageKind::Crawl;

    fn slot(engine: &Engine) -> &Option<Slot<Self>> {
        &engine.crawl
    }

    fn slot_mut(engine: &mut Engine) -> &mut Option<Slot<Self>> {
        &mut engine.crawl
    }

    /// With [`RunPlan::targets_from_crowd`] set, the crowd stage runs
    /// (or loads) first and the targets are the domains with confirmed
    /// crowd variation instead of the paper's fixed list.
    fn compute(engine: &mut Engine) -> Self {
        let targets = match engine.plan.targets_from_crowd {
            Some(min_confirmed) => {
                let crowd = Arc::clone(engine.whole::<CrowdArtifact>());
                stage::targets_from_crowd(engine.world(), &crowd.cleaned, min_confirmed)
            }
            None => engine.world().paper_crawl_targets(),
        };
        let world = engine.world();
        engine.observed(Self::KIND, || {
            stage::crawl_stage(
                world,
                &engine.plan.config,
                &targets,
                &engine.executor,
                &engine.observer,
            )
        })
    }
}

impl Measured for PersonaArtifact {
    const KIND: StageKind = StageKind::Personas;

    fn slot(engine: &Engine) -> &Option<Slot<Self>> {
        &engine.personas
    }

    fn slot_mut(engine: &mut Engine) -> &mut Option<Slot<Self>> {
        &mut engine.personas
    }

    fn compute(engine: &mut Engine) -> Self {
        let world = engine.world();
        engine.observed(Self::KIND, || {
            stage::persona_stage(
                world,
                &engine.plan.config,
                &engine.executor,
                &engine.observer,
            )
        })
    }
}

/// The staged, artifact-caching experiment engine.
pub struct Engine {
    plan: RunPlan,
    /// Built on first use ([`Engine::world`]): only a stage that
    /// computes needs it, so a re-analysis of stored measurements never
    /// builds one.
    world: OnceLock<World>,
    /// What the analysis reads of the world, derived from the plan.
    context: AnalysisContext,
    executor: Executor,
    observer: Arc<TimingObserver>,
    /// The sweep-arm label the engine's stages are recorded under: the
    /// builder's arm label, empty for an engine built from a plan.
    arm: String,
    /// Read-through artifact store directory (see [`Engine::with_artifacts`]).
    artifacts_dir: Option<PathBuf>,
    /// Provenance stamped into manifests this engine writes.
    provenance: Provenance,
    /// The declarative spec that produced this engine's plan, if any
    /// (recorded verbatim in manifests this engine writes).
    spec: Option<ScenarioSpec>,
    /// Stages whose artifact came from the stage memo or off disk
    /// rather than being computed here.
    loaded_stages: Vec<StageKind>,
    /// The memo (see [`StoreCache`]): consulted before the disk store
    /// on every measurement stage, and for the frames every `analyze()`
    /// reuses; per engine unless shared by the builder or injected by a
    /// long-lived caller.
    stores: Arc<StoreCache>,
    crowd: Option<Slot<CrowdArtifact>>,
    crawl: Option<Slot<CrawlArtifact>>,
    personas: Option<Slot<PersonaArtifact>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("plan", &self.plan)
            .field("executor", &self.executor)
            .field("world_built", &self.world.get().is_some())
            .field("artifacts_dir", &self.artifacts_dir)
            .field("crowd_cached", &self.crowd.is_some())
            .field("crawl_cached", &self.crawl.is_some())
            .field("personas_cached", &self.personas.is_some())
            .finish()
    }
}

/// What [`Engine::load_artifacts`] found in a store, per measurement
/// stage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadSummary {
    /// Stages loaded into the engine's cache.
    pub loaded: Vec<StageKind>,
    /// Stages the manifest does not list.
    pub missing: Vec<StageKind>,
    /// Stages stored under a different fingerprint (produced by another
    /// plan).
    pub stale: Vec<StageKind>,
    /// Stages whose files are corrupt or unreadable.
    pub corrupt: Vec<StageKind>,
}

impl LoadSummary {
    /// True when every measurement stage (crowd, crawl, personas) loaded.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.loaded.len() == 3
    }

    /// Files one stage's load outcome under loaded, missing, stale or
    /// corrupt.
    fn record(&mut self, kind: StageKind, outcome: Result<(), StoreError>) {
        match outcome {
            Ok(()) => self.loaded.push(kind),
            Err(StoreError::MissingStage { .. }) => self.missing.push(kind),
            Err(StoreError::StaleFingerprint { .. }) => self.stale.push(kind),
            Err(_) => self.corrupt.push(kind),
        }
    }
}

/// What [`Engine::save_artifacts`] wrote, per stage name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SaveSummary {
    /// Stages serialized to the store in this call.
    pub saved: Vec<&'static str>,
    /// Cached stages that were already in the store under the same
    /// fingerprint (e.g. because they were loaded from it).
    pub fresh: Vec<&'static str>,
}

impl Engine {
    /// Builds an engine for a run plan. The world is not assembled
    /// here but on first use ([`Engine::world`]); the plan's
    /// [`AnalysisContext`] is derived at once.
    #[must_use]
    pub fn from_plan(plan: RunPlan, executor: Executor, observer: Arc<TimingObserver>) -> Self {
        let provenance = Provenance::new(
            "custom",
            "",
            "custom",
            plan.config.seed.value(),
            executor.threads(),
        );
        Engine {
            context: AnalysisContext::from_plan(&plan),
            plan,
            world: OnceLock::new(),
            executor,
            observer,
            arm: String::new(),
            artifacts_dir: None,
            provenance,
            spec: None,
            loaded_stages: Vec::new(),
            stores: Arc::new(StoreCache::new()),
            crowd: None,
            crawl: None,
            personas: None,
        }
    }

    /// Attaches an artifact-store directory as a transparent
    /// read-through cache: every stage checks the store (by fingerprint,
    /// see [`crate::store`]) before computing. Loads are reported
    /// through [`TimingObserver::stage_loaded`]; nothing is written until
    /// [`Engine::save_artifacts`].
    #[must_use]
    pub fn with_artifacts(mut self, dir: impl Into<PathBuf>) -> Self {
        self.artifacts_dir = Some(dir.into());
        self
    }

    /// Overrides the provenance stamped into manifests this engine
    /// writes (the builder does this with the scenario name, sweep-arm
    /// label and profile).
    #[must_use]
    pub fn with_provenance(mut self, provenance: Provenance) -> Self {
        self.provenance = provenance;
        self
    }

    /// Records the declarative spec this engine's plan was lowered from;
    /// manifests the engine writes then carry the exact spec, so a store
    /// is reproducible from its own metadata (`pd artifacts ls`).
    #[must_use]
    pub fn with_spec(mut self, spec: ScenarioSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// The provenance stamped into manifests this engine writes.
    #[must_use]
    pub fn provenance(&self) -> &Provenance {
        &self.provenance
    }

    /// The spec this engine was built from, if it came from one.
    #[must_use]
    pub fn spec(&self) -> Option<&ScenarioSpec> {
        self.spec.as_ref()
    }

    /// Replaces the engine's memo with a shared one: every measurement
    /// stage checks it before the disk store, loaded artifacts are kept
    /// there on first load and computed ones on their second offer, and
    /// analysis frames on their first build (see [`StoreCache`]) — so
    /// engines over the same measurements share one `Arc` per artifact
    /// and per frame.
    #[must_use]
    pub fn with_store_cache(mut self, stores: Arc<StoreCache>) -> Self {
        self.stores = stores;
        self
    }

    /// The memo in force.
    #[must_use]
    pub fn store_cache(&self) -> &Arc<StoreCache> {
        &self.stores
    }

    /// The attached read-through store directory, if any.
    #[must_use]
    pub fn artifacts_dir(&self) -> Option<&Path> {
        self.artifacts_dir.as_deref()
    }

    /// Stages whose artifacts were satisfied from the stage memo or a
    /// store instead of computed, in load order.
    #[must_use]
    pub fn loaded_stages(&self) -> &[StageKind] {
        &self.loaded_stages
    }

    /// The assembled world, built on the first call: the world for the
    /// plan's config, with the plan's vantage subset and
    /// desynchronization skew applied to the fan-out engine. The build
    /// is reported as the [`StageKind::Build`] stage, so callers that
    /// are about to run a stage call this *before* opening that stage's
    /// window.
    #[must_use]
    pub fn world(&self) -> &World {
        self.world.get_or_init(|| {
            self.observed(StageKind::Build, || {
                let mut world = World::build_on(&self.plan.config, &self.executor);
                if let Some(labels) = &self.plan.vantage_labels {
                    world.sheriff = world.sheriff.clone().with_vantage_subset(labels);
                }
                if self.plan.desync != pd_net::clock::SimDuration::ZERO {
                    world.sheriff = world.sheriff.clone().with_desync(self.plan.desync);
                }
                // Emitted inside the stage window so it is recorded as
                // this run's build stage's counter.
                self.observer.counter(
                    StageKind::Build,
                    "vantage_points",
                    world.sheriff.vantage_points().len() as u64,
                );
                world
            })
        })
    }

    /// What the analysis reads of the world, derived from the plan
    /// without building it.
    #[must_use]
    pub fn context(&self) -> &AnalysisContext {
        &self.context
    }

    /// The plan in force.
    #[must_use]
    pub fn plan(&self) -> &RunPlan {
        &self.plan
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &ExperimentConfig {
        &self.plan.config
    }

    /// The scheduler in force.
    #[must_use]
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Runs `f` as `stage`'s window: a recorded start, then a finish
    /// with its wall time under this engine's arm label.
    fn observed<T>(&self, stage: StageKind, f: impl FnOnce() -> T) -> T {
        self.observer.stage_started(stage);
        let start = Instant::now();
        let result = f();
        self.observer
            .stage_finished(&self.arm, stage, start.elapsed());
        result
    }

    /// The fingerprint `A`'s stage is stored and memoized under.
    fn fingerprint<A: Measured>(&self) -> store::Fingerprint {
        store::measurement_fingerprint(A::KIND, &self.plan)
            .expect("measurement stage has a fingerprint")
    }

    fn note_loaded(&mut self, kind: StageKind, fp: store::Fingerprint) {
        self.observer.stage_loaded(kind, &fp.to_string());
        self.loaded_stages.push(kind);
    }

    /// Is `A`'s slot filled, if need be from the stage memo? A memo hit
    /// is reported like a disk load: the fingerprint key certifies it
    /// as much as it certifies the store's bytes.
    fn recall<A: Measured>(&mut self) -> bool {
        if A::slot(self).is_some() {
            return true;
        }
        let fp = self.fingerprint::<A>();
        let Some(hit) = self.stores.get::<A>(A::KIND, fp.as_u64()) else {
            return false;
        };
        *A::slot_mut(self) = Some(Slot::Memory(hit));
        self.note_loaded(A::KIND, fp);
        true
    }

    /// Fills `A`'s slot from `store` (fingerprint- and checksum-checked)
    /// and reports the load. A stage with row sections stays `Stored`,
    /// its rows on disk; one without is whole in its meta chunk, so it
    /// is held in memory and kept in the stage memo.
    fn open_slot<A: Measured>(&mut self, store: &ArtifactStore) -> Result<(), StoreError> {
        let fp = self.fingerprint::<A>();
        let payload = store.open_chunked(A::KIND.as_str(), fp)?;
        let hollow: A = payload.meta()?;
        let slot = if A::SECTIONS.is_empty() {
            Slot::Memory(self.stores.insert(A::KIND, fp.as_u64(), Arc::new(hollow)))
        } else {
            Slot::Stored { hollow, payload }
        };
        *A::slot_mut(self) = Some(slot);
        self.note_loaded(A::KIND, fp);
        Ok(())
    }

    /// Resolves `A`'s slot through the one order: the slot itself, the
    /// stage memo, the attached store, then compute. Any store failure
    /// (no store, an older layout, a stale fingerprint, a corrupt file)
    /// is a miss; `pd artifacts ls` is the diagnostic surface for
    /// unhealthy stores.
    fn resolve<A: Measured>(&mut self) {
        if self.recall::<A>() {
            return;
        }
        let loaded = self
            .attached_store()
            .is_some_and(|store| self.open_slot::<A>(&store).is_ok());
        if !loaded {
            self.run_stage::<A>();
        }
    }

    /// Computes `A`'s stage into its slot. The artifact is offered to the
    /// stage memo, which keeps it on its fingerprint's second offer.
    fn run_stage<A: Measured>(&mut self) {
        let computed = A::compute(self);
        let fp = self.fingerprint::<A>().as_u64();
        let held = self.stores.admit(A::KIND, fp, Arc::new(computed));
        *A::slot_mut(self) = Some(Slot::Memory(held));
    }

    /// `A`'s whole artifact: resolved, and assembled from the payload
    /// already held when the slot is `Stored` (the load was reported
    /// when the slot was opened). Rows that pass their checksum but do
    /// not decode are a miss: the stage is computed.
    fn whole<A: Measured>(&mut self) -> &Arc<A> {
        self.resolve::<A>();
        if let Some(Slot::Stored { payload, .. }) = A::slot(self) {
            match payload.assemble::<A>() {
                Ok(artifact) => {
                    let fp = self.fingerprint::<A>().as_u64();
                    let held = self.stores.insert(A::KIND, fp, Arc::new(artifact));
                    *A::slot_mut(self) = Some(Slot::Memory(held));
                }
                Err(_) => self.run_stage::<A>(),
            }
        }
        match A::slot(self) {
            Some(Slot::Memory(artifact)) => artifact,
            _ => unreachable!("resolved and assembled above"),
        }
    }

    /// The attached read-through store, when there is one and it opens
    /// (an older layout, like any open failure, reads as no store).
    fn attached_store(&self) -> Option<ArtifactStore> {
        let dir = self.artifacts_dir.as_deref()?;
        if !ArtifactStore::is_store(dir) {
            return None;
        }
        ArtifactStore::open(dir).ok()
    }

    /// The crowd campaign artifact: from the engine's slot, else the
    /// stage memo, else the attached artifact store (fingerprint
    /// permitting), else computed by running the stage.
    pub fn crowd(&mut self) -> &CrowdArtifact {
        self.whole::<CrowdArtifact>()
    }

    /// The crawl artifact, resolved like [`Engine::crowd`]. With
    /// [`RunPlan::targets_from_crowd`] set, the crowd stage runs (or
    /// loads) first and the crawl targets are the domains with
    /// confirmed crowd variation instead of the paper's fixed list.
    pub fn crawl(&mut self) -> &CrawlArtifact {
        self.whole::<CrawlArtifact>()
    }

    /// The persona/login artifact, resolved like [`Engine::crowd`].
    pub fn personas(&mut self) -> &PersonaArtifact {
        self.whole::<PersonaArtifact>()
    }

    /// Eagerly loads every measurement artifact the store holds for this
    /// engine's plan, reporting per-stage outcomes. Unlike the passive
    /// read-through of [`Engine::with_artifacts`], this distinguishes
    /// *why* a stage did not load — `pd rerun` uses it to refuse
    /// incomplete or stale stores instead of silently re-measuring.
    /// Each stage resolves as everywhere else, minus the compute step;
    /// crowd and crawl stay on disk and `analyze()` streams their rows.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoManifest`] (or another open failure) when `dir`
    /// is not a readable artifact store.
    pub fn load_artifacts(&mut self, dir: &Path) -> Result<LoadSummary, StoreError> {
        let store = ArtifactStore::open(dir)?;
        let mut summary = LoadSummary::default();
        summary.record(StageKind::Crowd, self.load::<CrowdArtifact>(&store));
        summary.record(StageKind::Crawl, self.load::<CrawlArtifact>(&store));
        summary.record(StageKind::Personas, self.load::<PersonaArtifact>(&store));
        Ok(summary)
    }

    /// One stage of [`Engine::load_artifacts`]: the slot, the memo, then
    /// `store`.
    fn load<A: Measured>(&mut self, store: &ArtifactStore) -> Result<(), StoreError> {
        if self.recall::<A>() {
            return Ok(());
        }
        self.open_slot::<A>(store)
    }

    /// Persists every held measurement artifact to `dir`, creating the
    /// store (with this engine's provenance and plan) if needed. Stages
    /// the store holds under the current fingerprint
    /// ([`ArtifactStore::held`]: the entry matches and its file is
    /// present) are skipped; any other held stage is written, in memory
    /// or stored elsewhere (the encode is deterministic, so a stage
    /// copied from another store is byte-identical to its source).
    ///
    /// # Errors
    ///
    /// [`StoreError::PlanMismatch`] when `dir` already holds artifacts
    /// produced by a different plan (delete the directory first if you
    /// really mean to replace them); [`StoreError::Io`] (or a manifest
    /// parse error) when the store cannot be created or written.
    pub fn save_artifacts(&self, dir: &Path) -> Result<SaveSummary, StoreError> {
        let mut store = self.open_or_create_store(dir)?;
        let mut summary = SaveSummary::default();
        let crowd = self.unsaved::<CrowdArtifact>(&store, &mut summary)?;
        let crawl = self.unsaved::<CrawlArtifact>(&store, &mut summary)?;
        let personas = self.unsaved::<PersonaArtifact>(&store, &mut summary)?;
        let writes: Vec<StageWrite<'_>> = [
            crowd.as_deref().map(|a| self.stage_write(a)),
            crawl.as_deref().map(|a| self.stage_write(a)),
            personas.as_deref().map(|a| self.stage_write(a)),
        ]
        .into_iter()
        .flatten()
        .collect();
        // A new store gets its manifest from its first batch, empty or
        // not.
        if !writes.is_empty() || !ArtifactStore::is_store(dir) {
            store.save_all(&writes, &self.executor)?;
        }
        Ok(summary)
    }

    /// `A`'s artifact when the engine holds it and `store` does not hold
    /// it under this plan's fingerprint (a `Stored` slot is assembled),
    /// recording the stage in `summary` as saved or fresh.
    fn unsaved<A: Measured>(
        &self,
        store: &ArtifactStore,
        summary: &mut SaveSummary,
    ) -> Result<Option<Cow<'_, A>>, StoreError> {
        let Some(slot) = A::slot(self) else {
            return Ok(None);
        };
        let name = A::KIND.as_str();
        if store.held(name, self.fingerprint::<A>()).is_some() {
            summary.fresh.push(name);
            return Ok(None);
        }
        let artifact = slot.whole()?;
        summary.saved.push(name);
        Ok(Some(artifact))
    }

    /// Queues a measurement artifact under its stage and fingerprint.
    fn stage_write<'a, A: Measured>(&self, artifact: &'a A) -> StageWrite<'a> {
        StageWrite::new(A::KIND.as_str(), self.fingerprint::<A>(), &[], artifact)
    }

    /// Persists an analysis artifact to `dir`, recording the three
    /// measurement fingerprints as its upstream lineage. Call after
    /// [`Engine::save_artifacts`] so the manifest lists the full funnel.
    /// Like `save_artifacts`, an entry the store holds under the current
    /// fingerprint ([`ArtifactStore::held`]) is left untouched (returns
    /// its existing size).
    ///
    /// # Errors
    ///
    /// [`StoreError::PlanMismatch`] when `dir` holds another plan's
    /// artifacts; [`StoreError::Io`] (or a manifest parse error) when
    /// the store cannot be created or written.
    pub fn save_analysis(
        &self,
        dir: &Path,
        artifact: &AnalysisArtifact,
    ) -> Result<u64, StoreError> {
        let mut store = self.open_or_create_store(dir)?;
        let name = StageKind::Analysis.as_str();
        let fp = store::analysis_fingerprint(&self.plan);
        if let Some(entry) = store.held(name, fp) {
            return Ok(entry.bytes);
        }
        let upstream = [
            store::crowd_fingerprint(&self.plan),
            store::crawl_fingerprint(&self.plan),
            store::personas_fingerprint(&self.plan),
        ];
        let write = StageWrite::new(name, fp, &upstream, artifact);
        Ok(store.save_all(&[write], &self.executor)?[0])
    }

    /// Opens the store at `dir` if it was produced by this engine's
    /// plan, or creates it fresh if the directory is not a store yet.
    /// A store produced by a *different* plan, in an older layout, or
    /// with an unreadable manifest is never clobbered: a paper-scale
    /// dataset must not die to a seed typo. The caller decides whether
    /// to delete the directory and retry (the CLI's
    /// `--overwrite-artifacts`).
    fn open_or_create_store(&self, dir: &Path) -> Result<ArtifactStore, StoreError> {
        match ArtifactStore::open(dir) {
            Ok(existing)
                if existing.manifest().plan == store::PlanRecord::from_plan(&self.plan) =>
            {
                Ok(existing)
            }
            Ok(_) => Err(StoreError::PlanMismatch {
                dir: dir.display().to_string(),
            }),
            Err(StoreError::NoManifest { .. }) => {
                ArtifactStore::create(dir, self.provenance.clone(), &self.plan, self.spec.clone())
            }
            Err(e) => Err(e),
        }
    }

    /// Runs the analysis over the (cached) upstream artifacts and
    /// returns the analysis artifact. Upstream stages run at most once;
    /// calling this twice re-analyzes but does not re-measure.
    ///
    /// Each stage resolves through the engine slot, the stage memo, the
    /// attached store, then compute. Crowd and crawl rows found on disk
    /// stay there (`Stored` slots) and are streamed one domain chunk at
    /// a time (the `frames_chunks_loaded` counter reports how many)
    /// instead of deserializing whole payloads.
    pub fn analyze(&mut self) -> AnalysisArtifact {
        self.personas();
        self.resolve::<CrowdArtifact>();
        self.resolve::<CrawlArtifact>();
        match self.analyze_held() {
            Ok(analysis) => analysis,
            Err(_) => {
                // A chunk passed its checksum but did not decode: the
                // stored slots are assembled whole, and a stage whose
                // rows still fail is recomputed, rather than serve a
                // partial analysis.
                self.crowd();
                self.crawl();
                self.analyze_held()
                    .expect("in-memory analysis sources cannot fail")
            }
        }
    }

    /// Runs [`stage::analysis_over`] over the resolved slots, whichever
    /// mix of memory and stored payloads they are (a memo hit can sit
    /// beside a stored stage). Fails only when a chunk fails mid-read.
    fn analyze_held(&self) -> Result<AnalysisArtifact, StoreError> {
        let resolved = "resolved before the analysis";
        let crowd = self.crowd.as_ref().expect(resolved);
        let crawl = self.crawl.as_ref().expect(resolved);
        let keys = stage::FrameKeys {
            cache: self.stores.as_ref(),
            crowd: self.fingerprint::<CrowdArtifact>().as_u64(),
            crawl: self.fingerprint::<CrawlArtifact>().as_u64(),
        };
        let probe_world = self.probe_world();
        self.observed(StageKind::Analysis, || {
            stage::analysis_over(
                &self.context,
                &self.plan.config,
                crowd.source("raw"),
                crowd.source("cleaned"),
                crowd.meta().cleaning,
                crawl.source("store"),
                self.personas.as_ref().expect(resolved).meta(),
                probe_world,
                keys,
                &self.executor,
                &self.observer,
            )
        })
    }

    /// The world for the analysis's probe fallback: built — before the
    /// analysis window opens — only when the persona artifact's stored
    /// probes do not fit the plan ([`stage::stored_probes`]).
    fn probe_world(&self) -> Option<&World> {
        let personas = self.personas.as_ref().expect("personas resolved first");
        stage::stored_probes(personas.meta(), &self.plan.config)
            .is_none()
            .then(|| self.world())
    }

    /// Runs the full pipeline and returns the report.
    pub fn run(&mut self) -> Report {
        self.analyze().report
    }
}

/// Why a builder could not produce an engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The requested scenario name is not registered.
    UnknownScenario(String),
    /// The supplied [`ScenarioSpec`] failed validation.
    InvalidSpec {
        /// The spec's name (possibly empty).
        name: String,
        /// The validation failure, rendered.
        detail: String,
    },
    /// `build()` was called on a sweep scenario; use
    /// [`ExperimentBuilder::build_variants`].
    SweepScenario(String),
    /// A config override was combined with a scenario whose sweep arms
    /// differ *through* their configs (e.g. `seed-sweep`,
    /// `locale-sweep`); overriding would erase the arm differences.
    ConfigOverridesSweep(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UnknownScenario(name) => write!(f, "unknown scenario {name:?}"),
            BuildError::InvalidSpec { name, detail } => {
                write!(f, "invalid scenario spec {name:?}: {detail}")
            }
            BuildError::SweepScenario(name) => write!(
                f,
                "scenario {name:?} is a sweep; use build_variants() to get every arm"
            ),
            BuildError::ConfigOverridesSweep(name) => write!(
                f,
                "scenario {name:?} sweeps over its config; a config override would \
                 make every arm identical"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for [`Engine`]s: scenario + seed + profile + threads +
/// observer.
///
/// ```
/// use pd_core::{Experiment, Profile};
///
/// let mut engine = Experiment::builder()
///     .scenario("paper")
///     .profile(Profile::Smoke)
///     .seed(42)
///     .threads(2)
///     .build()
///     .expect("paper is a registered single-run scenario");
/// let report = engine.run();
/// assert!(report.summary.crowd_requests > 0);
/// ```
pub struct ExperimentBuilder {
    registry: ScenarioRegistry,
    scenario: Option<String>,
    spec: Option<ScenarioSpec>,
    config: Option<ExperimentConfig>,
    seed: Option<u64>,
    profile: Profile,
    threads: usize,
    observer: Arc<TimingObserver>,
    artifacts: Option<PathBuf>,
    store_cache: Option<Arc<StoreCache>>,
}

impl std::fmt::Debug for ExperimentBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentBuilder")
            .field("scenario", &self.scenario)
            .field("seed", &self.seed)
            .field("profile", &self.profile)
            .field("threads", &self.threads)
            .finish()
    }
}

impl Default for ExperimentBuilder {
    fn default() -> Self {
        ExperimentBuilder {
            registry: ScenarioRegistry::builtin(),
            scenario: None,
            spec: None,
            config: None,
            seed: None,
            profile: Profile::Paper,
            threads: 1,
            observer: Arc::new(TimingObserver::new()),
            artifacts: None,
            store_cache: None,
        }
    }
}

impl ExperimentBuilder {
    /// A builder with the built-in scenario registry, the `paper`
    /// scenario, the paper seed and profile, one thread, a fresh
    /// observer nobody reads.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects a scenario by registry name (default: `paper`).
    #[must_use]
    pub fn scenario(mut self, name: &str) -> Self {
        self.scenario = Some(name.to_owned());
        self
    }

    /// Runs a one-off declarative spec instead of a registered scenario
    /// (what `pd run --spec FILE.json` does). Wins over
    /// [`ExperimentBuilder::scenario`]; the spec is validated at build
    /// time and recorded in any artifact manifest the run writes.
    #[must_use]
    pub fn spec(mut self, spec: ScenarioSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Overrides the experiment configuration. The selected scenario
    /// still applies its engine knobs (desync, cleaning, vantage subset)
    /// on top of this config, and an explicit [`ExperimentBuilder::seed`]
    /// still wins over the override's seed. Scenarios whose sweep arms
    /// differ through their configs (`seed-sweep`, `locale-sweep`)
    /// reject an override at build time.
    #[must_use]
    pub fn config(mut self, config: ExperimentConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Sets the root seed (default: the paper seed, 1307).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the workload profile (default: [`Profile::Paper`]).
    #[must_use]
    pub fn profile(mut self, profile: Profile) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the worker-thread count (default 1 = sequential; 0 = the
    /// machine's available parallelism). The report is byte-identical at
    /// any value.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Records every engine this builder produces into `observer` (keep
    /// a clone of the `Arc` to read timings afterwards).
    #[must_use]
    pub fn observer(mut self, observer: Arc<TimingObserver>) -> Self {
        self.observer = observer;
        self
    }

    /// Attaches an artifact-store directory as a read-through cache
    /// (see [`Engine::with_artifacts`]). Sweep scenarios get one store
    /// per arm, in a subdirectory named after the arm label.
    #[must_use]
    pub fn artifacts(mut self, dir: impl Into<PathBuf>) -> Self {
        self.artifacts = Some(dir.into());
        self
    }

    /// Kept for callers written when stores had two payload formats:
    /// a no-op, since every store is binary ([`StoreFormat::Binary`]).
    #[must_use]
    pub fn store_format(self, _format: StoreFormat) -> Self {
        self
    }

    /// Shares a caller-owned [`StoreCache`] (the memo) with every engine
    /// this builder produces, instead of the per-build memo it would
    /// otherwise create. Long-lived callers (the `pd serve` daemon) pass
    /// one process-wide memo here, so a repeated run skips the
    /// measurement stages and the frame build, and concurrent runs over
    /// one on-disk crawl hold one `Arc` per artifact. Entries are keyed
    /// by measurement fingerprint — unrelated workloads never collide.
    #[must_use]
    pub fn store_cache(mut self, stores: Arc<StoreCache>) -> Self {
        self.store_cache = Some(stores);
        self
    }

    /// The memo the built engines will share: the injected one, or a
    /// fresh per-build one.
    fn shared_memo(&self) -> Arc<StoreCache> {
        self.store_cache.clone().unwrap_or_default()
    }

    /// Resolves the scenario (an explicit spec, or a registry name) into
    /// the producing spec and its labeled run plans.
    fn resolve(&self) -> Result<(ScenarioSpec, Vec<(String, RunPlan)>), BuildError> {
        let spec: &ScenarioSpec = match &self.spec {
            Some(spec) => spec,
            None => {
                let name = self.scenario.as_deref().unwrap_or("paper");
                self.registry
                    .get(name)
                    .ok_or_else(|| BuildError::UnknownScenario(name.to_owned()))?
            }
        };
        let name = spec.name.clone();
        let params = ScenarioParams {
            seed: self
                .seed
                .unwrap_or_else(|| pd_util::seed::EXPERIMENT_SEED.value()),
            profile: self.profile,
        };
        let mut variants = spec
            .lower(&params)
            .map_err(|e| BuildError::InvalidSpec {
                name: name.clone(),
                detail: e.to_string(),
            })?
            .into_variants();
        if let Some(config) = &self.config {
            // A config override is only meaningful when the arms do not
            // differ through their configs — otherwise it would silently
            // flatten the sweep.
            if variants
                .iter()
                .any(|(_, plan)| plan.config != variants[0].1.config)
            {
                return Err(BuildError::ConfigOverridesSweep(name));
            }
            // An explicit .seed() composes with the override instead of
            // being silently discarded by it.
            let mut config = config.clone();
            if let Some(seed) = self.seed {
                config.seed = pd_util::Seed::new(seed);
            }
            for (_, plan) in &mut variants {
                plan.config = config.clone();
            }
        }
        Ok((spec.clone(), variants))
    }

    /// Assembles one arm's engine: provenance and the arm label its
    /// stages are recorded under from the scenario/label, the shared
    /// memo, and (with
    /// [`ExperimentBuilder::artifacts`]) the arm's store subdirectory.
    /// The single place this wiring exists — `build`, `build_variants`
    /// and `run_sweep` all go through it, so they cannot drift.
    /// `executor` is the executor the engine will actually run on (the
    /// full budget, or the intra-arm share under `run_sweep`); its
    /// thread count is what the provenance records.
    fn arm_engine(
        &self,
        spec: &ScenarioSpec,
        label: &str,
        plan: RunPlan,
        executor: Executor,
        observer: Arc<TimingObserver>,
        memo: &Arc<StoreCache>,
    ) -> Engine {
        let provenance = Provenance::new(
            &spec.name,
            label,
            spec.profile_for(self.profile).name(),
            plan.config.seed.value(),
            executor.threads(),
        );
        let mut engine = Engine::from_plan(plan, executor, observer)
            .with_provenance(provenance)
            .with_spec(spec.clone())
            .with_store_cache(Arc::clone(memo));
        engine.arm = label.to_owned();
        if let Some(dir) = &self.artifacts {
            let arm_dir = if label.is_empty() {
                dir.clone()
            } else {
                dir.join(label)
            };
            engine = engine.with_artifacts(arm_dir);
        }
        engine
    }

    /// Builds the engine for a single-run scenario.
    ///
    /// # Errors
    ///
    /// [`BuildError::UnknownScenario`] if the name is not registered;
    /// [`BuildError::SweepScenario`] if the scenario expands to more
    /// than one run (use [`ExperimentBuilder::build_variants`]).
    pub fn build(self) -> Result<Engine, BuildError> {
        let (spec, mut variants) = self.resolve()?;
        if variants.len() != 1 {
            return Err(BuildError::SweepScenario(spec.name));
        }
        let (label, plan) = variants.remove(0);
        Ok(self.arm_engine(
            &spec,
            &label,
            plan,
            Executor::new(self.threads),
            Arc::clone(&self.observer),
            &self.shared_memo(),
        ))
    }

    /// Builds one engine per scenario variant (a single-run scenario
    /// yields one engine labeled `""`). With [`ExperimentBuilder::artifacts`],
    /// each labeled arm gets its own store subdirectory.
    ///
    /// # Errors
    ///
    /// [`BuildError::UnknownScenario`] if the name is not registered.
    pub fn build_variants(self) -> Result<Vec<(String, Engine)>, BuildError> {
        let (spec, variants) = self.resolve()?;
        let executor = Executor::new(self.threads);
        // One memo for the whole sweep: arms whose upstream measurement
        // fingerprints coincide reuse each other's frames and artifacts.
        let memo = self.shared_memo();
        Ok(variants
            .into_iter()
            .map(|(label, plan)| {
                let engine = self.arm_engine(
                    &spec,
                    &label,
                    plan,
                    executor,
                    Arc::clone(&self.observer),
                    &memo,
                );
                (label, engine)
            })
            .collect())
    }

    /// Runs every scenario arm to completion, **fanning the arms across
    /// the deterministic executor**. This is the engine's sweep hot
    /// path: the thread budget is split arm-level × intra-arm
    /// ([`Executor::split`], never oversubscribing `threads`), every arm
    /// runs its full pipeline recording into its own [`TimingObserver`],
    /// and when all arms have joined those are merged into the builder's
    /// observer in label order (`TimingObserver::absorb`) — so the
    /// observer holds the records a serial sweep would have produced,
    /// and reports stay byte-identical at any thread count. The returned
    /// engines record into the builder's observer again, each under its
    /// own arm label.
    ///
    /// Single-run scenarios work too (one arm labeled `""`, the whole
    /// budget intra-arm), so callers like the `pd` CLI can treat every
    /// scenario uniformly.
    ///
    /// Arms share the builder's [`StoreCache`]; with
    /// [`ExperimentBuilder::artifacts`], each labeled arm reads (and its
    /// returned engine later writes) its own store subdirectory.
    ///
    /// # Errors
    ///
    /// [`BuildError::UnknownScenario`] if the name is not registered;
    /// [`BuildError::ConfigOverridesSweep`] under the same conditions as
    /// [`ExperimentBuilder::build_variants`].
    ///
    /// # Panics
    ///
    /// Propagates a panic from any arm.
    pub fn run_sweep(self) -> Result<Vec<SweepArmRun>, BuildError> {
        let (spec, variants) = self.resolve()?;
        let total = Executor::new(self.threads);
        let (arm_exec, intra) = total.split(variants.len());
        let memo = self.shared_memo();
        let arm_observers: Vec<Arc<TimingObserver>> = variants
            .iter()
            .map(|_| Arc::new(TimingObserver::new()))
            .collect();
        let mut runs = arm_exec.map_indexed(variants.len(), |i| {
            let (label, plan) = &variants[i];
            let observer = Arc::clone(&arm_observers[i]);
            let mut engine = self.arm_engine(&spec, label, plan.clone(), intra, observer, &memo);
            let analysis = engine.analyze();
            // Between arms: drop interned strings only this arm's
            // transient frame shards were holding, so a long multi-arm
            // sweep does not accumulate every arm's domain set for the
            // process lifetime.
            pd_util::intern::purge_unreferenced();
            SweepArmRun {
                label: label.clone(),
                engine,
                analysis,
            }
        });
        // Arms may have finished in any order; their records are merged
        // in arm (label) order, and post-sweep engine calls (a
        // re-analyze under new knobs, a store probe) record live into
        // the builder's observer.
        for (arm, run) in arm_observers.iter().zip(&mut runs) {
            self.observer.absorb(arm);
            run.engine.observer = Arc::clone(&self.observer);
        }
        Ok(runs)
    }
}

/// One completed arm of [`ExperimentBuilder::run_sweep`]: its label, the
/// engine that ran it (still holding the cached stage artifacts, ready
/// for [`Engine::save_artifacts`]) and the analysis it produced.
#[derive(Debug)]
pub struct SweepArmRun {
    /// The scenario's arm label (`""` for single-run scenarios).
    pub label: String,
    /// The arm's engine, post-analysis.
    pub engine: Engine,
    /// The arm's analysis artifact (report included).
    pub analysis: AnalysisArtifact,
}

/// The namespace of [`Experiment::builder`], the entry point for
/// building [`Engine`]s.
#[derive(Debug)]
pub struct Experiment;

impl Experiment {
    /// The scenario/engine builder.
    #[must_use]
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An engine straight from `config`'s default plan: sequential, an
    /// observer nobody reads.
    fn plan_engine(config: ExperimentConfig) -> Engine {
        Engine::from_plan(
            RunPlan::new(config),
            Executor::serial(),
            Arc::new(TimingObserver::new()),
        )
    }

    /// The crowd stage recomputed over `engine`'s world (no cache).
    fn crowd_of(engine: &Engine) -> CrowdArtifact {
        stage::crowd_stage(
            engine.world(),
            engine.plan(),
            engine.executor(),
            &TimingObserver::new(),
        )
    }

    #[test]
    fn full_small_pipeline_runs() {
        let report = plan_engine(ExperimentConfig::small(1307)).run();
        assert!(report.summary.crowd_requests > 100);
        assert!(report.summary.crawled_retailers == 21);
        assert!(!report.fig1.is_empty());
        assert!(!report.fig3.is_empty());
        assert!(!report.fig5_points.is_empty());
        assert_eq!(report.fig8a.cells.len(), 30, "6×6 grid minus diagonal");
        assert!(report.persona.null_result);
    }

    #[test]
    fn crowd_phase_cleaning_drops_noise() {
        let engine = plan_engine(ExperimentConfig::small(2));
        let crowd = crowd_of(&engine);
        let (raw, cleaned, report) = (crowd.raw, crowd.cleaned, crowd.cleaning);
        assert!(cleaned.len() <= raw.len());
        assert_eq!(report.kept, cleaned.len());
        // Default noise rates (7 %) over 150 checks: some drops expected.
        assert!(report.dropped_inconsistent > 0, "{report:?}");
    }

    #[test]
    fn tax_check_catches_the_inliner_confound() {
        let engine = plan_engine(ExperimentConfig::small(3));
        let tax_explained =
            |domain: &str| stage::is_tax_explained(engine.world(), engine.config(), domain);
        // Filler #0 inlines tax by construction (the injected confound).
        assert!(tax_explained("www.shop-000.example"));
        // Real discriminators are not explained away by taxes.
        assert!(!tax_explained("www.digitalrev.com"));
        assert!(!tax_explained("www.energie.it"));
        // Unknown domains are trivially not tax-explained.
        assert!(!tax_explained("gone.example"));
    }

    #[test]
    fn targets_from_crowd_rank_real_discriminators() {
        let engine = plan_engine(ExperimentConfig::small(3));
        let cleaned = crowd_of(&engine).cleaned;
        let targets = stage::targets_from_crowd(engine.world(), &cleaned, 1);
        assert!(!targets.is_empty());
        // Every selected target must actually be discriminating (no
        // false positives at threshold 1 thanks to the band filter).
        for t in &targets {
            let spec = engine
                .world()
                .web
                .server_by_domain(t)
                .map(|s| s.spec().clone());
            if let Some(spec) = spec {
                assert!(
                    spec.is_discriminating(),
                    "{t} selected but not discriminating"
                );
            }
        }
    }

    /// The `paper` scenario is the default plan: an engine built straight
    /// from `RunPlan::new(config)` reports what the builder's scenario
    /// does.
    #[test]
    fn default_plan_equals_builder_paper_scenario() {
        let direct = plan_engine(ExperimentConfig::smoke(1307)).run();
        let mut engine = Experiment::builder()
            .scenario("paper")
            .profile(Profile::Smoke)
            .seed(1307)
            .build()
            .expect("paper scenario builds");
        assert_eq!(direct.to_json(), engine.run().to_json());
    }

    #[test]
    fn builder_rejects_unknown_and_sweep_scenarios() {
        assert!(matches!(
            Experiment::builder().scenario("nope").build(),
            Err(BuildError::UnknownScenario(_))
        ));
        assert!(matches!(
            Experiment::builder().scenario("seed-sweep").build(),
            Err(BuildError::SweepScenario(_))
        ));
        let variants = Experiment::builder()
            .scenario("seed-sweep")
            .profile(Profile::Smoke)
            .build_variants()
            .expect("sweep builds variants");
        assert_eq!(variants.len(), 3);
    }

    #[test]
    fn config_override_rejected_on_config_driven_sweeps() {
        // seed-sweep arms differ through their configs: a wholesale
        // override would silently run the same experiment three times.
        assert!(matches!(
            Experiment::builder()
                .scenario("seed-sweep")
                .config(ExperimentConfig::smoke(1))
                .build_variants(),
            Err(BuildError::ConfigOverridesSweep(_))
        ));
        // desync-ablation arms differ through an engine knob, not the
        // config — the override composes fine.
        let arms = Experiment::builder()
            .scenario("desync-ablation")
            .config(ExperimentConfig::smoke(1))
            .build_variants()
            .expect("engine-knob sweep accepts a config override");
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[0].1.config().crowd.checks, 60);
    }

    #[test]
    fn explicit_seed_wins_over_config_override() {
        let engine = Experiment::builder()
            .config(ExperimentConfig::smoke(1))
            .seed(42)
            .build()
            .expect("paper scenario with explicit config");
        assert_eq!(engine.config().seed.value(), 42);
    }

    fn tmp_store(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pd-engine-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn save_then_load_artifacts_skips_measurement_stages() {
        let dir = tmp_store("round-trip");
        let mut producer = Experiment::builder()
            .scenario("smoke")
            .seed(7)
            .build()
            .expect("smoke builds");
        let report = producer.run();
        let saved = producer.save_artifacts(&dir).expect("save");
        assert_eq!(saved.saved, vec!["crowd", "crawl", "personas"]);

        let observer = Arc::new(TimingObserver::new());
        let mut consumer = Experiment::builder()
            .scenario("smoke")
            .seed(7)
            .observer(observer.clone())
            .artifacts(dir.clone())
            .build()
            .expect("smoke builds");
        let reloaded = consumer.run();
        assert_eq!(report.to_json(), reloaded.to_json());
        assert_eq!(report.render_all(), reloaded.render_all());
        for kind in [StageKind::Crowd, StageKind::Crawl, StageKind::Personas] {
            assert_eq!(observer.starts(kind), 0, "{kind} must come from disk");
            assert_eq!(observer.loads(kind), 1, "{kind} load must be observed");
        }
        assert_eq!(
            observer.starts(StageKind::Analysis),
            1,
            "analysis recomputes"
        );

        // Saving again is a no-op: every cached artifact is fresh.
        let resaved = consumer.save_artifacts(&dir).expect("re-save");
        assert!(resaved.saved.is_empty(), "{resaved:?}");
        assert_eq!(resaved.fresh, vec!["crowd", "crawl", "personas"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_store_round_trip_streams_chunks() {
        let dir = tmp_store("binary-stream");
        let mut producer = Experiment::builder()
            .scenario("smoke")
            .seed(7)
            .build()
            .expect("smoke builds");
        let report = producer.run();
        producer.save_artifacts(&dir).expect("save binary");

        let observer = Arc::new(TimingObserver::new());
        let mut consumer = Experiment::builder()
            .scenario("smoke")
            .seed(7)
            .observer(observer.clone())
            .artifacts(dir.clone())
            .build()
            .expect("smoke builds");
        let reloaded = consumer.run();
        assert_eq!(
            report.to_json(),
            reloaded.to_json(),
            "streamed binary chunks must reproduce the report byte-for-byte"
        );
        for kind in [StageKind::Crowd, StageKind::Crawl, StageKind::Personas] {
            assert_eq!(observer.starts(kind), 0, "{kind} must come from disk");
            assert_eq!(observer.loads(kind), 1, "{kind} load must be observed");
        }
        assert_eq!(observer.starts(StageKind::Build), 0, "no stage computes");
        let chunks = counter_total(&observer, "frames_chunks_loaded");
        assert!(
            chunks > 0,
            "analysis must stream domain chunks instead of whole payloads"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_store_forces_recompute() {
        let dir = tmp_store("stale");
        let mut producer = Experiment::builder()
            .scenario("smoke")
            .seed(7)
            .build()
            .expect("smoke builds");
        producer.crowd();
        producer.save_artifacts(&dir).expect("save");

        let observer = Arc::new(TimingObserver::new());
        let mut consumer = Experiment::builder()
            .scenario("smoke")
            .seed(8) // different seed → different fingerprint
            .observer(observer.clone())
            .artifacts(dir.clone())
            .build()
            .expect("smoke builds");
        consumer.crowd();
        assert_eq!(observer.loads(StageKind::Crowd), 0, "stale must not load");
        assert_eq!(observer.starts(StageKind::Crowd), 1, "stale must recompute");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_refuses_to_clobber_another_plans_store() {
        let dir = tmp_store("clobber");
        let mut seed7 = Experiment::builder()
            .scenario("smoke")
            .seed(7)
            .build()
            .expect("smoke builds");
        seed7.crowd();
        seed7.save_artifacts(&dir).expect("save");

        let mut seed8 = Experiment::builder()
            .scenario("smoke")
            .seed(8)
            .build()
            .expect("smoke builds");
        seed8.crowd();
        assert!(matches!(
            seed8.save_artifacts(&dir),
            Err(crate::store::StoreError::PlanMismatch { .. })
        ));
        // The seed-7 artifacts must have survived the refusal.
        let mut check = Experiment::builder()
            .scenario("smoke")
            .seed(7)
            .build()
            .expect("smoke builds");
        assert!(
            check
                .load_artifacts(&dir)
                .expect("store intact")
                .loaded
                .len()
                == 1
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_analysis_skips_when_already_fresh() {
        let dir = tmp_store("analysis-fresh");
        let mut engine = Experiment::builder()
            .scenario("smoke")
            .seed(7)
            .build()
            .expect("smoke builds");
        let analysis = engine.analyze();
        engine.save_artifacts(&dir).expect("save");
        let first = engine
            .save_analysis(&dir, &analysis)
            .expect("save analysis");
        assert!(dir.join("analysis.bin").is_file());
        // A second save under the same fingerprint must not rewrite.
        std::fs::write(dir.join("analysis.bin"), b"sentinel").expect("scribble");
        let second = engine.save_analysis(&dir, &analysis).expect("fresh skip");
        assert_eq!(first, second, "reported size must be the stored size");
        assert_eq!(
            std::fs::read(dir.join("analysis.bin")).expect("file exists"),
            b"sentinel",
            "a fresh entry must be left untouched"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn provenance_records_the_resolved_profile() {
        // `smoke` pins its base profile, whatever the builder asks for.
        let pinned = Experiment::builder()
            .scenario("smoke")
            .profile(Profile::Small)
            .build()
            .expect("smoke builds");
        assert_eq!(pinned.provenance().profile, "smoke");
        let requested = Experiment::builder()
            .scenario("paper")
            .profile(Profile::Medium)
            .build()
            .expect("paper builds");
        assert_eq!(requested.provenance().profile, "medium");
    }

    #[test]
    fn failed_batched_save_leaves_the_old_store_intact() {
        let dir = tmp_store("failed-batch");
        let smoke = || {
            Experiment::builder()
                .scenario("smoke")
                .seed(7)
                .threads(2)
                .build()
                .expect("smoke builds")
        };
        let mut producer = smoke();
        producer.crowd();
        producer.save_artifacts(&dir).expect("save crowd");
        let manifest = std::fs::read(dir.join(store::MANIFEST_FILE)).expect("manifest");
        let crowd_bin = std::fs::read(dir.join("crowd.bin")).expect("crowd.bin");

        // A directory where the crawl file goes makes its rename fail.
        std::fs::create_dir(dir.join("crawl.bin")).expect("mkdir");
        let mut engine = smoke();
        engine.crowd();
        engine.crawl();
        engine.personas();
        assert!(matches!(
            engine.save_artifacts(&dir),
            Err(StoreError::Io { .. })
        ));
        assert_eq!(
            std::fs::read(dir.join(store::MANIFEST_FILE)).expect("manifest"),
            manifest,
            "a failed batch must not touch the manifest"
        );
        assert_eq!(
            std::fs::read(dir.join("crowd.bin")).expect("crowd"),
            crowd_bin
        );
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .expect("readdir")
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        // The old store still opens and serves its crowd stage.
        let reopened = ArtifactStore::open(&dir).expect("open");
        assert_eq!(reopened.entry("crawl"), None);
        reopened
            .open_chunked("crowd", store::crowd_fingerprint(engine.plan()))
            .expect("crowd still loads");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Fills the first row chunk of `section` in `dir/<stage>.bin` with
    /// bytes that do not decode and re-checksums it, so the file still
    /// opens and the chunk fails only when it is read.
    fn rot_first_chunk(dir: &Path, stage: &str, section: &str) {
        use serde::Value;
        let path = dir.join(format!("{stage}.bin"));
        let mut file = std::fs::read(&path).expect("stage file");
        let header_len = u32::from_le_bytes(file[4..8].try_into().expect("4 bytes")) as usize;
        let base = 8 + header_len;
        let mut header: Value = crate::binfmt::decode_one(&file[8..base]).expect("header");
        let Value::Object(map) = &mut header else {
            panic!("header is an object");
        };
        let Some(Value::Array(chunks)) = map.get_mut("chunks") else {
            panic!("header has a chunk index");
        };
        let chunk = chunks
            .iter_mut()
            .find_map(|c| match c {
                Value::Object(c) if c.get("section").and_then(Value::as_str) == Some(section) => {
                    Some(c)
                }
                _ => None,
            })
            .expect("a row chunk of the section");
        let field = |key: &str| chunk.get(key).and_then(Value::as_u64).expect("u64 field") as usize;
        let (start, len) = (base + field("offset"), field("len"));
        file[start..start + len].fill(0xff);
        let checksum = format!("{:016x}", store::fnv1a64(&file[start..start + len]));
        chunk.insert("checksum".to_owned(), Value::String(checksum));
        let encoded = crate::binfmt::encode_one(&header);
        assert_eq!(encoded.len(), header_len, "the header keeps its length");
        file[8..base].copy_from_slice(&encoded);
        std::fs::write(&path, file).expect("rewrite");
    }

    #[test]
    fn rows_that_fail_to_decode_mid_analysis_are_recomputed() {
        let dir = tmp_store("rotted-chunk");
        let smoke = || Experiment::builder().scenario("smoke").seed(7);
        let mut producer = smoke().build().expect("smoke builds");
        let reference = producer.run().to_json();
        producer.save_artifacts(&dir).expect("save");
        rot_first_chunk(&dir, "crawl", "store");
        let fp = store::crawl_fingerprint(producer.plan());
        let payload = ArtifactStore::open(&dir)
            .expect("store opens")
            .open_chunked("crawl", fp)
            .expect("checksums still pass");
        let first = payload.chunk_names("store")[0].to_owned();
        assert!(payload
            .read_chunk_rows::<pd_sheriff::Measurement>("store", &first)
            .is_err());

        let observer = Arc::new(TimingObserver::new());
        let mut consumer = smoke()
            .observer(observer.clone())
            .artifacts(dir.clone())
            .build()
            .expect("smoke builds");
        assert_eq!(consumer.run().to_json(), reference);
        // Both stored stages opened once; the crowd's rows were then
        // assembled whole, and the crawl was recomputed.
        let load_order = [StageKind::Personas, StageKind::Crowd, StageKind::Crawl];
        assert_eq!(consumer.loaded_stages(), load_order.as_slice());
        assert_eq!(observer.starts(StageKind::Crowd), 0);
        assert_eq!(observer.starts(StageKind::Crawl), 1);
        assert!(matches!(consumer.crowd, Some(Slot::Memory(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_artifacts_reports_per_stage_outcomes() {
        let dir = tmp_store("outcomes");
        let mut producer = Experiment::builder()
            .scenario("smoke")
            .seed(7)
            .build()
            .expect("smoke builds");
        producer.crowd();
        producer.save_artifacts(&dir).expect("save crowd only");

        let mut same_plan = Experiment::builder()
            .scenario("smoke")
            .seed(7)
            .build()
            .expect("smoke builds");
        let summary = same_plan.load_artifacts(&dir).expect("store opens");
        assert_eq!(summary.loaded, vec![StageKind::Crowd]);
        assert_eq!(summary.missing, vec![StageKind::Crawl, StageKind::Personas]);
        assert!(!summary.complete());

        let mut other_plan = Experiment::builder()
            .scenario("smoke")
            .seed(9)
            .build()
            .expect("smoke builds");
        let summary = other_plan.load_artifacts(&dir).expect("store opens");
        assert_eq!(summary.stale, vec![StageKind::Crowd]);
        assert!(summary.loaded.is_empty());

        assert!(matches!(
            other_plan.load_artifacts(&tmp_store("not-a-store")),
            Err(crate::store::StoreError::NoManifest { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn engine_caches_stage_artifacts() {
        let mut engine = Experiment::builder()
            .scenario("paper")
            .profile(Profile::Smoke)
            .build()
            .unwrap();
        let first_len = engine.crowd().raw.len();
        // Second call must hand back the same artifact without rerunning.
        assert_eq!(engine.crowd().raw.len(), first_len);
    }

    const MEASURED: [StageKind; 3] = [StageKind::Crowd, StageKind::Crawl, StageKind::Personas];

    /// A smoke engine for `config` on the shared stage memo `memo`.
    fn memo_engine(
        config: ExperimentConfig,
        memo: &Arc<StoreCache>,
        observer: Arc<TimingObserver>,
    ) -> Engine {
        Experiment::builder()
            .scenario("smoke")
            .config(config)
            .observer(observer)
            .store_cache(Arc::clone(memo))
            .build()
            .expect("smoke builds")
    }

    #[test]
    fn memo_keeps_computed_artifacts_on_their_second_request() {
        let memo = Arc::new(StoreCache::new());
        let mut first = memo_engine(
            ExperimentConfig::smoke(7),
            &memo,
            Arc::new(TimingObserver::new()),
        );
        let reference = first.run().to_json();
        assert!(first.loaded_stages().is_empty(), "nothing to hit yet");
        assert!(memo.is_empty(), "a first request keeps no artifact");

        let mut second = memo_engine(
            ExperimentConfig::smoke(7),
            &memo,
            Arc::new(TimingObserver::new()),
        );
        assert_eq!(second.run().to_json(), reference);
        assert!(
            second.loaded_stages().is_empty(),
            "the second request computes"
        );
        assert_eq!(memo.len(), 3, "…and keeps all three measurement artifacts");

        let observer = Arc::new(TimingObserver::new());
        let mut third = memo_engine(ExperimentConfig::smoke(7), &memo, observer.clone());
        assert_eq!(
            third.run().to_json(),
            reference,
            "a hit reports the same bytes"
        );
        for kind in MEASURED {
            assert_eq!(observer.starts(kind), 0, "{kind} must come from the memo");
            assert_eq!(observer.loads(kind), 1, "{kind} hit must be observed");
        }
        assert_eq!(
            observer.starts(StageKind::Build),
            0,
            "a memo hit on every stage builds no world"
        );
        let fp = |kind| {
            store::measurement_fingerprint(kind, third.plan())
                .expect("measurement stage")
                .as_u64()
        };
        let crowd = memo
            .get::<CrowdArtifact>(StageKind::Crowd, fp(StageKind::Crowd))
            .expect("resident crowd");
        assert!(matches!(&third.crowd, Some(Slot::Memory(held)) if Arc::ptr_eq(&crowd, held)));
        let crawl = memo
            .get::<CrawlArtifact>(StageKind::Crawl, fp(StageKind::Crawl))
            .expect("resident crawl");
        assert!(matches!(&third.crawl, Some(Slot::Memory(held)) if Arc::ptr_eq(&crawl, held)));
        assert_eq!(memo.len(), 3, "hits admit nothing new");
    }

    /// One counter summed over every stage `observer` recorded.
    fn counter_total(observer: &TimingObserver, name: &str) -> u64 {
        observer
            .timings()
            .iter()
            .flat_map(|t| t.counters.iter())
            .filter(|(counter, _)| counter == name)
            .map(|(_, value)| *value)
            .sum()
    }

    #[test]
    fn a_second_engine_on_one_memo_reuses_every_frame() {
        let memo = Arc::new(StoreCache::new());
        let first = Arc::new(TimingObserver::new());
        let reference = memo_engine(ExperimentConfig::smoke(7), &memo, first.clone())
            .run()
            .to_json();
        assert!(counter_total(&first, "frames_built") > 0);

        let second = Arc::new(TimingObserver::new());
        let report = memo_engine(ExperimentConfig::smoke(7), &memo, second.clone())
            .run()
            .to_json();
        assert_eq!(report, reference, "warm frames report the same bytes");
        assert_eq!(counter_total(&second, "frames_built"), 0);
        assert!(counter_total(&second, "frames_reused") > 0);
    }

    #[test]
    fn memo_keeps_loaded_artifacts_on_first_load() {
        let dir = tmp_store("memo-loaded");
        let mut producer = Experiment::builder()
            .scenario("smoke")
            .seed(7)
            .build()
            .expect("smoke builds");
        let reference = producer.run().to_json();
        producer.save_artifacts(&dir).expect("save");
        assert!(producer.store_cache().is_empty(), "one run keeps nothing");

        let memo = Arc::new(StoreCache::new());
        let build = || {
            Experiment::builder()
                .scenario("smoke")
                .seed(7)
                .artifacts(dir.clone())
                .store_cache(Arc::clone(&memo))
                .build()
                .expect("smoke builds")
        };
        let mut loader = build();
        assert_eq!(loader.run().to_json(), reference);
        // `analyze` resolves personas before the heavy stages, and
        // streams those off disk: only the whole persona load is kept.
        let load_order = [StageKind::Personas, StageKind::Crowd, StageKind::Crawl];
        assert_eq!(loader.loaded_stages(), load_order.as_slice());
        assert_eq!(memo.len(), 1, "streamed stages stay on disk");
        // Whole-payload loads of the heavy stages are kept at once too.
        let mut whole = build();
        whole.crowd();
        whole.crawl();
        assert_eq!(whole.loaded_stages(), &load_order[1..]);
        assert_eq!(memo.len(), 3, "loads are kept at once");
        // The next engine hits the memo without opening the store.
        std::fs::remove_dir_all(&dir).ok();
        let mut warm = build();
        assert_eq!(warm.run().to_json(), reference);
        assert_eq!(warm.loaded_stages(), load_order.as_slice());
    }

    #[test]
    fn memo_entries_never_cross_a_world_knob() {
        let memo = Arc::new(StoreCache::new());
        let base = ExperimentConfig::smoke(7);
        let mut knob = base.clone();
        knob.filler_domains += 1;
        for _ in 0..2 {
            memo_engine(base.clone(), &memo, Arc::new(TimingObserver::new())).run();
        }
        assert_eq!(memo.len(), 3);
        let mut other = memo_engine(knob.clone(), &memo, Arc::new(TimingObserver::new()));
        let other_report = other.run().to_json();
        assert!(other.loaded_stages().is_empty(), "another world computes");
        let mut again = memo_engine(knob, &memo, Arc::new(TimingObserver::new()));
        assert_eq!(again.run().to_json(), other_report);
        assert!(again.loaded_stages().is_empty());
        assert_eq!(memo.len(), 6, "each plan keeps its own entries");
    }

    #[test]
    fn default_built_engines_own_their_memo() {
        let memo = Arc::new(StoreCache::new());
        for _ in 0..2 {
            memo_engine(
                ExperimentConfig::smoke(7),
                &memo,
                Arc::new(TimingObserver::new()),
            )
            .run();
        }
        assert_eq!(memo.len(), 3);
        let mut private = Experiment::builder()
            .scenario("smoke")
            .config(ExperimentConfig::smoke(7))
            .build()
            .expect("smoke builds");
        assert!(!Arc::ptr_eq(private.store_cache(), &memo));
        private.run();
        assert!(
            private.loaded_stages().is_empty(),
            "no other builder's entries"
        );
        assert!(private.store_cache().is_empty());
    }

    /// Analysis takes the web probes from the persona artifact: a marker
    /// planted in the engine's persona slot reaches the report. At
    /// another product count the record is ignored and analysis probes.
    #[test]
    fn analysis_reads_the_stored_probe_record() {
        let mut engine = Experiment::builder()
            .scenario("smoke")
            .seed(7)
            .build()
            .expect("smoke builds");
        let mut personas = engine.personas().clone();
        let record = personas.probes.as_mut().expect("the persona stage probes");
        let mut marker = record.attribution[0].clone();
        marker.domain = "marker.example".to_owned();
        record.attribution.push(marker.clone());
        record.third_party.scanned = 999;
        engine.personas = Some(Slot::Memory(Arc::new(personas)));
        let report = engine.run();
        assert_eq!(report.attribution.last(), Some(&marker));
        assert_eq!(report.third_party.scanned, 999);

        engine.plan.config.analysis.attribution_products += 1;
        let reprobed = engine.run();
        assert!(reprobed
            .attribution
            .iter()
            .all(|a| a.domain != marker.domain));
        assert_ne!(reprobed.third_party.scanned, 999);
    }
}
