//! # pd-core — crowd-assisted search for price discrimination
//!
//! The public pipeline API of the reproduction of Mikians et al.,
//! *"Crowd-assisted Search for Price Discrimination in E-Commerce: First
//! results"* (CoNEXT 2013). The paper's study is a four-stage funnel, and
//! so is this crate:
//!
//! 1. **Build a world** — simulated retailers with ground-truth pricing
//!    strategies, a 14-probe vantage fleet, and a crowd of $heriff users
//!    ([`World::build`]).
//! 2. **Crowd phase** — the crowd checks prices on ~600 domains; the
//!    noisy dataset is cleaned ([`stage::crowd_stage`] →
//!    [`stage::CrowdArtifact`]).
//! 3. **Crawl phase** — the flagged retailers are crawled daily for a
//!    week, ≤100 products each, from every vantage point
//!    ([`stage::crawl_stage`] → [`stage::CrawlArtifact`]).
//! 4. **Analysis** — every figure and table of the paper's evaluation is
//!    recomputed ([`Engine::analyze`] → [`report::Report`]).
//!
//! The engine is **scenario-driven and data-driven**: workloads are
//! declarative [`ScenarioSpec`] values (base profile + typed
//! [`ConfigPatch`] overrides + cross-product [`SweepAxis`] sweeps) in a
//! [`ScenarioRegistry`] (`paper`, `smoke`, `desync-ablation`,
//! `no-cleaning`, `vantage-subset`, `seed-sweep`, `locale-sweep`,
//! `crowd-sweep`, `failure-sweep`, `targeted-crawl`), lowered to run
//! plans and built through [`ExperimentBuilder`] into an
//! artifact-caching [`Engine`]. New campaigns are JSON files
//! (`pd run --spec`), not new code.
//! Parallel sections run on the deterministic [`Executor`]: the report
//! is **byte-identical at any thread count**. Progress and perf
//! telemetry are recorded into one [`TimingObserver`].
//!
//! Artifacts also **persist across processes**: the [`store`] module
//! writes each stage artifact as a versioned, fingerprinted, chunked
//! binary file under a directory ([`store::ArtifactStore`]) that
//! analysis streams domain by domain — and an engine built with
//! [`ExperimentBuilder::artifacts`] checks that store before computing —
//! the paper's "measure once, analyze many ways" methodology, on disk.
//! See `docs/ARCHITECTURE.md` for the full lifecycle.
//!
//! ## Quickstart
//!
//! ```
//! use pd_core::{Experiment, Profile};
//!
//! // Scenario-driven: pick a registered workload, scale and thread count.
//! let mut engine = Experiment::builder()
//!     .scenario("paper")
//!     .profile(Profile::Smoke) // Small/Medium/Paper for real runs
//!     .threads(2)
//!     .build()
//!     .expect("registered scenario");
//! let report = engine.run();
//! assert!(report.summary.crowd_requests > 0);
//! println!("{}", report.render_fig1());
//! ```
//!
//! An engine can also be built straight from a [`RunPlan`]
//! ([`Engine::from_plan`]); the `paper` scenario is the default plan of
//! its profile, so both give the identical report (guarded by
//! `pipeline::tests::default_plan_equals_builder_paper_scenario`). A
//! single stage can be recomputed on its own through the [`stage`]
//! functions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binfmt;
pub mod config;
pub mod executor;
pub mod frames;
pub mod observer;
pub mod pipeline;
pub mod report;
pub mod scenario;
pub mod spec;
pub mod stage;
pub mod store;
pub mod world;

pub use config::{AnalysisConfig, ExperimentConfig, WorldConfig};
pub use executor::Executor;
pub use frames::{FrameStats, StoreCache, StoreFrame};
pub use observer::{StageKind, StageTiming, TimingObserver};
pub use pipeline::{
    BuildError, Engine, Experiment, ExperimentBuilder, LoadSummary, SaveSummary, SweepArmRun,
};
pub use report::{reports_to_json, Report};
pub use scenario::{suggest_name, Profile, RunPlan, ScenarioParams, ScenarioRegistry, ScenarioRun};
pub use spec::{
    find_spec_file, load_spec, spec_names_on_path, spec_search_dirs, ConfigPatch, ScenarioSpec,
    SpecError, SweepAxis, SPEC_PATH_ENV,
};
pub use stage::{AnalysisArtifact, CrawlArtifact, CrowdArtifact, PersonaArtifact};
pub use store::{
    ArtifactStore, ChunkedPayload, Fingerprint, Provenance, StageWrite, StoreError, StoreFormat,
    SCHEMA_VERSION,
};
pub use world::{AnalysisContext, World};

// Re-export the component crates so downstream users need one dependency.
pub use pd_analysis as analysis;
pub use pd_crawler as crawler;
pub use pd_currency as currency;
pub use pd_extract as extract;
pub use pd_html as html;
pub use pd_net as net;
pub use pd_pricing as pricing;
pub use pd_sheriff as sheriff;
pub use pd_util as util;
pub use pd_web as web;
