//! The on-disk artifact store: crawl once, re-analyze forever.
//!
//! The paper's methodology is "measure once, analyze many ways": one
//! months-long crowd + crawl dataset feeds every figure of the
//! evaluation. This module gives the engine the same property across
//! process lifetimes. Each stage artifact ([`crate::CrowdArtifact`],
//! [`crate::CrawlArtifact`], [`crate::PersonaArtifact`],
//! [`crate::AnalysisArtifact`]) is written under a directory as one
//! versioned, checksummed binary file (`<stage>.bin`): framed rows in
//! domain-partitioned chunks behind a chunk index, so analysis can
//! stream a single domain without decoding the whole payload. A
//! `manifest.json` records provenance: which scenario produced the
//! store, at which seed, profile and thread count, under which
//! [`RunPlan`], and with which upstream fingerprints. `pd artifacts cat`
//! prints a stored stage as JSON for inspection.
//!
//! ## Fingerprints, not file names
//!
//! An artifact is only ever trusted if its **fingerprint** matches the
//! plan asking for it. A [`Fingerprint`] is a stable 64-bit FNV-1a hash
//! over the canonical JSON of everything the producing stage depends on:
//! the schema version, the stage name, the [`ExperimentConfig`] (minus
//! the analysis-only section for measurement stages), and the plan's
//! engine knobs (desync skew, cleaning, vantage subset). The analysis
//! fingerprint additionally chains the three upstream measurement
//! fingerprints. File names are just locators; a renamed, stale or
//! hand-edited file fails its fingerprint check and the stage recomputes.
//!
//! Because measurement fingerprints exclude [`ExperimentConfig::analysis`],
//! a stored crawl stays valid when only figure parameters change — which
//! is exactly what `pd rerun` exploits to re-analyze without re-measuring.
//!
//! ## Example
//!
//! ```
//! use pd_core::store::{self, ArtifactStore, Provenance};
//! use pd_core::{CrawlArtifact, RunPlan, ExperimentConfig, StageKind};
//!
//! let dir = std::env::temp_dir().join(format!("pd-store-doc-{}", std::process::id()));
//! let plan = RunPlan::new(ExperimentConfig::smoke(7));
//! let mut s = ArtifactStore::create(&dir, Provenance::new("smoke", "", "smoke", 7, 1), &plan, None)
//!     .expect("store creates");
//!
//! // Save an (empty) crawl artifact under its plan fingerprint...
//! let fp = store::crawl_fingerprint(&plan);
//! let art = CrawlArtifact { store: pd_sheriff::MeasurementStore::new(), stats: vec![] };
//! s.save(StageKind::Crawl.as_str(), fp, &[], &art).expect("saves");
//!
//! // ...and it only loads back under the *same* plan.
//! let reopened = ArtifactStore::open(&dir).expect("store opens");
//! assert!(reopened.load::<CrawlArtifact>("crawl", fp).is_ok());
//! let other = store::crawl_fingerprint(&RunPlan::new(ExperimentConfig::smoke(8)));
//! assert!(reopened.load::<CrawlArtifact>("crawl", other).is_err());
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use crate::binfmt;
use crate::config::ExperimentConfig;
use crate::executor::Executor;
use crate::observer::StageKind;
use crate::scenario::RunPlan;
use crate::spec::ScenarioSpec;
use pd_sheriff::MeasurementStore;
use serde::{Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// On-disk schema version. Bump whenever an artifact's serialized shape
/// changes; every manifest and binary header records it, and a version
/// this build cannot read is a hard rejection (never a silent misparse).
///
/// v2: `ExperimentConfig` grew the `world` section (failure injection),
/// `RunPlan` grew `targets_from_crowd`, and the manifest records the
/// producing [`ScenarioSpec`].
///
/// v3: payloads moved to the chunked binary layout (`<stage>.bin`,
/// magic `PDB3`) and manifest entries record a format tag and chunk
/// count. The *artifact shapes* did not change, so fingerprints stayed
/// valid (the fingerprint basis carries its own schema revision,
/// `FINGERPRINT_SCHEMA`, which did not move). v3 is the only layout this
/// build reads: [`ArtifactStore::open`] refuses an older one with
/// [`StoreError::OlderLayout`].
pub const SCHEMA_VERSION: u32 = 3;

/// The schema revision folded into every fingerprint basis. This is
/// *not* bumped in lockstep with [`SCHEMA_VERSION`]: a container-level
/// change (v2→v3 added a payload encoding, not new artifact semantics)
/// must not invalidate every previously measured store. Bump this only
/// when the meaning of a stored artifact changes.
const FINGERPRINT_SCHEMA: u32 = 2;

/// The manifest file name inside a store directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// A stable 64-bit digest of everything a stage's output depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// The raw 64-bit digest.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Parses the 16-hex-digit form produced by [`Display`](fmt::Display).
    #[must_use]
    pub fn parse(s: &str) -> Option<Fingerprint> {
        (s.len() == 16)
            .then(|| u64::from_str_radix(s, 16).ok())
            .flatten()
            .map(Fingerprint)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// FNV-1a over a byte string (the same construction the vendored
/// proptest uses for test seeds; stable across platforms and runs).
/// Also the digest behind [`ScenarioSpec::fingerprint`].
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The payload layout tag every manifest entry records. The chunked
/// binary layout (`<stage>.bin`) is the only one: framed rows in
/// domain-partitioned chunks behind a chunk index, so a single domain
/// loads without deserializing the whole payload. The tag is kept so
/// manifests stay readable by builds that also knew other layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFormat {
    /// Length-prefixed framed-rows binary envelope with a chunk index.
    Binary,
}

impl StoreFormat {
    /// The manifest spelling (`binary`).
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            StoreFormat::Binary => "binary",
        }
    }
}

impl Serialize for StoreFormat {
    fn serialize(&self) -> Value {
        Value::String(self.as_str().to_owned())
    }
}

impl Deserialize for StoreFormat {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        match v.as_str() {
            Some("binary") => Ok(StoreFormat::Binary),
            Some(s) => Err(serde::Error::unknown_variant(s, "StoreFormat")),
            None => Err(serde::Error::expected("string", "StoreFormat")),
        }
    }
}

/// A stage artifact the store can persist: its serde shape, plus the
/// measurement row sections the binary format splits into one chunk per
/// domain (so analysis can stream a single retailer's rows).
///
/// The binary meta chunk is [`hollow`](Self::hollow): the artifact with
/// every section emptied. Artifacts without sections (the default) are
/// stored whole in the meta chunk, and so is a raw [`Value`] payload.
pub trait Artifact: Serialize + Deserialize + Clone {
    /// Section names, in the order their chunks are laid out.
    const SECTIONS: &'static [&'static str] = &[];

    /// A section's rows (`None` for a name not in [`Self::SECTIONS`]).
    fn section(&self, _name: &str) -> Option<&MeasurementStore> {
        None
    }

    /// Mutable access to a section, for splicing decoded rows back.
    fn section_mut(&mut self, _name: &str) -> Option<&mut MeasurementStore> {
        None
    }

    /// The artifact with every section empty.
    fn hollow(&self) -> Cow<'_, Self> {
        Cow::Borrowed(self)
    }
}

impl Artifact for Value {}

/// The canonical fingerprint basis of a plan: config (optionally with
/// the analysis-only section removed), engine knobs, schema version.
fn basis_value(plan: &RunPlan, include_analysis: bool) -> Value {
    let mut config = serde_json::to_value(&plan.config);
    if !include_analysis {
        if let Value::Object(map) = &mut config {
            map.remove("analysis");
        }
    }
    let mut m = serde::Map::new();
    m.insert(
        "schema".to_owned(),
        serde_json::to_value(&FINGERPRINT_SCHEMA),
    );
    m.insert("config".to_owned(), config);
    m.insert(
        "desync_ms".to_owned(),
        serde_json::to_value(&plan.desync.as_millis()),
    );
    m.insert("cleaning".to_owned(), serde_json::to_value(&plan.cleaning));
    m.insert(
        "vantage_labels".to_owned(),
        serde_json::to_value(&plan.vantage_labels),
    );
    m.insert(
        "targets_from_crowd".to_owned(),
        serde_json::to_value(&plan.targets_from_crowd),
    );
    Value::Object(m)
}

fn fingerprint_of(stage: &str, basis: &Value, upstream: &[Fingerprint]) -> Fingerprint {
    let mut m = serde::Map::new();
    m.insert("stage".to_owned(), Value::String(stage.to_owned()));
    m.insert("basis".to_owned(), basis.clone());
    m.insert(
        "upstream".to_owned(),
        Value::Array(
            upstream
                .iter()
                .map(|fp| Value::String(fp.to_string()))
                .collect(),
        ),
    );
    let text = serde_json::to_string(&Value::Object(m)).expect("value serializes");
    Fingerprint(fnv1a64(text.as_bytes()))
}

/// The crowd-stage fingerprint of a plan.
///
/// Measurement fingerprints are deliberately conservative: they cover
/// the full configuration except the analysis-only section, so any
/// change that *could* reshape the measured world invalidates the
/// artifact, while figure-parameter changes never do.
#[must_use]
pub fn crowd_fingerprint(plan: &RunPlan) -> Fingerprint {
    fingerprint_of(StageKind::Crowd.as_str(), &basis_value(plan, false), &[])
}

/// The crawl-stage fingerprint of a plan (same conservative basis).
#[must_use]
pub fn crawl_fingerprint(plan: &RunPlan) -> Fingerprint {
    fingerprint_of(StageKind::Crawl.as_str(), &basis_value(plan, false), &[])
}

/// The persona-stage fingerprint of a plan (same conservative basis).
#[must_use]
pub fn personas_fingerprint(plan: &RunPlan) -> Fingerprint {
    fingerprint_of(StageKind::Personas.as_str(), &basis_value(plan, false), &[])
}

/// The analysis fingerprint: the full config (including the analysis
/// knobs) chained with the three upstream measurement fingerprints.
#[must_use]
pub fn analysis_fingerprint(plan: &RunPlan) -> Fingerprint {
    let upstream = [
        crowd_fingerprint(plan),
        crawl_fingerprint(plan),
        personas_fingerprint(plan),
    ];
    fingerprint_of(
        StageKind::Analysis.as_str(),
        &basis_value(plan, true),
        &upstream,
    )
}

/// The fingerprint of a measurement stage, by kind. Returns `None` for
/// stages the store does not persist standalone ([`StageKind::Build`])
/// or whose fingerprint chains upstreams ([`StageKind::Analysis`] — use
/// [`analysis_fingerprint`]).
#[must_use]
pub fn measurement_fingerprint(stage: StageKind, plan: &RunPlan) -> Option<Fingerprint> {
    match stage {
        StageKind::Crowd => Some(crowd_fingerprint(plan)),
        StageKind::Crawl => Some(crawl_fingerprint(plan)),
        StageKind::Personas => Some(personas_fingerprint(plan)),
        StageKind::Build | StageKind::Analysis => None,
    }
}

/// Why a store operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem failure (create, read, write, rename).
    Io {
        /// The path involved.
        path: String,
        /// The OS error text.
        detail: String,
    },
    /// The directory has no `manifest.json` — it is not an artifact store.
    NoManifest {
        /// The directory probed.
        dir: String,
    },
    /// A file exists but cannot be parsed, or contradicts the manifest.
    Corrupt {
        /// The offending file.
        path: String,
        /// What went wrong.
        detail: String,
    },
    /// The file was written by a newer on-disk schema version.
    SchemaMismatch {
        /// The offending file.
        path: String,
        /// The version found on disk (ours is [`SCHEMA_VERSION`]).
        found: u32,
    },
    /// The stored artifact's fingerprint does not match the requesting
    /// plan — the artifact was produced under a different configuration.
    StaleFingerprint {
        /// The stage asked for.
        stage: String,
        /// The fingerprint the current plan requires.
        expected: String,
        /// The fingerprint found in the store.
        found: String,
    },
    /// The manifest has no entry for the requested stage.
    MissingStage {
        /// The stage asked for.
        stage: String,
    },
    /// The directory already holds artifacts produced by a different
    /// run plan; writing would destroy them, so the save refuses.
    PlanMismatch {
        /// The store directory.
        dir: String,
    },
    /// The store was written in an older layout this build no longer
    /// reads: a schema-v2 manifest, or an entry stored as JSON (or with
    /// no format tag). Re-measuring into a fresh store recovers.
    OlderLayout {
        /// The store directory.
        dir: String,
        /// The first stage the manifest lists in the older layout
        /// (`None` for an older manifest with no entries).
        stage: Option<String>,
        /// What is old about it.
        reason: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, detail } => write!(f, "artifact store I/O on {path}: {detail}"),
            StoreError::NoManifest { dir } => {
                write!(f, "{dir} is not an artifact store (no {MANIFEST_FILE})")
            }
            StoreError::Corrupt { path, detail } => {
                write!(f, "corrupt artifact file {path}: {detail}")
            }
            StoreError::SchemaMismatch { path, found } => write!(
                f,
                "{path} uses on-disk schema v{found}, this build reads v{SCHEMA_VERSION}"
            ),
            StoreError::StaleFingerprint {
                stage,
                expected,
                found,
            } => write!(
                f,
                "stale {stage} artifact: plan requires fingerprint {expected}, store has {found}"
            ),
            StoreError::MissingStage { stage } => {
                write!(f, "artifact store has no {stage} artifact")
            }
            StoreError::PlanMismatch { dir } => write!(
                f,
                "{dir} holds artifacts from a different run plan; refusing to overwrite \
                 (inspect with `pd artifacts ls {dir}`, or choose another directory)"
            ),
            StoreError::OlderLayout { dir, stage, reason } => {
                let stage = stage
                    .as_deref()
                    .map_or_else(String::new, |s| format!(" (stage {s})"));
                write!(
                    f,
                    "{dir} is an older artifact store{stage}: {reason}; this build reads only \
                     binary schema-v{SCHEMA_VERSION} stores (remove the directory, or pass \
                     --overwrite-artifacts to `pd run` to replace it)"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(path: &Path, e: &std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// Who produced a store: the scenario, variant label, profile, seed and
/// thread count of the run (descriptive only — the fingerprints, not the
/// provenance, decide reuse).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Provenance {
    /// Registry name of the scenario (`"custom"` for raw-config runs).
    pub scenario: String,
    /// Sweep-arm label (empty for single runs).
    pub label: String,
    /// Profile flag spelling (`smoke`/`small`/`medium`/`paper`).
    pub profile: String,
    /// Root seed of the run.
    pub seed: u64,
    /// Worker threads the producing run used (reports are identical at
    /// any thread count; recorded for performance archaeology).
    pub threads: u64,
    /// Unix milliseconds when the store was created.
    pub created_unix_ms: u64,
}

impl Provenance {
    /// A provenance record stamped with the current wall-clock time.
    #[must_use]
    pub fn new(scenario: &str, label: &str, profile: &str, seed: u64, threads: usize) -> Self {
        let created_unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
        Provenance {
            scenario: scenario.to_owned(),
            label: label.to_owned(),
            profile: profile.to_owned(),
            seed,
            threads: threads as u64,
            created_unix_ms,
        }
    }
}

/// The serialized form of a [`RunPlan`] (the manifest must be able to
/// reconstruct the exact producing plan for `pd rerun`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanRecord {
    /// The experiment configuration.
    pub config: ExperimentConfig,
    /// Fan-out desynchronization skew, in simulated milliseconds.
    pub desync_ms: u64,
    /// Whether the Sec. 3.2 cleaning pass ran.
    pub cleaning: bool,
    /// The vantage subset, if the plan restricted the fleet.
    pub vantage_labels: Option<Vec<String>>,
    /// The minimum confirmed-variation count when the plan crawled
    /// crowd-ranked targets instead of the paper's list.
    pub targets_from_crowd: Option<usize>,
}

impl PlanRecord {
    /// Records a plan.
    #[must_use]
    pub fn from_plan(plan: &RunPlan) -> Self {
        PlanRecord {
            config: plan.config.clone(),
            desync_ms: plan.desync.as_millis(),
            cleaning: plan.cleaning,
            vantage_labels: plan.vantage_labels.clone(),
            targets_from_crowd: plan.targets_from_crowd,
        }
    }

    /// Reconstructs the plan.
    #[must_use]
    pub fn to_plan(&self) -> RunPlan {
        RunPlan {
            config: self.config.clone(),
            desync: pd_net::clock::SimDuration::from_millis(self.desync_ms),
            cleaning: self.cleaning,
            vantage_labels: self.vantage_labels.clone(),
            targets_from_crowd: self.targets_from_crowd,
        }
    }
}

/// One stored artifact, as listed by the manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// Stage name ([`StageKind::as_str`]).
    pub stage: String,
    /// Hex fingerprint the artifact was stored under.
    pub fingerprint: String,
    /// File name inside the store directory (a locator only — the
    /// file header's own fingerprint is what gets trusted).
    pub file: String,
    /// Serialized size in bytes.
    pub bytes: u64,
    /// Size of the chunk region alone (the artifact body without the
    /// header and chunk index).
    pub payload_bytes: u64,
    /// Payload layout of the file (always [`StoreFormat::Binary`]).
    pub format: StoreFormat,
    /// Chunk count (one meta chunk + one row chunk per domain per row
    /// section).
    pub chunks: u32,
    /// Hex fingerprints of the upstream artifacts this one was derived
    /// from (empty for measurement stages).
    pub upstream: Vec<String>,
}

/// The store's index: provenance, the producing plan, and every entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Manifest {
    /// On-disk schema version ([`SCHEMA_VERSION`] at write time).
    pub schema_version: u32,
    /// Who produced the store.
    pub provenance: Provenance,
    /// The exact plan the artifacts were measured under.
    pub plan: PlanRecord,
    /// The declarative spec the run was lowered from, verbatim (`None`
    /// for raw-config runs built without a scenario). Descriptive like
    /// the provenance — the fingerprints decide reuse — but it makes a
    /// store reproducible from its own metadata.
    pub spec: Option<ScenarioSpec>,
    /// Stored artifacts, in save order.
    pub entries: Vec<ManifestEntry>,
}

/// Health of one manifest entry, as reported by [`ArtifactStore::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryHealth {
    /// File present, header and chunk checksums consistent with the
    /// manifest.
    Ok,
    /// The manifest references a file that does not exist.
    MissingFile,
    /// The file exists but is unreadable, fails a checksum, or
    /// contradicts the manifest (wrong stage, fingerprint or schema).
    Corrupt(String),
}

impl fmt::Display for EntryHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntryHealth::Ok => f.write_str("ok"),
            EntryHealth::MissingFile => f.write_str("missing file"),
            EntryHealth::Corrupt(detail) => write!(f, "corrupt: {detail}"),
        }
    }
}

/// A directory of fingerprinted, versioned stage artifacts plus the
/// manifest indexing them. See the [module docs](self) for the model.
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    manifest: Manifest,
}

impl ArtifactStore {
    /// Does `dir` look like a store (i.e. hold a manifest)?
    #[must_use]
    pub fn is_store(dir: &Path) -> bool {
        dir.join(MANIFEST_FILE).is_file()
    }

    /// Creates (or wipes and re-creates) a store at `dir` for the given
    /// producer. The directory is created if missing. No manifest is
    /// written here: the first [`ArtifactStore::save_all`] (an empty
    /// batch included) writes it, replacing any existing one, and
    /// superseded stage files are overwritten lazily as stages save.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created.
    pub fn create(
        dir: &Path,
        provenance: Provenance,
        plan: &RunPlan,
        spec: Option<ScenarioSpec>,
    ) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
        Ok(ArtifactStore {
            dir: dir.to_path_buf(),
            manifest: Manifest {
                schema_version: SCHEMA_VERSION,
                provenance,
                plan: PlanRecord::from_plan(plan),
                spec,
                entries: Vec::new(),
            },
        })
    }

    /// Opens an existing store.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoManifest`] when `dir` has no manifest;
    /// [`StoreError::Corrupt`] when the manifest does not parse;
    /// [`StoreError::OlderLayout`] when it was written in a layout
    /// older than [`SCHEMA_VERSION`] or lists a stage not stored as
    /// binary; [`StoreError::SchemaMismatch`] when a newer build wrote
    /// it; [`StoreError::Io`] on read failure.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        let path = dir.join(MANIFEST_FILE);
        if !path.is_file() {
            return Err(StoreError::NoManifest {
                dir: dir.display().to_string(),
            });
        }
        let text = std::fs::read_to_string(&path).map_err(|e| io_err(&path, &e))?;
        let corrupt = |e: serde::Error| StoreError::Corrupt {
            path: path.display().to_string(),
            detail: e.to_string(),
        };
        let value: Value = serde_json::from_str(&text).map_err(corrupt)?;
        check_layout(dir, &path, &value)?;
        let manifest = Manifest::deserialize(&value).map_err(corrupt)?;
        Ok(ArtifactStore {
            dir: dir.to_path_buf(),
            manifest,
        })
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The manifest (provenance, plan, entries).
    #[must_use]
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The manifest entry for a stage, if one was saved.
    #[must_use]
    pub fn entry(&self, stage: &str) -> Option<&ManifestEntry> {
        self.manifest.entries.iter().find(|e| e.stage == stage)
    }

    /// The manifest entry for `stage` when the store holds it under
    /// `fingerprint`: the entry has that fingerprint and its file is
    /// present. An entry whose file was deleted behind the manifest is
    /// not held (what [`ArtifactStore::verify`] reports as
    /// [`EntryHealth::MissingFile`]), so a save writes it again.
    #[must_use]
    pub fn held(&self, stage: &str, fingerprint: Fingerprint) -> Option<&ManifestEntry> {
        self.entry(stage).filter(|e| {
            e.fingerprint == fingerprint.to_string() && self.dir.join(&e.file).is_file()
        })
    }

    /// Saves an artifact under its fingerprint, replacing any previous
    /// entry for the same stage: [`ArtifactStore::save_all`] with one
    /// stage, on the calling thread. Returns the serialized size in
    /// bytes.
    ///
    /// # Errors
    ///
    /// As for [`ArtifactStore::save_all`].
    pub fn save<T: Artifact + Sync>(
        &mut self,
        stage: &str,
        fingerprint: Fingerprint,
        upstream: &[Fingerprint],
        artifact: &T,
    ) -> Result<u64, StoreError> {
        let write = StageWrite::new(stage, fingerprint, upstream, artifact);
        Ok(self.save_all(&[write], &Executor::serial())?[0])
    }

    /// Saves a batch of stage artifacts, each replacing any previous
    /// entry for its stage, and returns their serialized sizes in batch
    /// order. Every chunk of every file is encoded in one pass across
    /// `exec`, and each file is written to a temp file and fsynced there
    /// too; the bytes do not depend on the thread count. Then the files
    /// are renamed into place, the directory is fsynced once, and the
    /// manifest naming them is written last (temp file, fsync, rename,
    /// directory fsync). So when this returns every file and the
    /// manifest are durable, and the manifest never names a file that
    /// was not fsynced and renamed first.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when a file or the manifest cannot be written.
    /// A failure before the manifest write leaves the manifest on disk as
    /// it was and no temp file behind.
    pub fn save_all(
        &mut self,
        writes: &[StageWrite<'_>],
        exec: &Executor,
    ) -> Result<Vec<u64>, StoreError> {
        let chunks = encode_chunks(writes, exec);
        let dir = &self.dir;
        let staged = exec.map_indexed(writes.len(), |i| {
            let write = &writes[i];
            let (prefix, payload_bytes) = file_prefix(write.stage, write.fingerprint, &chunks[i]);
            let parts: Vec<&[u8]> = std::iter::once(&prefix[..])
                .chain(chunks[i].iter().map(|c| &c.bytes[..]))
                .collect();
            let file = format!("{}.bin", write.stage);
            let path = dir.join(&file);
            let tmp = write_temp(&path, &parts)?;
            let entry = ManifestEntry {
                stage: write.stage.to_owned(),
                fingerprint: write.fingerprint.to_string(),
                file,
                bytes: prefix.len() as u64 + payload_bytes,
                payload_bytes,
                format: StoreFormat::Binary,
                chunks: chunks[i].len() as u32,
                upstream: write.upstream.iter().map(Fingerprint::to_string).collect(),
            };
            Ok(((tmp, path), entry))
        });
        let mut renames = Vec::with_capacity(staged.len());
        let mut entries = Vec::with_capacity(staged.len());
        let mut failed = None;
        for outcome in staged {
            match outcome {
                Ok((rename, entry)) => {
                    renames.push(rename);
                    entries.push(entry);
                }
                Err(e) => failed = failed.or(Some(e)),
            }
        }
        if let Some(e) = failed {
            for (tmp, _) in &renames {
                let _ = std::fs::remove_file(tmp);
            }
            return Err(e);
        }
        publish(&self.dir, &renames)?;
        let sizes = entries.iter().map(|e| e.bytes).collect();
        for entry in entries {
            match self
                .manifest
                .entries
                .iter_mut()
                .find(|e| e.stage == entry.stage)
            {
                Some(existing) => *existing = entry,
                None => self.manifest.entries.push(entry),
            }
        }
        self.write_manifest()?;
        Ok(sizes)
    }

    /// Loads a stage artifact, trusting nothing: the manifest must list
    /// the stage, the manifest's fingerprint and the file header's own
    /// fingerprint must both equal `expected`, the schema version and
    /// every chunk checksum must match, and only then is the payload
    /// decoded.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingStage`] when the manifest has no such stage;
    /// [`StoreError::StaleFingerprint`] when the stored artifact was
    /// produced under a different plan; [`StoreError::SchemaMismatch`],
    /// [`StoreError::Corrupt`] or [`StoreError::Io`] when the file is
    /// unusable.
    pub fn load<T: Artifact>(&self, stage: &str, expected: Fingerprint) -> Result<T, StoreError> {
        self.open_chunked(stage, expected)?.assemble()
    }

    /// Opens a stage entry for chunked reads: the header and every
    /// chunk checksum are validated up front (so corruption is caught
    /// here), but no chunk is *decoded* —
    /// [`ChunkedPayload::read_chunk_rows`] decodes single domains on
    /// demand, which is what lets `pd rerun` re-analyze a store without
    /// materializing whole measurement payloads.
    ///
    /// # Errors
    ///
    /// As for [`load`](Self::load).
    pub fn open_chunked(
        &self,
        stage: &str,
        expected: Fingerprint,
    ) -> Result<ChunkedPayload, StoreError> {
        let entry = self.entry(stage).ok_or_else(|| StoreError::MissingStage {
            stage: stage.to_owned(),
        })?;
        if entry.fingerprint != expected.to_string() {
            return Err(StoreError::StaleFingerprint {
                stage: stage.to_owned(),
                expected: expected.to_string(),
                found: entry.fingerprint.clone(),
            });
        }
        self.open_entry(entry)
    }

    /// Validates and opens an entry's file against its manifest record
    /// (magic, schema, stage, fingerprint, every chunk checksum).
    fn open_entry(&self, entry: &ManifestEntry) -> Result<ChunkedPayload, StoreError> {
        ChunkedPayload::open(
            &self.dir.join(&entry.file),
            &entry.stage,
            &entry.fingerprint,
        )
    }

    /// Checks every manifest entry against its file: existence, header
    /// and chunk checksums, schema version, stage and fingerprint
    /// consistency. Used by `pd artifacts ls` (payload sizes come
    /// straight off the manifest — [`ManifestEntry::payload_bytes`] is
    /// recorded at save time).
    #[must_use]
    pub fn verify(&self) -> Vec<(ManifestEntry, EntryHealth)> {
        self.manifest
            .entries
            .iter()
            .map(|entry| {
                let health = match self.open_entry(entry) {
                    Ok(_) => EntryHealth::Ok,
                    Err(StoreError::Io { .. }) if !self.dir.join(&entry.file).is_file() => {
                        EntryHealth::MissingFile
                    }
                    Err(e) => EntryHealth::Corrupt(e.to_string()),
                };
                (entry.clone(), health)
            })
            .collect()
    }

    fn write_manifest(&self) -> Result<(), StoreError> {
        let path = self.dir.join(MANIFEST_FILE);
        let text = serde_json::to_string_pretty(&self.manifest).expect("manifest serializes");
        let tmp = write_temp(&path, &[text.as_bytes()])?;
        publish(&self.dir, &[(tmp, path)])
    }
}

/// Refuses a manifest this build cannot read, before its typed decode:
/// a newer schema ([`StoreError::SchemaMismatch`]), an older one, or any
/// entry whose format tag is missing or not binary
/// ([`StoreError::OlderLayout`], naming the first such stage). Shapes
/// the typed decode would reject anyway pass through to it.
fn check_layout(dir: &Path, path: &Path, manifest: &Value) -> Result<(), StoreError> {
    let Value::Object(map) = manifest else {
        return Ok(());
    };
    let entries: &[Value] = map
        .get("entries")
        .and_then(Value::as_array)
        .map_or(&[], Vec::as_slice);
    let stage_of = |entry: &Value| {
        let stage = entry.as_object()?.get("stage")?.as_str()?;
        Some(stage.to_owned())
    };
    let older = |stage: Option<String>, reason: String| StoreError::OlderLayout {
        dir: dir.display().to_string(),
        stage,
        reason,
    };
    match map.get("schema_version").and_then(Value::as_u64) {
        Some(v) if v > u64::from(SCHEMA_VERSION) => {
            return Err(StoreError::SchemaMismatch {
                path: path.display().to_string(),
                found: u32::try_from(v).unwrap_or(u32::MAX),
            })
        }
        Some(v) if v < u64::from(SCHEMA_VERSION) => {
            return Err(older(
                entries.first().and_then(stage_of),
                format!("its manifest is schema v{v}"),
            ))
        }
        _ => {}
    }
    for entry in entries {
        let Value::Object(fields) = entry else {
            continue;
        };
        let reason = match fields.get("format").unwrap_or(&Value::Null) {
            Value::String(tag) if tag == StoreFormat::Binary.as_str() => continue,
            Value::String(tag) => format!("it is stored as {tag}"),
            Value::Null => "it has no format tag".to_owned(),
            // Not a tag at all: the typed decode reports it as corrupt.
            _ => continue,
        };
        return Err(older(stage_of(entry), reason));
    }
    Ok(())
}

/// Magic bytes opening every binary artifact file (`<stage>.bin`).
const BIN_MAGIC: [u8; 4] = *b"PDB3";

/// One chunk's entry in the binary file's index: where it lives inside
/// the chunk region and what it holds.
#[derive(Debug, Clone)]
struct ChunkInfo {
    /// Which row section the chunk belongs to (empty for the meta chunk).
    section: String,
    /// The partition key — the domain (empty for the meta chunk).
    name: String,
    /// Byte offset inside the chunk region.
    offset: u64,
    /// Byte length.
    len: u64,
    /// Row count (0 for the meta chunk).
    rows: u64,
    /// FNV-1a64 over the chunk bytes.
    checksum: u64,
}

impl ChunkInfo {
    fn to_value(&self) -> Value {
        let mut m = serde::Map::new();
        m.insert("section".to_owned(), Value::String(self.section.clone()));
        m.insert("name".to_owned(), Value::String(self.name.clone()));
        m.insert("offset".to_owned(), Value::UInt(self.offset));
        m.insert("len".to_owned(), Value::UInt(self.len));
        m.insert("rows".to_owned(), Value::UInt(self.rows));
        m.insert(
            "checksum".to_owned(),
            Value::String(format!("{:016x}", self.checksum)),
        );
        Value::Object(m)
    }

    fn from_value(v: &Value) -> Result<ChunkInfo, String> {
        let map = match v {
            Value::Object(map) => map,
            _ => return Err("chunk index entry is not an object".to_owned()),
        };
        let str_field = |key: &str| {
            map.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("chunk index entry missing string field {key:?}"))
        };
        let u64_field = |key: &str| {
            map.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("chunk index entry missing integer field {key:?}"))
        };
        let checksum_hex = str_field("checksum")?;
        let checksum = (checksum_hex.len() == 16)
            .then(|| u64::from_str_radix(&checksum_hex, 16).ok())
            .flatten()
            .ok_or_else(|| format!("bad chunk checksum {checksum_hex:?}"))?;
        Ok(ChunkInfo {
            section: str_field("section")?,
            name: str_field("name")?,
            offset: u64_field("offset")?,
            len: u64_field("len")?,
            rows: u64_field("rows")?,
            checksum,
        })
    }
}

/// A stage artifact queued for [`ArtifactStore::save_all`]: the stage
/// name and fingerprint it is stored under, its upstream lineage, and
/// the artifact itself.
pub struct StageWrite<'a> {
    stage: &'a str,
    fingerprint: Fingerprint,
    upstream: &'a [Fingerprint],
    artifact: &'a dyn Encode,
}

impl<'a> StageWrite<'a> {
    /// Queues `artifact` under `stage` and `fingerprint`, derived from
    /// the `upstream` fingerprints (empty for measurement stages).
    #[must_use]
    pub fn new<T: Artifact + Sync>(
        stage: &'a str,
        fingerprint: Fingerprint,
        upstream: &'a [Fingerprint],
        artifact: &'a T,
    ) -> Self {
        StageWrite {
            stage,
            fingerprint,
            upstream,
            artifact,
        }
    }
}

/// What the binary encoder reads of an artifact, without its type, so
/// one batch can hold different stages.
trait Encode: Sync {
    /// The encoded meta chunk: the [`Artifact::hollow`] artifact.
    fn meta_chunk(&self) -> Vec<u8>;
    /// The row sections present, in [`Artifact::SECTIONS`] order.
    fn row_sections(&self) -> Vec<(&'static str, &MeasurementStore)>;
}

impl<T: Artifact + Sync> Encode for T {
    fn meta_chunk(&self) -> Vec<u8> {
        binfmt::encode_one(&*self.hollow())
    }

    fn row_sections(&self) -> Vec<(&'static str, &MeasurementStore)> {
        T::SECTIONS
            .iter()
            .filter_map(|&section| self.section(section).map(|store| (section, store)))
            .collect()
    }
}

/// One encoded chunk of a file: the meta chunk (empty section and
/// name, no rows) or one domain's rows of one section.
struct EncodedChunk<'a> {
    section: &'static str,
    name: &'a str,
    rows: u64,
    bytes: Vec<u8>,
}

/// Encodes every chunk of every queued file in one indexed map: each
/// file's meta chunk, then one framed-rows chunk per domain per section,
/// domains in first-seen order (matching `MeasurementStore::domains`).
/// Every row carries its original index, so reassembly is exact
/// regardless of chunk order. Chunks encode independently, so the bytes
/// are the same at every thread count. Returns each file's chunks in
/// layout order.
fn encode_chunks<'a>(writes: &[StageWrite<'a>], exec: &Executor) -> Vec<Vec<EncodedChunk<'a>>> {
    // (file, section, domain, that domain's row indices in the section).
    type Job<'a> = (
        usize,
        &'static str,
        &'a str,
        Option<(&'a MeasurementStore, Vec<usize>)>,
    );
    let mut jobs: Vec<Job<'a>> = Vec::new();
    for (file, write) in writes.iter().enumerate() {
        jobs.push((file, "", "", None));
        for (section, store) in write.artifact.row_sections() {
            let mut order: Vec<&str> = Vec::new();
            let mut by_domain: std::collections::HashMap<&str, Vec<usize>> =
                std::collections::HashMap::new();
            for (index, m) in store.records().iter().enumerate() {
                let bucket = by_domain.entry(m.domain.as_str()).or_default();
                if bucket.is_empty() {
                    order.push(&m.domain);
                }
                bucket.push(index);
            }
            for domain in order {
                let rows = by_domain.remove(domain).expect("bucketed above");
                jobs.push((file, section, domain, Some((store, rows))));
            }
        }
    }
    let encoded = exec.map_indexed(jobs.len(), |i| match &jobs[i] {
        (file, _, _, None) => writes[*file].artifact.meta_chunk(),
        (_, _, _, Some((store, rows))) => {
            let records = store.records();
            binfmt::encode_rows(rows.iter().map(|&r| (r as u64, &records[r])))
        }
    });
    let mut files: Vec<Vec<EncodedChunk<'a>>> = writes.iter().map(|_| Vec::new()).collect();
    for ((file, section, name, rows), bytes) in jobs.into_iter().zip(encoded) {
        files[file].push(EncodedChunk {
            section,
            name,
            rows: rows.map_or(0, |(_, rows)| rows.len() as u64),
            bytes,
        });
    }
    files
}

/// The prefix that goes before one file's encoded chunks in the binary
/// file layout: magic, u32-LE header length, and the binfmt-encoded
/// header (schema, stage, fingerprint, chunk index); the chunk region
/// follows, meta chunk first. Returns the prefix and the chunk-region
/// size (the payload-only byte count).
fn file_prefix(
    stage: &str,
    fingerprint: Fingerprint,
    chunks: &[EncodedChunk<'_>],
) -> (Vec<u8>, u64) {
    let mut offset = 0u64;
    let mut index: Vec<ChunkInfo> = chunks
        .iter()
        .map(|chunk| {
            let info = ChunkInfo {
                section: chunk.section.to_owned(),
                name: chunk.name.to_owned(),
                offset,
                len: chunk.bytes.len() as u64,
                rows: chunk.rows,
                checksum: fnv1a64(&chunk.bytes),
            };
            offset += info.len;
            info
        })
        .collect();
    let meta = index.remove(0);

    let mut header = serde::Map::new();
    header.insert(
        "schema_version".to_owned(),
        Value::UInt(u64::from(SCHEMA_VERSION)),
    );
    header.insert("stage".to_owned(), Value::String(stage.to_owned()));
    header.insert(
        "fingerprint".to_owned(),
        Value::String(fingerprint.to_string()),
    );
    header.insert("meta".to_owned(), meta.to_value());
    header.insert(
        "chunks".to_owned(),
        Value::Array(index.iter().map(ChunkInfo::to_value).collect()),
    );
    let header_bytes = binfmt::encode_one(&Value::Object(header));

    let mut prefix = Vec::with_capacity(8 + header_bytes.len());
    prefix.extend_from_slice(&BIN_MAGIC);
    prefix.extend_from_slice(&(header_bytes.len() as u32).to_le_bytes());
    prefix.extend_from_slice(&header_bytes);
    (prefix, offset)
}

/// A validated, open binary artifact whose row chunks decode on
/// demand. Produced by [`ArtifactStore::open_chunked`]: the file is read
/// once, at open, and every chunk's checksum is verified on those
/// bytes. Reads decode the verified bytes and never touch the file
/// again, so a file replaced after open cannot change what is read.
/// Cheap to clone: the bytes are shared.
#[derive(Debug, Clone)]
pub struct ChunkedPayload {
    path: PathBuf,
    bytes: Arc<[u8]>,
    chunk_base: usize,
    meta: ChunkInfo,
    chunks: Vec<ChunkInfo>,
}

impl ChunkedPayload {
    /// Reads `path` once and validates it end to end against the
    /// manifest's expectations: magic, readable schema version, stage
    /// name, fingerprint, every chunk's range inside the file, and the
    /// checksum of every chunk (hashed, never decoded). Lengths come
    /// from an unchecksummed header, so each is checked against the
    /// file's size before it is used.
    fn open(path: &Path, stage: &str, fingerprint: &str) -> Result<ChunkedPayload, StoreError> {
        let corrupt = |detail: String| StoreError::Corrupt {
            path: path.display().to_string(),
            detail,
        };
        let bytes: Arc<[u8]> = std::fs::read(path).map_err(|e| io_err(path, &e))?.into();
        let file_len = bytes.len() as u64;
        let Some(prefix) = bytes.get(..8) else {
            return Err(corrupt(format!(
                "file shorter than its fixed prefix ({file_len} bytes)"
            )));
        };
        if prefix[..4] != BIN_MAGIC {
            return Err(corrupt(format!(
                "bad magic {:02x?} (not a binary artifact)",
                &prefix[..4]
            )));
        }
        let header_len = u32::from_le_bytes(prefix[4..8].try_into().expect("4 bytes"));
        let chunk_base = 8 + u64::from(header_len);
        if chunk_base > file_len {
            return Err(corrupt(format!(
                "header length {header_len} overruns the {file_len}-byte file"
            )));
        }
        // Within the in-memory file, so it fits a usize.
        let chunk_base = chunk_base as usize;
        let header: Value = binfmt::decode_one(&bytes[8..chunk_base])
            .map_err(|e| corrupt(format!("header does not decode: {e}")))?;
        let map = match &header {
            Value::Object(map) => map,
            _ => return Err(corrupt("header is not an object".to_owned())),
        };
        let schema = map
            .get("schema_version")
            .and_then(Value::as_u64)
            .ok_or_else(|| corrupt("header missing schema_version".to_owned()))?;
        let schema = u32::try_from(schema).unwrap_or(u32::MAX);
        if schema != SCHEMA_VERSION {
            return Err(StoreError::SchemaMismatch {
                path: path.display().to_string(),
                found: schema,
            });
        }
        let header_stage = map.get("stage").and_then(Value::as_str).unwrap_or("");
        let header_fp = map.get("fingerprint").and_then(Value::as_str).unwrap_or("");
        if header_stage != stage || header_fp != fingerprint {
            return Err(corrupt(format!(
                "header says stage {header_stage} fingerprint {header_fp}, manifest says stage \
                 {stage} fingerprint {fingerprint}"
            )));
        }
        let meta = ChunkInfo::from_value(
            map.get("meta")
                .ok_or_else(|| corrupt("header missing meta chunk".to_owned()))?,
        )
        .map_err(&corrupt)?;
        let chunks: Vec<ChunkInfo> = map
            .get("chunks")
            .and_then(Value::as_array)
            .ok_or_else(|| corrupt("header missing chunk index".to_owned()))?
            .iter()
            .map(ChunkInfo::from_value)
            .collect::<Result<_, _>>()
            .map_err(&corrupt)?;
        // Integrity pass over the bytes just read: every chunk in range
        // and matching its checksum, so a bit-flipped or truncated chunk
        // is rejected at open rather than mid-analysis.
        for chunk in std::iter::once(&meta).chain(&chunks) {
            let end = (chunk_base as u64)
                .checked_add(chunk.offset)
                .and_then(|start| start.checked_add(chunk.len));
            if end.is_none_or(|end| end > file_len) {
                return Err(corrupt(format!(
                    "chunk {}/{} ({} bytes at offset {}) overruns the {file_len}-byte file",
                    chunk.section, chunk.name, chunk.len, chunk.offset
                )));
            }
            if fnv1a64(chunk_slice(&bytes, chunk_base, chunk)) != chunk.checksum {
                return Err(corrupt(format!(
                    "chunk {}/{} fails its checksum (expected {:016x})",
                    chunk.section, chunk.name, chunk.checksum
                )));
            }
        }
        Ok(ChunkedPayload {
            path: path.to_path_buf(),
            bytes,
            chunk_base,
            meta,
            chunks,
        })
    }

    /// Total chunk count (meta + row chunks).
    #[must_use]
    pub fn chunk_count(&self) -> usize {
        1 + self.chunks.len()
    }

    /// The domains of a row section, in chunk (= first-seen) order.
    #[must_use]
    pub fn chunk_names(&self, section: &str) -> Vec<&str> {
        self.chunks
            .iter()
            .filter(|c| c.section == section)
            .map(|c| c.name.as_str())
            .collect()
    }

    fn corrupt(&self, detail: String) -> StoreError {
        StoreError::Corrupt {
            path: self.path.display().to_string(),
            detail,
        }
    }

    /// One chunk's verified bytes.
    fn chunk_bytes(&self, chunk: &ChunkInfo) -> &[u8] {
        chunk_slice(&self.bytes, self.chunk_base, chunk)
    }

    /// Decodes the meta chunk: the artifact with every row section
    /// empty (stores decode with zero records, stats and cleaning
    /// metadata intact).
    pub(crate) fn meta<T: Deserialize>(&self) -> Result<T, StoreError> {
        binfmt::decode_one(self.chunk_bytes(&self.meta))
            .map_err(|e| self.corrupt(format!("meta chunk does not decode: {e}")))
    }

    /// Decodes one domain's chunk into `(original row index, row)`
    /// pairs. This is the single-domain streamed read: nothing outside
    /// the chunk is touched.
    fn read_chunk<T: Deserialize>(
        &self,
        section: &str,
        name: &str,
    ) -> Result<Vec<(u64, T)>, StoreError> {
        let chunk = self
            .chunks
            .iter()
            .find(|c| c.section == section && c.name == name)
            .ok_or_else(|| self.corrupt(format!("no chunk {section}/{name} in the index")))?;
        binfmt::decode_rows(self.chunk_bytes(chunk))
            .map_err(|e| self.corrupt(format!("chunk {section}/{name} does not decode: {e}")))
    }

    /// Decodes one domain's chunk straight into `T` rows (row order
    /// inside a chunk is original store order, so the result needs no
    /// re-sorting).
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when the chunk is missing from the
    /// index, fails to decode, or a row does not deserialize.
    pub fn read_chunk_rows<T: Deserialize>(
        &self,
        section: &str,
        name: &str,
    ) -> Result<Vec<T>, StoreError> {
        Ok(self
            .read_chunk(section, name)?
            .into_iter()
            .map(|(_, row)| row)
            .collect())
    }

    /// Reassembles and decodes the full artifact (the whole-payload
    /// load path): the meta chunk, with every section's rows spliced
    /// back into their original positions.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when a chunk fails to decode, the rows of
    /// a section do not fill it exactly once, or the artifact has no
    /// such section.
    pub fn assemble<T: Artifact>(&self) -> Result<T, StoreError> {
        let mut artifact: T = self.meta()?;
        let mut sections: Vec<&str> = Vec::new();
        for c in &self.chunks {
            if !sections.contains(&c.section.as_str()) {
                sections.push(&c.section);
            }
        }
        for section in sections {
            let mut collected: Vec<(u64, pd_sheriff::Measurement)> = Vec::new();
            for name in self.chunk_names(section) {
                collected.extend(self.read_chunk(section, name)?);
            }
            let total = collected.len();
            let mut slots: Vec<Option<pd_sheriff::Measurement>> =
                std::iter::repeat_with(|| None).take(total).collect();
            for (index, row) in collected {
                let slot = usize::try_from(index)
                    .ok()
                    .and_then(|i| slots.get_mut(i))
                    .ok_or_else(|| {
                        self.corrupt(format!(
                            "section {section}: row index {index} out of range 0..{total}"
                        ))
                    })?;
                if slot.is_some() {
                    return Err(
                        self.corrupt(format!("section {section}: duplicate row index {index}"))
                    );
                }
                *slot = Some(row);
            }
            let rows: Vec<pd_sheriff::Measurement> = slots
                .into_iter()
                .collect::<Option<_>>()
                .ok_or_else(|| self.corrupt(format!("section {section}: missing row index")))?;
            let store = artifact.section_mut(section).ok_or_else(|| {
                self.corrupt(format!(
                    "section {section} is not a row section of this artifact"
                ))
            })?;
            *store = MeasurementStore::from_records(rows);
        }
        Ok(artifact)
    }
}

/// One chunk's bytes inside a file whose ranges were checked at open.
fn chunk_slice<'b>(bytes: &'b [u8], chunk_base: usize, chunk: &ChunkInfo) -> &'b [u8] {
    let start = chunk_base + chunk.offset as usize;
    &bytes[start..start + chunk.len as usize]
}

/// Writes `parts`, in order, to a unique sibling temp file of `path` and
/// fsyncs it, so the data is on disk before any name points at it;
/// returns the temp path for [`publish`]. The temp name embeds the pid and a process-wide
/// counter, so concurrent savers (threads or processes sharing one store
/// dir) each write their own temp file and can never publish another
/// writer's partial bytes. A failed write leaves no temp file behind.
fn write_temp(path: &Path, parts: &[&[u8]]) -> Result<PathBuf, StoreError> {
    use std::io::Write;
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("artifact");
    let tmp = path.with_file_name(format!(".{name}.{}.{seq}.tmp", std::process::id()));
    let written = (|| {
        let file = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, &e))?;
        let mut out = std::io::BufWriter::new(file);
        for part in parts {
            out.write_all(part).map_err(|e| io_err(&tmp, &e))?;
        }
        let file = out.into_inner().map_err(|e| io_err(&tmp, e.error()))?;
        file.sync_all().map_err(|e| io_err(&tmp, &e))
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written.map(|()| tmp)
}

/// Renames each fsynced temp file over its destination, in order, then
/// fsyncs `dir` once so every new name survives a crash. A crash at any
/// point leaves each destination either old or complete and new, never
/// truncated. If a rename fails, it and the temp files not yet renamed
/// are removed and the error returned.
fn publish(dir: &Path, staged: &[(PathBuf, PathBuf)]) -> Result<(), StoreError> {
    for (i, (tmp, path)) in staged.iter().enumerate() {
        if let Err(e) = std::fs::rename(tmp, path) {
            for (tmp, _) in &staged[i..] {
                let _ = std::fs::remove_file(tmp);
            }
            return Err(io_err(path, &e));
        }
    }
    // The renames are durable only once the directory entry is synced;
    // opening a directory read-only for fsync works on the Unix
    // platforms we support, and a platform that refuses the open keeps
    // the rename-only guarantee rather than failing the save.
    if let Ok(handle) = std::fs::File::open(dir) {
        handle.sync_all().map_err(|e| io_err(dir, &e))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::{CrawlArtifact, CrowdArtifact};
    use pd_sheriff::Measurement;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pd-store-unit-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn smoke_plan(seed: u64) -> RunPlan {
        RunPlan::new(ExperimentConfig::smoke(seed))
    }

    #[test]
    fn fingerprints_are_stable_and_seed_sensitive() {
        let a = crowd_fingerprint(&smoke_plan(7));
        let b = crowd_fingerprint(&smoke_plan(7));
        let c = crowd_fingerprint(&smoke_plan(8));
        assert_eq!(a, b, "same plan, same fingerprint");
        assert_ne!(a, c, "seed change must invalidate");
        assert_ne!(
            crowd_fingerprint(&smoke_plan(7)),
            crawl_fingerprint(&smoke_plan(7)),
            "stage name is part of the fingerprint"
        );
    }

    #[test]
    fn plan_knobs_invalidate_measurement_fingerprints() {
        let base = smoke_plan(7);
        let mut no_clean = base.clone();
        no_clean.cleaning = false;
        assert_ne!(crowd_fingerprint(&base), crowd_fingerprint(&no_clean));
        let mut skewed = base.clone();
        skewed.desync = pd_net::clock::SimDuration::from_mins(25);
        assert_ne!(crawl_fingerprint(&base), crawl_fingerprint(&skewed));
        let mut subset = base.clone();
        subset.vantage_labels = Some(vec!["USA - Boston".to_owned()]);
        assert_ne!(personas_fingerprint(&base), personas_fingerprint(&subset));
    }

    #[test]
    fn analysis_knobs_spare_measurement_but_change_analysis() {
        let base = smoke_plan(7);
        let mut refigured = base.clone();
        refigured.config.analysis.fig1_domains = 10;
        assert_eq!(
            crowd_fingerprint(&base),
            crowd_fingerprint(&refigured),
            "figure parameters must not invalidate measurements"
        );
        assert_eq!(crawl_fingerprint(&base), crawl_fingerprint(&refigured));
        assert_ne!(
            analysis_fingerprint(&base),
            analysis_fingerprint(&refigured),
            "the analysis artifact does depend on its knobs"
        );
    }

    #[test]
    fn fingerprint_hex_round_trips() {
        let fp = crowd_fingerprint(&smoke_plan(1));
        assert_eq!(Fingerprint::parse(&fp.to_string()), Some(fp));
        assert_eq!(Fingerprint::parse("nope"), None);
        assert_eq!(Fingerprint::parse(""), None);
    }

    #[test]
    fn save_load_round_trips_and_rejects_other_plans() {
        let dir = tmp_dir("round-trip");
        let plan = smoke_plan(7);
        let mut store = ArtifactStore::create(
            &dir,
            Provenance::new("smoke", "", "smoke", 7, 1),
            &plan,
            None,
        )
        .expect("create");
        let art = CrawlArtifact {
            store: pd_sheriff::MeasurementStore::new(),
            stats: vec![],
        };
        let fp = crawl_fingerprint(&plan);
        store.save("crawl", fp, &[], &art).expect("save");

        let reopened = ArtifactStore::open(&dir).expect("open");
        let back: CrawlArtifact = reopened.load("crawl", fp).expect("load");
        assert_eq!(back.store.len(), 0);
        assert!(matches!(
            reopened.load::<CrawlArtifact>("crowd", fp),
            Err(StoreError::MissingStage { .. })
        ));
        let other = crawl_fingerprint(&smoke_plan(8));
        assert!(matches!(
            reopened.load::<CrawlArtifact>("crawl", other),
            Err(StoreError::StaleFingerprint { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_and_renamed_files_are_rejected() {
        let dir = tmp_dir("corrupt");
        let plan = smoke_plan(7);
        let mut store = ArtifactStore::create(
            &dir,
            Provenance::new("smoke", "", "smoke", 7, 1),
            &plan,
            None,
        )
        .expect("create");
        let art = CrawlArtifact {
            store: pd_sheriff::MeasurementStore::new(),
            stats: vec![],
        };
        let fp = crawl_fingerprint(&plan);
        store.save("crawl", fp, &[], &art).expect("save");

        // Scribble over the artifact file: load must fail, verify must
        // flag it.
        std::fs::write(dir.join("crawl.bin"), b"{ not binary").expect("scribble");
        let reopened = ArtifactStore::open(&dir).expect("open");
        assert!(matches!(
            reopened.load::<CrawlArtifact>("crawl", fp),
            Err(StoreError::Corrupt { .. })
        ));
        let verified = reopened.verify();
        assert_eq!(verified.len(), 1);
        assert!(matches!(verified[0].1, EntryHealth::Corrupt(_)));

        // A file renamed over another stage's slot fails the header
        // check even though the name looks right.
        store.save("crawl", fp, &[], &art).expect("re-save");
        let crowd_fp = crowd_fingerprint(&plan);
        store
            .save("crowd", crowd_fp, &[], &art)
            .expect("save crowd");
        std::fs::copy(dir.join("crawl.bin"), dir.join("crowd.bin")).expect("swap");
        let reopened = ArtifactStore::open(&dir).expect("open");
        assert!(matches!(
            reopened.load::<CrawlArtifact>("crowd", crowd_fp),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_records_provenance_and_plan() {
        let dir = tmp_dir("manifest");
        let plan = smoke_plan(9);
        let mut store = ArtifactStore::create(
            &dir,
            Provenance::new("paper", "arm-1", "medium", 9, 4),
            &plan,
            None,
        )
        .expect("create");
        store.save_all(&[], &Executor::serial()).expect("manifest");
        let m = ArtifactStore::open(&dir).expect("open").manifest().clone();
        assert_eq!(m.schema_version, SCHEMA_VERSION);
        assert_eq!(m.provenance.scenario, "paper");
        assert_eq!(m.provenance.label, "arm-1");
        assert_eq!(m.provenance.threads, 4);
        assert_eq!(m.plan.config.seed.value(), 9);
        assert_eq!(m.plan.to_plan().config, plan.config);
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_records_the_producing_spec() {
        let dir = tmp_dir("spec-record");
        let plan = smoke_plan(3);
        let spec = crate::spec::builtin_specs()
            .into_iter()
            .find(|s| s.name == "failure-sweep")
            .expect("builtin");
        ArtifactStore::create(
            &dir,
            Provenance::new("failure-sweep", "fail-0", "smoke", 3, 1),
            &plan,
            Some(spec.clone()),
        )
        .expect("create")
        .save_all(&[], &Executor::serial())
        .expect("manifest");
        let m = ArtifactStore::open(&dir).expect("open").manifest().clone();
        let recorded = m.spec.expect("spec recorded");
        assert_eq!(recorded, spec, "spec must round-trip through the manifest");
        assert_eq!(recorded.fingerprint(), spec.fingerprint());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A deterministic measurement for payload-shape tests (the
    /// integration suite randomizes; here we exercise the encoding).
    fn measurement(i: u64, domain: &str) -> pd_sheriff::measurement::Measurement {
        use pd_currency::{Currency, Price};
        use pd_sheriff::measurement::{Measurement, NoiseTruth, PriceObservation};
        use pd_util::{Money, RequestId, UserId, VantageId};
        #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
        let price = Price::new(
            Money::from_minor(1000 + i as i64),
            Currency::ALL[(i as usize) % Currency::ALL.len()],
        );
        Measurement {
            request: RequestId::new(0),
            user: UserId::new((i % 7) as u32),
            domain: domain.to_owned(),
            product_slug: format!("prod-{}", i % 3),
            time: pd_net::clock::SimTime::from_millis(1000 * i),
            user_price: Some(price),
            observations: (0..3)
                .map(|v| {
                    PriceObservation::ok(VantageId::new(v), price, format!("{} x", price.amount))
                })
                .collect(),
            noise_truth: NoiseTruth::Clean,
        }
    }

    fn crawl_artifact(domains: &[&str], per_domain: u64) -> CrawlArtifact {
        let mut store = pd_sheriff::MeasurementStore::new();
        for d in domains {
            for i in 0..per_domain {
                store.push(measurement(i, d));
            }
        }
        CrawlArtifact {
            store,
            stats: vec![],
        }
    }

    #[test]
    fn chunked_open_reads_single_domains() {
        let dir = tmp_dir("chunked-read");
        let plan = smoke_plan(7);
        let fp = crawl_fingerprint(&plan);
        let domains = ["x.example", "y.example", "z.example"];
        let art = crawl_artifact(&domains, 5);
        let mut store = ArtifactStore::create(
            &dir,
            Provenance::new("smoke", "", "smoke", 7, 1),
            &plan,
            None,
        )
        .expect("create");
        store.save("crawl", fp, &[], &art).expect("save");
        assert!(dir.join("crawl.bin").is_file());
        let entry = store.entry("crawl").expect("entry");
        assert_eq!(entry.format, StoreFormat::Binary);
        assert_eq!(entry.chunks, 4, "meta + one chunk per domain");

        let chunked = store.open_chunked("crawl", fp).expect("open chunked");
        assert_eq!(chunked.chunk_count(), 4);
        assert_eq!(chunked.chunk_names("store"), domains.to_vec());
        let rows: Vec<(u64, Measurement)> =
            chunked.read_chunk("store", "y.example").expect("chunk");
        assert_eq!(rows.len(), 5);
        // The recorded indices are the rows' positions in the original
        // store (domain y holds positions 5..10).
        let indices: Vec<u64> = rows.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, vec![5, 6, 7, 8, 9]);
        for (i, row) in &rows {
            assert_eq!(row, &art.store.records()[*i as usize]);
        }
        let back: CrawlArtifact = chunked.assemble().expect("assemble");
        assert_eq!(back.store.records(), art.store.records());

        assert!(matches!(
            chunked.read_chunk_rows::<Measurement>("store", "missing.example"),
            Err(StoreError::Corrupt { .. })
        ));
        assert!(matches!(
            store.open_chunked("crawl", crawl_fingerprint(&smoke_plan(8))),
            Err(StoreError::StaleFingerprint { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_binary_chunks_are_rejected_at_open() {
        let dir = tmp_dir("bin-corrupt");
        let plan = smoke_plan(7);
        let fp = crawl_fingerprint(&plan);
        let mut store = ArtifactStore::create(
            &dir,
            Provenance::new("smoke", "", "smoke", 7, 1),
            &plan,
            None,
        )
        .expect("create");
        store
            .save(
                "crawl",
                fp,
                &[],
                &crawl_artifact(&["a.example", "b.example"], 10),
            )
            .expect("save");

        // Flip one byte near the end of the file (inside the last row
        // chunk): the open-time checksum pass must reject it.
        let path = dir.join("crawl.bin");
        let mut bytes = std::fs::read(&path).expect("read");
        let at = bytes.len() - 8;
        bytes[at] ^= 0x40;
        std::fs::write(&path, &bytes).expect("scribble");

        let reopened = ArtifactStore::open(&dir).expect("open");
        assert!(matches!(
            reopened.open_chunked("crawl", fp),
            Err(StoreError::Corrupt { .. })
        ));
        assert!(matches!(
            reopened.load::<CrawlArtifact>("crawl", fp),
            Err(StoreError::Corrupt { .. })
        ));
        let verified = reopened.verify();
        assert_eq!(verified.len(), 1);
        assert!(matches!(verified[0].1, EntryHealth::Corrupt(_)));

        // Truncation is caught too.
        bytes[at] ^= 0x40; // restore the flipped byte
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&path, &bytes).expect("truncate");
        assert!(matches!(
            reopened.open_chunked("crawl", fp),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chunked_reads_come_from_the_bytes_verified_at_open() {
        let dir = tmp_dir("read-once");
        let plan = smoke_plan(7);
        let fp = crawl_fingerprint(&plan);
        let art = crawl_artifact(&["a.example", "b.example"], 6);
        let mut store = ArtifactStore::create(
            &dir,
            Provenance::new("smoke", "", "smoke", 7, 1),
            &plan,
            None,
        )
        .expect("create");
        store.save("crawl", fp, &[], &art).expect("save");
        let chunked = store.open_chunked("crawl", fp).expect("open chunked");

        // Replace the file after open, first with garbage, then with
        // another valid artifact, then remove it: every read still
        // returns the rows verified at open.
        let path = dir.join("crawl.bin");
        std::fs::write(&path, b"garbage").expect("scribble");
        let rows: Vec<Measurement> = chunked.read_chunk_rows("store", "b.example").expect("rows");
        assert_eq!(rows, art.store.records()[6..12].to_vec());
        store
            .save("crawl", fp, &[], &crawl_artifact(&["a.example"], 2))
            .expect("overwrite");
        std::fs::remove_file(&path).expect("remove");
        let back: CrawlArtifact = chunked.assemble().expect("assemble");
        assert_eq!(back.store.records(), art.store.records());
        assert_eq!(chunked.chunk_names("store"), ["a.example", "b.example"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batched_saves_equal_one_by_one_saves_at_any_thread_count() {
        let plan = smoke_plan(7);
        let crowd = CrowdArtifact {
            raw: crawl_artifact(&["a.example", "b.example", "c.example"], 4).store,
            cleaned: crawl_artifact(&["b.example"], 3).store,
            cleaning: pd_sheriff::cleaning::CleaningReport {
                kept: 3,
                dropped_inconsistent: 1,
                dropped_unhealthy: 2,
                dropped_tax_explained: 0,
                dropped_truly_noisy: 1,
                kept_truly_noisy: 0,
            },
        };
        let crawl = crawl_artifact(&["x.example", "y.example"], 5);
        let (crowd_fp, crawl_fp) = (crowd_fingerprint(&plan), crawl_fingerprint(&plan));
        let files = |dir: &Path| {
            ["crowd.bin", "crawl.bin"].map(|f| std::fs::read(dir.join(f)).expect("stage file"))
        };
        let one_by_one = tmp_dir("one-by-one");
        let mut store = ArtifactStore::create(
            &one_by_one,
            Provenance::new("smoke", "", "smoke", 7, 1),
            &plan,
            None,
        )
        .expect("create");
        store.save("crowd", crowd_fp, &[], &crowd).expect("crowd");
        store.save("crawl", crawl_fp, &[], &crawl).expect("crawl");
        let expected = (files(&one_by_one), store.manifest().entries.clone());
        for threads in [1, 2, 4] {
            let dir = tmp_dir(&format!("batched-{threads}"));
            let mut store = ArtifactStore::create(
                &dir,
                Provenance::new("smoke", "", "smoke", 7, threads),
                &plan,
                None,
            )
            .expect("create");
            let sizes = store
                .save_all(
                    &[
                        StageWrite::new("crowd", crowd_fp, &[], &crowd),
                        StageWrite::new("crawl", crawl_fp, &[], &crawl),
                    ],
                    &Executor::new(threads),
                )
                .expect("batch");
            let on_disk = ArtifactStore::open(&dir).expect("open").manifest().clone();
            assert_eq!(
                (files(&dir), on_disk.entries),
                expected,
                "{threads} threads"
            );
            assert_eq!(sizes, vec![expected.1[0].bytes, expected.1[1].bytes]);
            std::fs::remove_dir_all(&dir).ok();
        }
        std::fs::remove_dir_all(&one_by_one).ok();
    }

    #[test]
    fn concurrent_saves_never_publish_partial_bytes() {
        let dir = tmp_dir("concurrent-save");
        let plan = smoke_plan(7);
        let fp = crawl_fingerprint(&plan);
        ArtifactStore::create(
            &dir,
            Provenance::new("smoke", "", "smoke", 7, 1),
            &plan,
            None,
        )
        .expect("create")
        .save_all(&[], &Executor::serial())
        .expect("manifest");

        // Eight threads, each with its own handle on the same dir,
        // hammer the same stage with payloads of very different sizes.
        // Before the unique-temp-name fix the writers shared one
        // `crawl.bin.tmp` and could rename each other's half-written
        // bytes into place.
        let sizes: Vec<u64> = (0..8).map(|i| 5 + 40 * i).collect();
        let threads: Vec<_> = sizes
            .iter()
            .map(|&n| {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    let mut store = ArtifactStore::open(&dir).expect("open");
                    let art = crawl_artifact(&["c1.example", "c2.example"], n);
                    for _ in 0..4 {
                        store.save("crawl", fp, &[], &art).expect("save");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("no saver panics");
        }

        // Whatever interleaving happened, the published file must be a
        // complete, valid file holding one of the variants...
        let reopened = ArtifactStore::open(&dir).expect("manifest parses");
        let art: CrawlArtifact = reopened.load("crawl", fp).expect("file decodes");
        let len = art.store.len() as u64;
        assert!(
            sizes.iter().any(|&n| 2 * n == len),
            "loaded store holds {len} records, not one of the written variants"
        );
        // ...and no temp droppings survive.
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .expect("readdir")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_first_save_writes_the_manifest() {
        let dir = tmp_dir("manifest-on-save");
        let plan = smoke_plan(7);
        let mut store = ArtifactStore::create(
            &dir,
            Provenance::new("smoke", "", "smoke", 7, 1),
            &plan,
            None,
        )
        .expect("create");
        assert!(dir.is_dir(), "create makes the directory");
        assert!(
            !dir.join(MANIFEST_FILE).exists(),
            "create writes no manifest"
        );
        assert!(!ArtifactStore::is_store(&dir));
        store.save_all(&[], &Executor::serial()).expect("save");
        let reopened = ArtifactStore::open(&dir).expect("an empty store opens");
        assert!(reopened.manifest().entries.is_empty());
        assert_eq!(reopened.manifest().plan, PlanRecord::from_plan(&plan));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Rewrites `dir`'s manifest through `edit` on its JSON tree.
    fn edit_manifest(dir: &Path, edit: impl FnOnce(&mut serde::Map)) {
        let path = dir.join(MANIFEST_FILE);
        let mut manifest: Value =
            serde_json::from_str(&std::fs::read_to_string(&path).expect("read")).expect("parse");
        if let Value::Object(map) = &mut manifest {
            edit(map);
        }
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&manifest).expect("render"),
        )
        .expect("write");
    }

    /// Sets (or with `None`, removes) the `format` tag of every entry.
    fn set_entry_formats(map: &mut serde::Map, format: Option<&str>) {
        if let Some(Value::Array(entries)) = map.get_mut("entries") {
            for entry in entries {
                if let Value::Object(entry) = entry {
                    match format {
                        Some(tag) => entry.insert("format".to_owned(), Value::String(tag.into())),
                        None => entry.remove("format"),
                    };
                }
            }
        }
    }

    #[test]
    fn older_layouts_are_refused_at_open() {
        let dir = tmp_dir("older-layout");
        let plan = smoke_plan(7);
        let art = crawl_artifact(&["old.example"], 6);
        let fresh = || {
            let mut store = ArtifactStore::create(
                &dir,
                Provenance::new("smoke", "", "smoke", 7, 1),
                &plan,
                None,
            )
            .expect("create");
            store
                .save("crawl", crawl_fingerprint(&plan), &[], &art)
                .expect("save");
        };
        fn set_schema(map: &mut serde::Map, v: u64) {
            map.insert("schema_version".to_owned(), Value::UInt(v));
        }

        // The manifests older builds wrote: a v2 one (no format tags),
        // a v3 one listing a JSON payload, and a v3 one without a tag.
        for reason in ["schema v2", "stored as json", "no format tag"] {
            fresh();
            edit_manifest(&dir, |m| match reason {
                "schema v2" => {
                    set_schema(m, 2);
                    set_entry_formats(m, None);
                }
                "stored as json" => set_entry_formats(m, Some("json")),
                _ => set_entry_formats(m, None),
            });
            match ArtifactStore::open(&dir) {
                Err(e @ StoreError::OlderLayout { .. }) => {
                    let text = e.to_string();
                    assert!(text.contains("stage crawl"), "{reason}: {text}");
                    assert!(text.contains(reason), "{reason}: {text}");
                    assert!(text.contains("--overwrite-artifacts"), "{reason}: {text}");
                }
                other => panic!("{reason}: expected OlderLayout, got {other:?}"),
            }
        }

        // A newer build's store is a schema mismatch, not an older one.
        fresh();
        edit_manifest(&dir, |m| set_schema(m, u64::from(SCHEMA_VERSION) + 1));
        assert!(matches!(
            ArtifactStore::open(&dir),
            Err(StoreError::SchemaMismatch { found: 4, .. })
        ));

        // Re-creating the store over the directory recovers.
        fresh();
        let reopened = ArtifactStore::open(&dir).expect("fresh store opens");
        let back: CrawlArtifact = reopened
            .load("crawl", crawl_fingerprint(&plan))
            .expect("loads");
        assert_eq!(back.store.records(), art.store.records());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_non_stores_and_future_schemas() {
        let dir = tmp_dir("no-manifest");
        std::fs::create_dir_all(&dir).expect("mkdir");
        assert!(matches!(
            ArtifactStore::open(&dir),
            Err(StoreError::NoManifest { .. })
        ));
        std::fs::write(dir.join(MANIFEST_FILE), b"]]").expect("write");
        assert!(matches!(
            ArtifactStore::open(&dir),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writes `crawl.bin` in `dir` with a hand-built header whose meta
    /// chunk claims `len` bytes at `offset`, over a 16-byte region.
    /// `header_len` overrides the prefix's header length.
    fn write_crafted(dir: &Path, offset: u64, len: u64, header_len: Option<u32>) -> PathBuf {
        let meta = ChunkInfo {
            section: String::new(),
            name: String::new(),
            offset,
            len,
            rows: 0,
            checksum: fnv1a64(&[0; 16]),
        };
        let mut header = serde::Map::new();
        header.insert(
            "schema_version".to_owned(),
            Value::UInt(u64::from(SCHEMA_VERSION)),
        );
        header.insert("stage".to_owned(), Value::String("crawl".to_owned()));
        header.insert(
            "fingerprint".to_owned(),
            Value::String(CRAFTED_FP.to_owned()),
        );
        header.insert("meta".to_owned(), meta.to_value());
        header.insert("chunks".to_owned(), Value::Array(Vec::new()));
        let header = binfmt::encode_one(&Value::Object(header));
        let mut file = BIN_MAGIC.to_vec();
        file.extend_from_slice(&header_len.unwrap_or(header.len() as u32).to_le_bytes());
        file.extend_from_slice(&header);
        file.extend_from_slice(&[0; 16]);
        let path = dir.join("crawl.bin");
        std::fs::write(&path, file).expect("write");
        path
    }

    const CRAFTED_FP: &str = "00000000deadbeef";

    #[test]
    fn crafted_lengths_are_rejected_before_allocating() {
        let dir = tmp_dir("crafted-header");
        std::fs::create_dir_all(&dir).expect("mkdir");
        // The honest layout opens.
        let path = write_crafted(&dir, 0, 16, None);
        assert!(ChunkedPayload::open(&path, "crawl", CRAFTED_FP).is_ok());
        // A chunk of ~2^40 bytes, one past the end, or one whose end
        // overflows u64 is refused from the index alone; so is a header
        // longer than the file. None of them may allocate its length.
        for (offset, len, header_len) in [
            (0, 1 << 40, None),
            (0, 17, None),
            (1, 16, None),
            (u64::MAX - 4, 8, None),
            (0, 16, Some(u32::MAX)),
        ] {
            let path = write_crafted(&dir, offset, len, header_len);
            match ChunkedPayload::open(&path, "crawl", CRAFTED_FP) {
                Err(StoreError::Corrupt { detail, .. }) => {
                    assert!(detail.contains("overruns"), "{detail}");
                }
                other => panic!("offset {offset} len {len}: expected Corrupt, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The raw bytes of every chunk (meta and rows) of a real smoke
    /// run's crowd and crawl artifacts, as the binary store writes them.
    fn smoke_chunks() -> &'static [Vec<u8>] {
        static CHUNKS: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
        CHUNKS.get_or_init(|| {
            let mut engine = crate::Experiment::builder()
                .scenario("smoke")
                .seed(7)
                .build()
                .expect("smoke builds");
            let crowd = engine.crowd().clone();
            let crawl = engine.crawl().clone();
            let dir = tmp_dir("smoke-chunks");
            let plan = engine.plan().clone();
            let mut store = ArtifactStore::create(
                &dir,
                Provenance::new("smoke", "", "smoke", 7, 1),
                &plan,
                None,
            )
            .expect("create");
            store
                .save("crowd", crowd_fingerprint(&plan), &[], &crowd)
                .expect("save crowd");
            store
                .save("crawl", crawl_fingerprint(&plan), &[], &crawl)
                .expect("save crawl");
            let mut chunks = Vec::new();
            for (stage, fp) in [
                ("crowd", crowd_fingerprint(&plan)),
                ("crawl", crawl_fingerprint(&plan)),
            ] {
                let payload = store.open_chunked(stage, fp).expect("opens");
                for chunk in std::iter::once(&payload.meta).chain(&payload.chunks) {
                    chunks.push(payload.chunk_bytes(chunk).to_vec());
                }
            }
            std::fs::remove_dir_all(&dir).ok();
            chunks
        })
    }

    proptest::proptest! {
        /// The typed reader over real smoke chunks with a byte flipped
        /// or the tail cut off (checksums bypassed): every outcome is
        /// `Ok` or `Err`, never a panic.
        #[test]
        fn mutated_smoke_chunks_never_panic(
            which in 0usize..usize::MAX,
            at in 0usize..usize::MAX,
            mask in 1u8..=255,
            cut in 0usize..usize::MAX,
        ) {
            let chunks = smoke_chunks();
            let bytes = &chunks[which % chunks.len()];
            let mut flipped = bytes.clone();
            flipped[at % bytes.len()] ^= mask;
            for input in [&flipped[..], &bytes[..cut % bytes.len()]] {
                let _ = binfmt::decode_rows::<Measurement>(input);
                let _ = binfmt::decode_one::<CrowdArtifact>(input);
                let _ = binfmt::decode_one::<CrawlArtifact>(input);
            }
        }
    }

    #[test]
    fn smoke_chunks_decode_whole() {
        let chunks = smoke_chunks();
        assert!(chunks.len() > 4, "meta and row chunks of both stages");
        let rows: usize = chunks
            .iter()
            .filter_map(|c| binfmt::decode_rows::<Measurement>(c).ok())
            .map(|rows| rows.len())
            .sum();
        assert!(rows > 100, "{rows} rows decoded");
    }
}
