//! Contracts of the binary store codec, end to end through the public
//! store API:
//!
//! * **the on-disk format does not move**: the four `.bin` files of
//!   the smoke scenario at seeds 7 and 8 hash to two pinned FNV-1a
//!   digests, and they re-analyze to the direct run's report. The
//!   crowd+crawl digest dates from the codec that walked `Value` trees,
//!   before the typed streaming path existed. The personas+analysis
//!   digest was re-pinned when the persona artifact took over the
//!   analysis's web probes, a new field in `personas.bin`;
//! * **no corrupt file panics the loader**: arbitrary bytes, and
//!   truncations and single-byte flips of real smoke store files, make
//!   `open_chunked` and `load` return `Ok` or `Err` — never a panic,
//!   never an allocation sized by a corrupt header;
//! * **no corrupt manifest panics the store**: the manifest is the
//!   store's only JSON decoder. Arbitrary bytes, truncations, byte flips
//!   and retyped fields of a real manifest make `ArtifactStore::open`,
//!   `verify` and `Engine::load_artifacts` return `Ok` or `Err`, and the
//!   manifests older builds wrote (schema v2, JSON payloads, no format
//!   tag) are refused as an older layout, never misread.

use pd_core::store::{self, ArtifactStore, StoreError, MANIFEST_FILE};
use pd_core::{AnalysisArtifact, CrawlArtifact, CrowdArtifact, Experiment, PersonaArtifact};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The stages a `pd run --artifacts` store holds, in digest order:
/// the two row stages first, then personas and analysis.
const STAGES: [&str; 4] = ["crowd", "crawl", "personas", "analysis"];

/// FNV-1a64 over (stage name, file bytes) of `crowd.bin` and
/// `crawl.bin` of smoke seed 7, then seed 8.
const SMOKE_ROWS_DIGEST: u64 = 0x0740_7e5a_23cd_c3da;

/// The same over `personas.bin` and `analysis.bin`.
const SMOKE_PROBES_DIGEST: u64 = 0x4394_53d9_e9f2_cb76;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pd-store-codec-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Runs the smoke scenario and persists every stage (analysis too) in
/// `dir`, the way `pd run --artifacts DIR` does. Returns the run's
/// report JSON.
fn write_smoke_store(seed: u64, dir: &Path) -> String {
    let mut engine = Experiment::builder()
        .scenario("smoke")
        .seed(seed)
        .threads(2)
        .artifacts(dir)
        .build()
        .expect("smoke builds");
    let analysis = engine.analyze();
    engine.save_artifacts(dir).expect("measurements save");
    engine
        .save_analysis(dir, &analysis)
        .expect("analysis saves");
    analysis.report.to_json()
}

fn fnv1a64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn smoke_binary_files_match_the_pinned_digest() {
    let mut rows: u64 = 0xcbf2_9ce4_8422_2325;
    let mut probes = rows;
    for seed in [7, 8] {
        let dir = tmp(&format!("golden-{seed}"));
        let direct = write_smoke_store(seed, &dir);
        for (h, stages) in [(&mut rows, &STAGES[..2]), (&mut probes, &STAGES[2..])] {
            for stage in stages {
                let bytes = std::fs::read(dir.join(format!("{stage}.bin"))).expect("stage file");
                *h = fnv1a64(*h, stage.as_bytes());
                *h = fnv1a64(*h, &bytes);
            }
        }
        // The stored measurements re-analyze to the same report.
        let mut rerun = Experiment::builder()
            .scenario("smoke")
            .seed(seed)
            .build()
            .expect("smoke builds");
        rerun.load_artifacts(&dir).expect("store loads");
        assert_eq!(rerun.analyze().report.to_json(), direct, "seed {seed}");
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(
        rows, SMOKE_ROWS_DIGEST,
        "crowd/crawl store bytes moved: digest {rows:#018x}"
    );
    assert_eq!(
        probes, SMOKE_PROBES_DIGEST,
        "personas/analysis store bytes moved: digest {probes:#018x}"
    );
}

/// A smoke seed-7 binary store, written once per test binary; the
/// mutation tests corrupt copies of its files.
fn base_store() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = tmp("base");
        write_smoke_store(7, &dir);
        dir
    })
}

/// A per-test copy of the base store (manifest and every stage file),
/// made on first use.
fn scratch_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pd-store-codec-{}-{name}", std::process::id()));
    if !ArtifactStore::is_store(&dir) {
        std::fs::create_dir_all(&dir).expect("mkdir");
        for entry in std::fs::read_dir(base_store()).expect("base store") {
            let path = entry.expect("entry").path();
            std::fs::copy(&path, dir.join(path.file_name().expect("file name"))).expect("copy");
        }
    }
    dir
}

fn original(stage: &str) -> Vec<u8> {
    std::fs::read(base_store().join(format!("{stage}.bin"))).expect("stage file")
}

/// Loads `stage` from `dir` every way the engine can — a chunked open
/// with every row chunk decoded, then a whole typed load — ignoring the
/// outcome: only a panic (or an abort) fails the caller.
fn load_every_way(dir: &Path, stage: &str) {
    let store = ArtifactStore::open(dir).expect("the manifest is never mutated");
    let entry = store.entry(stage).expect("stage listed");
    let fp = store::Fingerprint::parse(&entry.fingerprint).expect("hex fingerprint");
    if let Ok(payload) = store.open_chunked(stage, fp) {
        for section in ["raw", "cleaned", "store"] {
            for name in payload.chunk_names(section) {
                let _ = payload.read_chunk_rows::<pd_sheriff::Measurement>(section, name);
            }
        }
    }
    let _ = match stage {
        "crowd" => store.load::<CrowdArtifact>(stage, fp).map(drop),
        "crawl" => store.load::<CrawlArtifact>(stage, fp).map(drop),
        "personas" => store.load::<PersonaArtifact>(stage, fp).map(drop),
        _ => store.load::<AnalysisArtifact>(stage, fp).map(drop),
    };
}

/// The end of a binary file's header (fixed prefix + header bytes),
/// where the unchecksummed chunk index lives.
fn header_end(bytes: &[u8]) -> usize {
    8 + u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize
}

proptest! {
    #[test]
    fn truncated_store_files_never_panic(which in 0usize..4, cut in 0usize..usize::MAX) {
        let dir = scratch_store("truncate");
        let stage = STAGES[which];
        let bytes = original(stage);
        // Half the cuts land inside the header.
        let cut = if cut % 2 == 0 { cut % header_end(&bytes) } else { cut % bytes.len() };
        std::fs::write(dir.join(format!("{stage}.bin")), &bytes[..cut]).expect("write");
        load_every_way(&dir, stage);
    }

    #[test]
    fn flipped_store_files_never_panic(
        which in 0usize..4,
        at in 0usize..usize::MAX,
        mask in 1u8..=255,
    ) {
        let dir = scratch_store("flip");
        let stage = STAGES[which];
        let mut bytes = original(stage);
        // Half the flips land in the unchecksummed header (lengths,
        // offsets, names); the rest are caught by chunk checksums.
        let at = if at % 2 == 0 { at % header_end(&bytes) } else { at % bytes.len() };
        bytes[at] ^= mask;
        std::fs::write(dir.join(format!("{stage}.bin")), &bytes).expect("write");
        load_every_way(&dir, stage);
    }

    #[test]
    fn arbitrary_store_files_never_panic(
        which in 0usize..4,
        with_magic in 0u8..2,
        header_len in 0u32..64,
        body in proptest::collection::vec(0u8..=255, 0..96),
    ) {
        let dir = scratch_store("arbitrary");
        let stage = STAGES[which];
        let mut bytes = Vec::new();
        if with_magic == 1 {
            bytes.extend_from_slice(b"PDB3");
            bytes.extend_from_slice(&header_len.to_le_bytes());
        }
        bytes.extend_from_slice(&body);
        std::fs::write(dir.join(format!("{stage}.bin")), &bytes).expect("write");
        load_every_way(&dir, stage);
    }
}

fn original_manifest() -> Vec<u8> {
    std::fs::read(base_store().join(MANIFEST_FILE)).expect("manifest")
}

/// Writes `bytes` as the manifest of a scratch copy of the base store
/// and opens it every way the program does — `ArtifactStore::open`,
/// `verify` over every entry, and a smoke engine's `load_artifacts` —
/// ignoring the outcomes: only a panic (or an abort) fails the caller.
/// Returns what `open` said.
fn open_every_way(name: &str, bytes: &[u8]) -> Result<(), StoreError> {
    let dir = scratch_store(name);
    std::fs::write(dir.join(MANIFEST_FILE), bytes).expect("write manifest");
    let opened = ArtifactStore::open(&dir).map(|store| drop(store.verify()));
    let mut engine = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .build()
        .expect("smoke builds");
    let _ = engine.load_artifacts(&dir);
    opened
}

/// The number of values in `v`, itself included.
fn node_count(v: &serde_json::Value) -> usize {
    1 + match v {
        serde_json::Value::Array(items) => items.iter().map(node_count).sum(),
        serde_json::Value::Object(map) => map.values().map(node_count).sum(),
        _ => 0,
    }
}

/// Replaces the value at the `pick`-th node (pre-order) of `v` with
/// `with`; returns how many nodes remain to skip.
fn replace_node(v: &mut serde_json::Value, pick: usize, with: &serde_json::Value) -> usize {
    if pick == 0 {
        *v = with.clone();
        return usize::MAX;
    }
    let mut left = pick - 1;
    let children: Vec<&mut serde_json::Value> = match v {
        serde_json::Value::Array(items) => items.iter_mut().collect(),
        serde_json::Value::Object(map) => map.values_mut().collect(),
        _ => Vec::new(),
    };
    for child in children {
        left = replace_node(child, left, with);
        if left == usize::MAX {
            break;
        }
    }
    left
}

proptest! {
    #[test]
    fn truncated_manifests_never_panic(cut in 0usize..usize::MAX) {
        let bytes = original_manifest();
        let _ = open_every_way("manifest-truncate", &bytes[..cut % bytes.len()]);
    }

    #[test]
    fn flipped_manifests_never_panic(at in 0usize..usize::MAX, mask in 1u8..=255) {
        let mut bytes = original_manifest();
        let at = at % bytes.len();
        bytes[at] ^= mask;
        let _ = open_every_way("manifest-flip", &bytes);
    }

    #[test]
    fn arbitrary_manifests_never_panic(
        body in proptest::collection::vec(0u8..=255, 0..256),
        printable in proptest::collection::vec(32u8..127, 0..256),
    ) {
        let _ = open_every_way("manifest-arbitrary", &body);
        let _ = open_every_way("manifest-arbitrary", &printable);
    }

    /// Well-formed JSON of the wrong shape: one node of the real
    /// manifest (any depth, objects and arrays included) replaced by a
    /// value of another type or an extreme number.
    #[test]
    fn retyped_manifest_fields_never_panic(pick in 0usize..usize::MAX, kind in 0u8..8) {
        let mut manifest: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&original_manifest()).expect("utf-8"))
                .expect("manifest parses");
        let with = match kind {
            0 => serde_json::Value::Null,
            1 => serde_json::Value::Bool(true),
            2 => serde_json::Value::Int(-1),
            3 => serde_json::Value::UInt(u64::MAX),
            4 => serde_json::Value::Float(f64::MAX),
            5 => serde_json::Value::String("../../x".to_owned()),
            6 => serde_json::Value::Array(Vec::new()),
            _ => serde_json::Value::Object(serde_json::Map::new()),
        };
        let count = node_count(&manifest);
        replace_node(&mut manifest, pick % count, &with);
        let text = serde_json::to_string_pretty(&manifest).expect("renders");
        let _ = open_every_way("manifest-retype", text.as_bytes());
    }
}

/// Sets the manifest's schema version and every entry's format tag
/// (`None` removes it), as the builds before the single binary layout
/// wrote them.
fn older_manifest(schema: u64, format: Option<&str>) -> Vec<u8> {
    let mut manifest: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&original_manifest()).expect("utf-8"))
            .expect("manifest parses");
    if let serde_json::Value::Object(map) = &mut manifest {
        map.insert("schema_version".to_owned(), serde_json::Value::UInt(schema));
        if let Some(serde_json::Value::Array(entries)) = map.get_mut("entries") {
            for entry in entries {
                if let serde_json::Value::Object(entry) = entry {
                    match format {
                        Some(tag) => {
                            entry
                                .insert("format".to_owned(), serde_json::Value::String(tag.into()));
                        }
                        None => {
                            entry.remove("format");
                            entry.remove("chunks");
                        }
                    }
                }
            }
        }
    }
    serde_json::to_string_pretty(&manifest)
        .expect("renders")
        .into_bytes()
}

#[test]
fn json_era_manifests_are_refused_not_misread() {
    for (label, bytes) in [
        ("schema v2", older_manifest(2, None)),
        ("format json", older_manifest(3, Some("json"))),
        ("format missing", older_manifest(3, None)),
    ] {
        match open_every_way("manifest-json-era", &bytes) {
            Err(StoreError::OlderLayout { stage, .. }) => {
                assert_eq!(stage.as_deref(), Some("crowd"), "{label}");
            }
            other => panic!("{label}: expected OlderLayout, got {other:?}"),
        }
        let mut engine = Experiment::builder()
            .scenario("smoke")
            .seed(7)
            .build()
            .expect("smoke builds");
        assert!(
            matches!(
                engine.load_artifacts(&scratch_store("manifest-json-era")),
                Err(StoreError::OlderLayout { .. })
            ),
            "{label}"
        );
    }
    // The unmodified manifest still opens, every entry healthy.
    let dir = scratch_store("manifest-json-era");
    std::fs::write(dir.join(MANIFEST_FILE), original_manifest()).expect("restore");
    let store = ArtifactStore::open(&dir).expect("opens");
    assert!(store
        .verify()
        .iter()
        .all(|(_, health)| *health == store::EntryHealth::Ok));
}
