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
//!   never an allocation sized by a corrupt header.

use pd_core::store::{self, ArtifactStore, StoreFormat};
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

/// Runs the smoke scenario and persists every stage (analysis too) as
/// a binary store in `dir`, the way `pd run --artifacts DIR --format
/// binary` does. Returns the run's report JSON.
fn write_smoke_store(seed: u64, dir: &Path) -> String {
    let mut engine = Experiment::builder()
        .scenario("smoke")
        .seed(seed)
        .threads(2)
        .artifacts(dir)
        .store_format(StoreFormat::Binary)
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
