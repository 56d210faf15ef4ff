//! The artifact-persistence contracts (ISSUE 3 acceptance):
//!
//! * save → load round-trips are **byte-identical** — property-tested
//!   over randomized measurement artifacts, and end-to-end over a full
//!   smoke `Report`,
//! * corrupted files and stale fingerprints are rejected (the engine
//!   recomputes; it never trusts a file name), and so are stores in the
//!   older JSON-era layouts (refused with a recovery hint, never
//!   misread),
//! * a stored smoke crawl re-analyzes **across processes**: `pd run
//!   --artifacts` then `pd rerun` in a fresh process reproduce the
//!   direct run's JSON exactly, and the CLI's error paths exit nonzero
//!   on stderr.

use pd_core::store::{self, ArtifactStore, EntryHealth, Provenance, StoreError};
use pd_core::{
    AnalysisArtifact, CrawlArtifact, CrowdArtifact, Engine, Executor, Experiment, ExperimentConfig,
    PersonaArtifact, Profile, RunPlan, StageKind, TimingObserver,
};
use pd_currency::{Currency, Price};
use pd_net::clock::SimTime;
use pd_sheriff::measurement::{Measurement, NoiseTruth, PriceObservation};
use pd_sheriff::MeasurementStore;
use pd_util::{Money, RequestId, UserId, VantageId};
use proptest::prelude::*;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pd-artifacts-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Builds a measurement from flat random draws (the property tests
/// randomize the payload, not the pipeline).
#[allow(clippy::cast_possible_truncation)]
fn measurement(i: u64, minor: i64, domain_tag: &str, fail: bool, time_ms: u64) -> Measurement {
    let currency = Currency::ALL[(i as usize) % Currency::ALL.len()];
    let price = Price::new(Money::from_minor(minor), currency);
    let observations = (0..(i % 4))
        .map(|v| {
            if fail && v == 0 {
                PriceObservation::failed(VantageId::new(v as u32), format!("boom {v}"))
            } else {
                PriceObservation::ok(
                    VantageId::new(v as u32),
                    price,
                    format!("{} \"{domain_tag}\"\n€", price.amount),
                )
            }
        })
        .collect();
    Measurement {
        request: RequestId::new(0),
        user: UserId::new((i % 97) as u32),
        domain: format!("www.{domain_tag}.example"),
        product_slug: format!("prod-{i}"),
        time: SimTime::from_millis(time_ms),
        user_price: (!fail).then_some(price),
        observations,
        noise_truth: match i % 3 {
            0 => NoiseTruth::Clean,
            1 => NoiseTruth::Customization,
            _ => NoiseTruth::MisHighlight,
        },
    }
}

proptest! {
    /// Save → load → save again: the loaded records equal the in-memory
    /// artifact's, and the second `crowd.bin` is byte-identical to the
    /// first, over randomized artifact contents (prices of every sign
    /// and currency, failure strings with escapes, arbitrary check
    /// times).
    #[test]
    fn prop_store_round_trip_is_byte_identical(
        n in 1usize..12,
        minor in -1_000_000i64..10_000_000,
        tag in "[a-z0-9]{1,12}",
        time_ms in 0u64..10_000_000_000,
        seed in 0u64..1_000_000,
    ) {
        let dir = tmp(&format!("prop-{seed}-{n}"));
        let plan = RunPlan::new(ExperimentConfig::smoke(seed));
        let mut raw = MeasurementStore::new();
        for i in 0..n as u64 {
            raw.push(measurement(i.wrapping_add(seed), minor + i as i64, &tag, i % 5 == 0, time_ms + i));
        }
        let artifact = CrowdArtifact {
            cleaned: raw.clone(),
            raw,
            cleaning: pd_sheriff::cleaning::CleaningReport {
                kept: n,
                dropped_inconsistent: n / 2,
                dropped_unhealthy: 0,
                dropped_tax_explained: 1,
                dropped_truly_noisy: 0,
                kept_truly_noisy: n / 3,
            },
        };
        let fp = store::crowd_fingerprint(&plan);
        let mut s = ArtifactStore::create(&dir, Provenance::new("prop", "", "smoke", seed, 1), &plan, None)
            .expect("store creates");
        s.save("crowd", fp, &[], &artifact).expect("first save");
        let first = std::fs::read(dir.join("crowd.bin")).expect("artifact file exists");

        let loaded: CrowdArtifact = ArtifactStore::open(&dir)
            .expect("store reopens")
            .load("crowd", fp)
            .expect("round-trip load");
        prop_assert_eq!(loaded.raw.len(), artifact.raw.len());
        prop_assert_eq!(loaded.raw.records(), artifact.raw.records());
        prop_assert_eq!(loaded.cleaned.records(), artifact.cleaned.records());
        prop_assert_eq!(loaded.cleaning, artifact.cleaning);

        s.save("crowd", fp, &[], &loaded).expect("re-save");
        let second = std::fs::read(dir.join("crowd.bin")).expect("artifact file exists");
        prop_assert_eq!(first, second, "round-trip must be byte-identical");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The full acceptance loop in-process: a saved smoke run reloads into a
/// byte-identical `Report`, with the observer proving the measurement
/// stages never re-ran.
#[test]
fn stored_smoke_report_is_byte_identical() {
    let dir = tmp("byte-identical");
    let mut producer = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .build()
        .expect("smoke builds");
    let direct = producer.run();
    producer.save_artifacts(&dir).expect("save");

    let observer = Arc::new(TimingObserver::new());
    let mut consumer = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .observer(observer.clone())
        .artifacts(dir.clone())
        .build()
        .expect("smoke builds");
    let reloaded = consumer.run();
    assert_eq!(direct.to_json(), reloaded.to_json(), "JSON must match");
    assert_eq!(
        direct.render_all(),
        reloaded.render_all(),
        "rendered report must match byte for byte"
    );
    for kind in [StageKind::Crowd, StageKind::Crawl, StageKind::Personas] {
        assert_eq!(observer.starts(kind), 0, "{kind} must not recompute");
        assert_eq!(observer.loads(kind), 1, "{kind} must load from the store");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Corruption is rejected: a scribbled-over file, a flipped byte in a
/// row chunk or a truncated file fails the header or per-chunk checks
/// at open, both the full load and the streaming probe report
/// `Corrupt`, `verify` flags the entry, and the engine falls back to
/// recomputing the stage — for the crowd and the crawl alike.
#[test]
fn corrupted_binary_chunks_are_rejected_and_recomputed() {
    let dir = tmp("corrupt-binary");
    let mut producer = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .build()
        .expect("smoke builds");
    producer.crowd();
    producer.crawl();
    producer.save_artifacts(&dir).expect("save");

    let plan = RunPlan::new(ExperimentConfig::smoke(7));
    for (kind, fp) in [
        (StageKind::Crowd, store::crowd_fingerprint(&plan)),
        (StageKind::Crawl, store::crawl_fingerprint(&plan)),
    ] {
        let stage = kind.as_str();
        let path = dir.join(format!("{stage}.bin"));
        let pristine = std::fs::read(&path).expect("binary artifact exists");
        // Flip bytes near the end of the file — inside the last domain
        // chunk, well past the header.
        let mut flipped = pristine.clone();
        let at = flipped.len() - 32;
        for b in &mut flipped[at..] {
            *b ^= 0xff;
        }
        for (label, bytes) in [
            ("scribbled", b"{\"schema_version\":1,".to_vec()),
            ("flipped", flipped),
            ("truncated", pristine[..pristine.len() - 16].to_vec()),
        ] {
            std::fs::write(&path, bytes).expect("corrupt the file");
            let s = ArtifactStore::open(&dir).expect("manifest still fine");
            let load = match kind {
                StageKind::Crowd => s.load::<CrowdArtifact>(stage, fp).map(drop),
                _ => s.load::<CrawlArtifact>(stage, fp).map(drop),
            };
            assert!(
                matches!(load, Err(StoreError::Corrupt { .. })),
                "{stage} {label}: the full load must fail"
            );
            assert!(
                matches!(s.open_chunked(stage, fp), Err(StoreError::Corrupt { .. })),
                "{stage} {label}: the streaming probe must fail"
            );
            let health = s.verify();
            let entry = health
                .iter()
                .find(|(e, _)| e.stage == stage)
                .expect("listed");
            assert!(
                matches!(entry.1, EntryHealth::Corrupt(_)),
                "{stage} {label}: verify must flag it"
            );

            let observer = Arc::new(TimingObserver::new());
            let mut consumer = Experiment::builder()
                .scenario("smoke")
                .seed(7)
                .observer(observer.clone())
                .artifacts(dir.clone())
                .build()
                .expect("smoke builds");
            match kind {
                StageKind::Crowd => drop(consumer.crowd()),
                _ => drop(consumer.crawl()),
            }
            assert_eq!(
                observer.loads(kind),
                0,
                "{stage} {label}: corrupt must not load"
            );
            assert_eq!(
                observer.starts(kind),
                1,
                "{stage} {label}: corrupt must recompute"
            );
        }
        std::fs::write(&path, pristine).expect("restore");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The JSON text of the artifact stored for `stage` in `store` — what
/// `pd artifacts cat` prints, and what the envelopes of the JSON-era
/// layout held as `payload`.
fn stored_json(store: &ArtifactStore, stage: &str) -> serde_json::Value {
    let plan = store.manifest().plan.to_plan();
    match stage {
        "crowd" => serde_json::to_value(
            &store
                .load::<CrowdArtifact>(stage, store::crowd_fingerprint(&plan))
                .expect("crowd loads"),
        ),
        "crawl" => serde_json::to_value(
            &store
                .load::<CrawlArtifact>(stage, store::crawl_fingerprint(&plan))
                .expect("crawl loads"),
        ),
        "personas" => serde_json::to_value(
            &store
                .load::<PersonaArtifact>(stage, store::personas_fingerprint(&plan))
                .expect("personas load"),
        ),
        _ => serde_json::to_value(
            &store
                .load::<AnalysisArtifact>(stage, store::analysis_fingerprint(&plan))
                .expect("analysis loads"),
        ),
    }
}

/// Rewrites the store in `dir` into the layout builds before the single
/// binary format wrote by default: a schema-v2 manifest whose entries
/// carry no format tag or chunk count and name `<stage>.json` files,
/// each a JSON envelope around the artifact. The `.bin` files go.
fn downgrade_to_json_era(dir: &std::path::Path) {
    let store = ArtifactStore::open(dir).expect("store opens");
    let mut manifest = serde_json::to_value(store.manifest());
    let serde_json::Value::Object(map) = &mut manifest else {
        panic!("manifest is an object");
    };
    map.insert("schema_version".to_owned(), serde_json::Value::Int(2));
    let Some(serde_json::Value::Array(entries)) = map.get_mut("entries") else {
        panic!("manifest lists entries");
    };
    for entry in entries {
        let serde_json::Value::Object(entry) = entry else {
            panic!("entries are objects");
        };
        let stage = entry["stage"].as_str().expect("stage").to_owned();
        let mut envelope = serde_json::Map::new();
        envelope.insert("schema_version".to_owned(), serde_json::Value::Int(2));
        envelope.insert("stage".to_owned(), entry["stage"].clone());
        envelope.insert("fingerprint".to_owned(), entry["fingerprint"].clone());
        envelope.insert("payload".to_owned(), stored_json(&store, &stage));
        let file = format!("{stage}.json");
        let text = serde_json::to_string(&serde_json::Value::Object(envelope)).expect("render");
        std::fs::write(dir.join(&file), &text).expect("write envelope");
        std::fs::remove_file(dir.join(format!("{stage}.bin"))).expect("drop the binary file");
        entry.insert("file".to_owned(), serde_json::Value::String(file));
        entry.insert("bytes".to_owned(), serde_json::to_value(&text.len()));
        entry.remove("format");
        entry.remove("chunks");
    }
    std::fs::write(
        dir.join("manifest.json"),
        serde_json::to_string_pretty(&manifest).expect("render"),
    )
    .expect("write manifest");
}

/// A store in the older JSON-era layout is refused, not misread: `pd
/// rerun` exits 1 naming the stage and the way out, `load_artifacts`
/// returns the refusal, and a read-through engine treats it as a miss —
/// it measures every stage and reports exactly what the direct run did.
#[test]
fn older_layout_store_is_refused_and_recomputed() {
    let dir = tmp("older-layout");
    let mut producer = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .build()
        .expect("smoke builds");
    let direct = producer.run();
    producer.save_artifacts(&dir).expect("save");
    downgrade_to_json_era(&dir);

    let rerun = pd()
        .arg("rerun")
        .arg(&dir)
        .output()
        .expect("pd rerun executes");
    let stderr = String::from_utf8_lossy(&rerun.stderr);
    assert_eq!(rerun.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.contains("stage crowd"), "stderr: {stderr}");
    assert!(stderr.contains("--overwrite-artifacts"), "stderr: {stderr}");

    let mut loader = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .build()
        .expect("smoke builds");
    assert!(matches!(
        loader.load_artifacts(&dir),
        Err(StoreError::OlderLayout { .. })
    ));

    let observer = Arc::new(TimingObserver::new());
    let mut consumer = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .observer(observer.clone())
        .artifacts(dir.clone())
        .build()
        .expect("smoke builds");
    assert_eq!(
        direct.to_json(),
        consumer.run().to_json(),
        "JSON must match"
    );
    for kind in [StageKind::Crowd, StageKind::Crawl, StageKind::Personas] {
        assert_eq!(observer.loads(kind), 0, "{kind} must not load");
        assert_eq!(observer.starts(kind), 1, "{kind} must recompute");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Stale fingerprints are rejected even when every file name looks
/// right: artifacts produced under seed 7 must not satisfy a seed-8 run.
#[test]
fn stale_fingerprints_are_rejected() {
    let dir = tmp("stale");
    let mut producer = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .build()
        .expect("smoke builds");
    producer.crowd();
    producer.save_artifacts(&dir).expect("save");

    let s = ArtifactStore::open(&dir).expect("store opens");
    let fp8 = store::crowd_fingerprint(&RunPlan::new(ExperimentConfig::smoke(8)));
    assert!(matches!(
        s.load::<CrowdArtifact>("crowd", fp8),
        Err(StoreError::StaleFingerprint { .. })
    ));

    let observer = Arc::new(TimingObserver::new());
    let mut consumer = Experiment::builder()
        .scenario("smoke")
        .seed(8)
        .observer(observer.clone())
        .artifacts(dir.clone())
        .build()
        .expect("smoke builds");
    consumer.crowd();
    assert_eq!(observer.loads(StageKind::Crowd), 0);
    assert_eq!(observer.starts(StageKind::Crowd), 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// Stores written before the persona artifact carried the analysis's
/// web probes have no `probes` field in `personas`: such a store still
/// loads, its analysis probes the web itself, and the report is
/// byte-identical to the direct run's.
#[test]
fn personas_without_a_probe_record_rerun_to_the_same_report() {
    let dir = tmp("no-probes");
    let mut producer = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .build()
        .expect("smoke builds");
    let direct = producer.run();
    assert!(producer.personas().probes.is_some(), "the stage probes");
    producer.save_artifacts(&dir).expect("save");

    // Re-save `personas` without the field, as older builds wrote it.
    let fp = store::personas_fingerprint(&RunPlan::new(ExperimentConfig::smoke(7)));
    let mut s = ArtifactStore::open(&dir).expect("store opens");
    let mut personas: serde_json::Value = s.load("personas", fp).expect("personas load");
    if let serde_json::Value::Object(map) = &mut personas {
        assert!(map.remove("probes").is_some(), "field stored");
    }
    s.save("personas", fp, &[], &personas).expect("re-save");

    let observer = Arc::new(TimingObserver::new());
    let mut consumer = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .observer(observer.clone())
        .artifacts(dir.clone())
        .build()
        .expect("smoke builds");
    assert!(consumer.personas().probes.is_none(), "absent is None");
    assert_eq!(observer.loads(StageKind::Personas), 1);
    assert_eq!(
        direct.to_json(),
        consumer.run().to_json(),
        "report must match"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The sum of the `name` counter over every analysis run `observer` saw.
fn analysis_counter(observer: &TimingObserver, name: &str) -> u64 {
    observer
        .timings()
        .iter()
        .filter(|t| t.stage == StageKind::Analysis)
        .flat_map(|t| t.counters.iter())
        .filter(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .sum()
}

/// The engine `pd rerun` builds over a store: the stored plan, with
/// `edit` applied, and a fresh timing observer.
fn rerun_engine(
    dir: &std::path::Path,
    edit: impl FnOnce(&mut RunPlan),
) -> (Engine, Arc<TimingObserver>) {
    let mut plan = ArtifactStore::open(dir)
        .expect("store opens")
        .manifest()
        .plan
        .to_plan();
    edit(&mut plan);
    let observer = Arc::new(TimingObserver::new());
    let mut engine = Engine::from_plan(plan, Executor::serial(), observer.clone());
    assert!(engine.load_artifacts(dir).expect("store opens").complete());
    (engine, observer)
}

/// A rerun over a binary store builds no world and decodes every stored
/// row chunk exactly once: the crawl frame's tally stands in for the
/// summary's second pass over the crawl.
#[test]
fn binary_rerun_decodes_each_chunk_once_and_builds_no_world() {
    let dir = tmp("decode-once");
    let mut producer = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .build()
        .expect("smoke builds");
    let direct = producer.run();
    producer.save_artifacts(&dir).expect("save");

    let plan = RunPlan::new(ExperimentConfig::smoke(7));
    let store = ArtifactStore::open(&dir).expect("store opens");
    let crowd = store
        .open_chunked("crowd", store::crowd_fingerprint(&plan))
        .expect("crowd opens");
    let crawl = store
        .open_chunked("crawl", store::crawl_fingerprint(&plan))
        .expect("crawl opens");
    let stored = crowd.chunk_names("raw").len()
        + crowd.chunk_names("cleaned").len()
        + crawl.chunk_names("store").len();

    let (mut engine, observer) = rerun_engine(&dir, |_| {});
    assert_eq!(engine.analyze().report.to_json(), direct.to_json());
    assert_eq!(
        observer.starts(StageKind::Build),
        0,
        "a rerun builds no world"
    );
    assert_eq!(analysis_counter(&observer, "chunks_decoded"), stored as u64);
    std::fs::remove_dir_all(&dir).ok();
}

/// A rerun at another attribution product count must probe the web, so
/// it builds the world — once, outside the analysis window — and equals
/// a direct run at that count.
#[test]
fn rerun_at_another_product_count_builds_one_world() {
    let dir = tmp("one-world");
    let mut producer = Experiment::builder()
        .scenario("smoke")
        .seed(11)
        .build()
        .expect("smoke builds");
    producer.run();
    producer.save_artifacts(&dir).expect("save");

    let (mut engine, observer) =
        rerun_engine(&dir, |plan| plan.config.analysis.attribution_products = 16);
    let rerun = engine.analyze().report;
    assert_eq!(observer.starts(StageKind::Build), 1);
    assert_eq!(analysis_counter(&observer, "attributed_retailers"), 21);
    // 21 retailers × 16 products × 12 probes, counted where they ran.
    assert_eq!(
        analysis_counter(&observer, "attribution_copies"),
        21 * 16 * 12
    );

    let mut config = ExperimentConfig::smoke(11);
    config.analysis.attribution_products = 16;
    let mut direct = Experiment::builder()
        .scenario("smoke")
        .config(config)
        .build()
        .expect("smoke builds");
    assert_eq!(rerun.to_json(), direct.run().to_json());
    std::fs::remove_dir_all(&dir).ok();
}

/// `pd run --artifacts` over a complete store reuses every stage and
/// builds no world: the run header's probe count comes from the
/// analysis context.
#[test]
fn second_run_over_a_complete_store_builds_no_world() {
    let dir = tmp("second-run");
    let run = |observer: Arc<TimingObserver>| {
        let mut arms = Experiment::builder()
            .scenario("smoke")
            .seed(7)
            .artifacts(dir.clone())
            .observer(observer)
            .run_sweep()
            .expect("smoke runs");
        let arm = arms.remove(0);
        arm.engine.save_artifacts(&dir).expect("save");
        (arm.engine.context().vantage.len(), arm.analysis.report)
    };
    let first = Arc::new(TimingObserver::new());
    let (fleet, report) = run(first.clone());
    assert_eq!((fleet, first.starts(StageKind::Build)), (14, 1));
    let second = Arc::new(TimingObserver::new());
    let (fleet, again) = run(second.clone());
    assert_eq!((fleet, second.starts(StageKind::Build)), (14, 0));
    assert_eq!(report.to_json(), again.to_json());
    std::fs::remove_dir_all(&dir).ok();
}

/// A crawl targeted from the crowd, over a store that holds only the
/// crowd: the crowd loads once — its stored slot is assembled from the
/// payload already read when the crawl needs its cleaned rows — and the
/// report equals a direct run's.
#[test]
fn a_crowd_targeted_crawl_loads_the_stored_crowd_once() {
    let dir = tmp("targeted-once");
    let targeted = || {
        Experiment::builder()
            .scenario("targeted-crawl")
            .profile(Profile::Smoke)
            .seed(7)
    };
    let mut producer = targeted().build().expect("targeted-crawl builds");
    producer.crowd();
    assert_eq!(
        producer
            .save_artifacts(&dir)
            .expect("save crowd only")
            .saved,
        vec!["crowd"]
    );
    let direct = targeted().build().expect("targeted-crawl builds").run();

    let observer = Arc::new(TimingObserver::new());
    let mut consumer = targeted()
        .observer(observer.clone())
        .artifacts(dir.clone())
        .build()
        .expect("targeted-crawl builds");
    assert_eq!(consumer.run().to_json(), direct.to_json());
    assert_eq!(consumer.loaded_stages(), [StageKind::Crowd].as_slice());
    assert_eq!(observer.loads(StageKind::Crowd), 1);
    assert_eq!(observer.starts(StageKind::Crowd), 0);
    assert_eq!(observer.starts(StageKind::Crawl), 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// Stages loaded from one store are saved into another: `save_artifacts`
/// writes every held stage the target lacks, streamed or not, and the
/// deterministic encode makes each copied `.bin` byte-identical to its
/// source. `pd rerun` over the copy equals the direct run.
#[test]
fn loaded_stages_save_into_another_store_byte_identically() {
    let root = tmp("copy-store");
    let (from, to) = (root.join("a"), root.join("b"));
    let mut producer = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .build()
        .expect("smoke builds");
    producer.run();
    producer.save_artifacts(&from).expect("save a");

    let mut loader = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .build()
        .expect("smoke builds");
    assert!(loader.load_artifacts(&from).expect("a opens").complete());
    let summary = loader.save_artifacts(&to).expect("save b");
    assert_eq!(summary.saved, vec!["crowd", "crawl", "personas"]);
    assert!(summary.fresh.is_empty(), "{summary:?}");
    for stage in ["crowd", "crawl", "personas"] {
        let file = format!("{stage}.bin");
        assert_eq!(
            std::fs::read(to.join(&file)).expect("copied stage"),
            std::fs::read(from.join(&file)).expect("source stage"),
            "{file} must be byte-identical to its source"
        );
    }

    let (direct_json, rerun_json) = (root.join("direct.json"), root.join("rerun.json"));
    let direct = pd()
        .args(["run", "smoke", "--seed", "7", "--json"])
        .arg(&direct_json)
        .output()
        .expect("pd run executes");
    assert!(direct.status.success(), "pd run failed: {direct:?}");
    let rerun = pd()
        .arg("rerun")
        .arg(&to)
        .arg("--json")
        .arg(&rerun_json)
        .output()
        .expect("pd rerun executes");
    assert!(rerun.status.success(), "pd rerun failed: {rerun:?}");
    assert_eq!(
        std::fs::read(&direct_json).expect("direct report"),
        std::fs::read(&rerun_json).expect("rerun report"),
        "a rerun over the copy must equal the direct run"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// A store file deleted behind the manifest is written again: the
/// manifest entry alone does not make a stage held. After `crawl.bin`
/// and `analysis.bin` are removed, a second run over the store
/// recomputes the crawl, saves it, and rewrites the analysis, both
/// byte-identical to the first save; every entry then verifies.
#[test]
fn deleted_store_files_are_written_again() {
    let dir = tmp("deleted-files");
    let save = || {
        let mut arms = Experiment::builder()
            .scenario("smoke")
            .seed(7)
            .artifacts(dir.clone())
            .run_sweep()
            .expect("smoke runs");
        let arm = arms.remove(0);
        let summary = arm.engine.save_artifacts(&dir).expect("save");
        arm.engine
            .save_analysis(&dir, &arm.analysis)
            .expect("save analysis");
        summary
    };
    assert_eq!(save().saved, vec!["crowd", "crawl", "personas"]);
    let files = ["crawl.bin", "analysis.bin"];
    let first: Vec<Vec<u8>> = files
        .iter()
        .map(|f| std::fs::read(dir.join(f)).expect("saved file"))
        .collect();
    for f in files {
        std::fs::remove_file(dir.join(f)).expect("remove");
    }
    let summary = save();
    assert_eq!(summary.saved, vec!["crawl"], "{summary:?}");
    assert_eq!(summary.fresh, vec!["crowd", "personas"], "{summary:?}");
    for (f, bytes) in files.iter().zip(&first) {
        assert_eq!(
            &std::fs::read(dir.join(f)).expect("rewritten file"),
            bytes,
            "{f} must come back byte-identical"
        );
    }
    let store = ArtifactStore::open(&dir).expect("store opens");
    let health = store.verify();
    assert_eq!(health.len(), 4);
    for (entry, health) in health {
        assert_eq!(health, EntryHealth::Ok, "{}", entry.stage);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The store does not depend on the thread count: a full run saved at 1
/// and at 4 threads (world build, cleaning, figures and the batched
/// save all fan across the executor) writes byte-identical `.bin` files
/// and equal manifest entries.
#[test]
fn stores_saved_at_any_thread_count_are_byte_identical() {
    let save = |scenario: &str, profile: Profile, seed: u64, threads: usize| {
        let dir = tmp(&format!("threads-{scenario}-{threads}"));
        let mut arms = Experiment::builder()
            .scenario(scenario)
            .profile(profile)
            .seed(seed)
            .threads(threads)
            .run_sweep()
            .expect("scenario runs");
        let arm = arms.remove(0);
        arm.engine.save_artifacts(&dir).expect("save");
        arm.engine
            .save_analysis(&dir, &arm.analysis)
            .expect("save analysis");
        let files: Vec<Vec<u8>> = ["crowd", "crawl", "personas", "analysis"]
            .iter()
            .map(|stage| std::fs::read(dir.join(format!("{stage}.bin"))).expect("stage file"))
            .collect();
        let entries = ArtifactStore::open(&dir)
            .expect("store opens")
            .manifest()
            .entries
            .clone();
        std::fs::remove_dir_all(&dir).ok();
        (files, entries)
    };
    for (scenario, profile, seed) in [
        ("smoke", Profile::Smoke, 7),
        ("paper", Profile::Small, 1307),
    ] {
        assert_eq!(
            save(scenario, profile, seed, 1),
            save(scenario, profile, seed, 4),
            "{scenario} seed {seed}"
        );
    }
}

fn pd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pd"))
}

/// The cross-process acceptance: one process measures and persists, a
/// second process re-analyzes the stored crawl, and the reports agree
/// byte for byte. Also proves a second run and the rerun skipped the
/// measurement stages (their stdout names the reused artifacts).
#[test]
fn rerun_reanalyzes_a_stored_smoke_crawl_across_processes() {
    let dir = tmp("cross-process");
    let direct_json = dir.join("direct.json");
    let rerun_json = dir.join("rerun.json");
    std::fs::create_dir_all(&dir).expect("mkdir");

    let run = pd()
        .args(["run", "smoke", "--seed", "7", "--timings", "--artifacts"])
        .arg(&dir)
        .arg("--json")
        .arg(&direct_json)
        .output()
        .expect("pd run executes");
    assert!(run.status.success(), "pd run failed: {run:?}");
    // `smoke` pins its base profile: the header says so, although no
    // `--profile` was given (the CLI default is small).
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        stdout.starts_with("== smoke (profile smoke, seed 7,"),
        "header must name the resolved profile:\n{stdout}"
    );
    // `--timings` times the store save and names what it wrote...
    let save_line = |stdout: &str| {
        stdout
            .lines()
            .find(|l| l.starts_with("  save "))
            .map(str::to_owned)
    };
    assert!(
        save_line(&stdout).is_some_and(|l| l.ends_with(" ms  crowd, crawl, personas, analysis")),
        "a first run must time its save:\n{stdout}"
    );
    // A second run against the store names the reused stages in run
    // order, and builds no world.
    let again = pd()
        .args(["run", "smoke", "--seed", "7", "--timings", "--artifacts"])
        .arg(&dir)
        .output()
        .expect("pd run executes");
    assert!(again.status.success(), "pd run failed: {again:?}");
    let stdout = String::from_utf8_lossy(&again.stdout);
    assert!(
        stdout.contains("reused crowd, crawl, personas"),
        "a second run must reuse every measurement stage:\n{stdout}"
    );
    assert!(
        stdout.contains("14 probes") && !stdout.lines().any(|l| l.starts_with("  build ")),
        "a second run must build no world:\n{stdout}"
    );
    // ...and prints no save line when nothing was written.
    assert_eq!(save_line(&stdout), None, "a second run saves nothing");
    assert!(
        stdout.contains("artifacts: store up to date"),
        "a second run must say the store is up to date:\n{stdout}"
    );
    // A stage file deleted behind the manifest is written again, and both
    // the message and the save line name that stage alone: the analysis
    // entry is held and not rewritten.
    let crawl_bin = dir.join("crawl.bin");
    let crawl_bytes = std::fs::read(&crawl_bin).expect("crawl.bin written");
    std::fs::remove_file(&crawl_bin).expect("rm crawl.bin");
    let third = pd()
        .args(["run", "smoke", "--seed", "7", "--timings", "--artifacts"])
        .arg(&dir)
        .output()
        .expect("pd run executes");
    assert!(third.status.success(), "pd run failed: {third:?}");
    let stdout = String::from_utf8_lossy(&third.stdout);
    assert!(
        stdout.contains(&format!("artifacts: saved crawl to {}\n", dir.display())),
        "the message must name the crawl only:\n{stdout}"
    );
    assert!(
        save_line(&stdout).is_some_and(|l| l.ends_with(" ms  crawl")),
        "the save line must name the crawl only:\n{stdout}"
    );
    assert_eq!(
        std::fs::read(&crawl_bin).expect("crawl.bin rewritten"),
        crawl_bytes
    );

    let rerun = pd()
        .arg("rerun")
        .arg(&dir)
        .arg("--json")
        .arg(&rerun_json)
        .output()
        .expect("pd rerun executes");
    assert!(rerun.status.success(), "pd rerun failed: {rerun:?}");
    let stdout = String::from_utf8_lossy(&rerun.stdout);
    assert!(
        stdout.contains("reused crowd, crawl, personas"),
        "rerun must reuse every measurement stage:\n{stdout}"
    );

    let direct = std::fs::read(&direct_json).expect("direct report written");
    let reran = std::fs::read(&rerun_json).expect("rerun report written");
    assert_eq!(direct, reran, "rerun JSON must equal the direct run's");

    // `pd artifacts ls` sees a healthy, fully-lineaged store.
    let ls = pd()
        .args(["artifacts", "ls"])
        .arg(&dir)
        .output()
        .expect("ls");
    assert!(ls.status.success());
    let ls_out = String::from_utf8_lossy(&ls.stdout);
    for needle in [
        "crowd",
        "crawl",
        "personas",
        "analysis",
        "upstream",
        "ok",
        "profile smoke",
    ] {
        assert!(ls_out.contains(needle), "missing {needle:?} in:\n{ls_out}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The binary store, cross-process: `pd run --artifacts` writes `.bin`
/// files no larger in total than the format's sizing run, `pd rerun`
/// reproduces the direct report byte for byte from them, `pd artifacts
/// ls` shows the format and chunk counts, and `pd artifacts cat` prints
/// each stage as exactly the JSON of the engine's artifact while
/// leaving every file as it was.
#[test]
fn binary_store_reruns_byte_identically_across_processes() {
    let bin_dir = tmp("cross-binary");
    let direct_json = bin_dir.join("direct.json");
    let rerun_json = bin_dir.join("rerun.json");
    std::fs::create_dir_all(&bin_dir).expect("mkdir");

    let run = pd()
        .args(["run", "smoke", "--seed", "7", "--artifacts"])
        .arg(&bin_dir)
        .arg("--json")
        .arg(&direct_json)
        .output()
        .expect("pd run executes");
    assert!(run.status.success(), "pd run failed: {run:?}");

    // The four stage files of smoke seed 7 totalled 138,751 bytes when
    // the binary format became the only one; they may not grow.
    const STAGES: [&str; 4] = ["crowd", "crawl", "personas", "analysis"];
    let files: Vec<Vec<u8>> = STAGES
        .iter()
        .map(|stage| {
            std::fs::read(bin_dir.join(format!("{stage}.bin")))
                .unwrap_or_else(|_| panic!("{stage}.bin missing"))
        })
        .collect();
    let bin_total: usize = files.iter().map(Vec::len).sum();
    assert!(bin_total <= 138_751, "binary store grew: {bin_total} bytes");

    let rerun = pd()
        .arg("rerun")
        .arg(&bin_dir)
        .arg("--json")
        .arg(&rerun_json)
        .output()
        .expect("pd rerun executes");
    assert!(rerun.status.success(), "pd rerun failed: {rerun:?}");
    let stdout = String::from_utf8_lossy(&rerun.stdout);
    assert!(
        stdout.contains("reused crowd, crawl, personas"),
        "rerun must reuse every measurement stage:\n{stdout}"
    );
    let direct = std::fs::read(&direct_json).expect("direct report written");
    assert_eq!(
        direct,
        std::fs::read(&rerun_json).expect("rerun report written"),
        "rerun from the binary store must equal the direct run's JSON"
    );

    let ls = pd()
        .args(["artifacts", "ls"])
        .arg(&bin_dir)
        .output()
        .expect("ls");
    assert!(ls.status.success());
    let ls_out = String::from_utf8_lossy(&ls.stdout);
    assert!(
        ls_out.contains("binary"),
        "ls must show the format:\n{ls_out}"
    );
    assert!(
        ls_out.contains("chunks"),
        "ls must show chunk counts:\n{ls_out}"
    );

    // `pd artifacts cat` prints each stage as the JSON of the artifact
    // the engine computes in-process, and reads without writing.
    let mut engine = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .build()
        .expect("smoke builds");
    let analysis = engine.analyze();
    let expected = [
        serde_json::to_string(engine.crowd()),
        serde_json::to_string(engine.crawl()),
        serde_json::to_string(engine.personas()),
        serde_json::to_string(&analysis),
    ];
    for (stage, expected) in STAGES.iter().zip(expected) {
        let cat = pd()
            .args(["artifacts", "cat"])
            .arg(&bin_dir)
            .arg(stage)
            .output()
            .expect("cat");
        assert!(cat.status.success(), "cat {stage} failed: {cat:?}");
        assert_eq!(
            String::from_utf8(cat.stdout).expect("utf-8"),
            format!("{}\n", expected.expect("renders")),
            "cat {stage} must print the engine's artifact"
        );
    }
    for (stage, before) in STAGES.iter().zip(&files) {
        assert_eq!(
            &std::fs::read(bin_dir.join(format!("{stage}.bin"))).expect("still there"),
            before,
            "cat must leave {stage}.bin untouched"
        );
    }
    let bad = pd()
        .args(["artifacts", "cat"])
        .arg(&bin_dir)
        .arg("build")
        .output()
        .expect("cat");
    assert_eq!(
        bad.status.code(),
        Some(2),
        "an unknown stage is a usage error"
    );
    std::fs::remove_dir_all(&bin_dir).ok();
}

/// CLI error-path contract: unknown scenarios/commands/stores exit
/// nonzero with the diagnostic on stderr (and the scenario list where
/// it helps), never a quiet success.
#[test]
fn cli_errors_hit_stderr_with_nonzero_exit() {
    let bad_scenario = pd().args(["run", "nope"]).output().expect("runs");
    assert_eq!(bad_scenario.status.code(), Some(2));
    let err = String::from_utf8_lossy(&bad_scenario.stderr);
    assert!(err.contains("unknown scenario"), "stderr: {err}");
    assert!(
        err.contains("desync-ablation") && err.contains("paper"),
        "error must list the registered scenarios: {err}"
    );
    assert!(bad_scenario.stdout.is_empty(), "errors must not hit stdout");

    let bad_cmd = pd().arg("frobnicate").output().expect("runs");
    assert_eq!(bad_cmd.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_cmd.stderr).contains("unknown command"));

    let no_store = pd()
        .arg("rerun")
        .arg(std::env::temp_dir().join("pd-definitely-not-a-store"))
        .output()
        .expect("runs");
    assert_eq!(no_store.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&no_store.stderr).contains("not an artifact store"));

    let bad_flag = pd().args(["run", "smoke", "--wat"]).output().expect("runs");
    assert_eq!(bad_flag.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_flag.stderr).contains("unknown flag"));

    // A trailing argument is a usage error, never silently ignored.
    let dir = std::env::temp_dir().join("pd-definitely-not-a-store");
    let dir = dir.to_str().expect("utf-8 temp dir");
    for (args, usage) in [
        (&["list", "extra"][..], "usage: pd list"),
        (
            &["artifacts", "ls", dir, "extra"],
            "usage: pd artifacts ls <DIR>",
        ),
        (&["artifacts", "ls"], "usage: pd artifacts ls <DIR>"),
        (
            &["artifacts", "export", dir, "out", "extra"],
            "usage: pd artifacts export <DIR> <OUT>",
        ),
        (
            &["artifacts", "export", dir],
            "usage: pd artifacts export <DIR> <OUT>",
        ),
    ] {
        let out = pd().args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "pd {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(usage), "pd {args:?}: {err}");
        assert!(out.stdout.is_empty(), "pd {args:?} wrote to stdout");
    }
}

/// `pd artifacts export DIR OUT` writes the stored cleaned crowd and
/// crawl exactly as `pd_sheriff::export` renders an in-process run of
/// the same plan; a directory that is not a store fails at run time.
#[test]
fn export_writes_the_stored_datasets_across_processes() {
    let dir = tmp("export");
    let store_dir = dir.join("store");
    let out_dir = dir.join("out");
    let run = pd()
        .args(["run", "smoke", "--seed", "7", "--artifacts"])
        .arg(&store_dir)
        .output()
        .expect("pd run executes");
    assert!(run.status.success(), "pd run failed: {run:?}");
    let export = pd()
        .args(["artifacts", "export"])
        .arg(&store_dir)
        .arg(&out_dir)
        .output()
        .expect("pd artifacts export executes");
    assert!(
        export.status.success(),
        "pd artifacts export failed: {export:?}"
    );

    let mut engine = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .build()
        .expect("smoke builds");
    let cleaned = engine.crowd().cleaned.clone();
    let crawl = engine.crawl().store.clone();
    for (name, expected) in [
        ("crowd.csv", pd_sheriff::export::to_csv(&cleaned)),
        ("crowd.jsonl", pd_sheriff::export::to_jsonl(&cleaned)),
        ("crawl.csv", pd_sheriff::export::to_csv(&crawl)),
        ("crawl.jsonl", pd_sheriff::export::to_jsonl(&crawl)),
    ] {
        let written = std::fs::read_to_string(out_dir.join(name)).expect("exported file");
        assert!(!written.is_empty(), "{name} is empty");
        assert!(
            written == expected,
            "{name} differs from the in-process export"
        );
    }

    let no_store = pd()
        .args(["artifacts", "export"])
        .arg(&out_dir)
        .arg(dir.join("out2"))
        .output()
        .expect("runs");
    assert_eq!(no_store.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&no_store.stderr).contains("not an artifact store"));
    let bad_count = pd()
        .args(["artifacts", "export"])
        .arg(&store_dir)
        .output()
        .expect("runs");
    assert_eq!(bad_count.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

/// `pd rerun --set analysis.attribution_products=N` over a store probed
/// at another count re-probes at N: the report equals a direct run with
/// the knob set to N.
#[test]
fn rerun_at_another_attribution_count_equals_a_direct_run() {
    let dir = tmp("attribution-16");
    let direct_json = dir.join("direct.json");
    let rerun_json = dir.join("rerun.json");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let store_dir = dir.join("store");
    let run = pd()
        .args(["run", "smoke", "--seed", "11", "--artifacts"])
        .arg(&store_dir)
        .output()
        .expect("pd run executes");
    assert!(run.status.success(), "pd run failed: {run:?}");
    let direct = pd()
        .args(["run", "smoke", "--seed", "11"])
        .args(["--set", "analysis.attribution_products=16", "--json"])
        .arg(&direct_json)
        .output()
        .expect("pd run executes");
    assert!(direct.status.success(), "pd run failed: {direct:?}");
    let rerun = pd()
        .arg("rerun")
        .arg(&store_dir)
        .args(["--set", "analysis.attribution_products=16", "--json"])
        .arg(&rerun_json)
        .output()
        .expect("pd rerun executes");
    assert!(rerun.status.success(), "pd rerun failed: {rerun:?}");
    assert_eq!(
        std::fs::read(&direct_json).expect("direct report"),
        std::fs::read(&rerun_json).expect("rerun report"),
        "rerun at 16 products must equal the direct run at 16"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `pd rerun --set` takes any plan key, but a key outside `analysis.`
/// changes a measurement fingerprint, so the stored stages are stale
/// and the rerun refuses them (exit 1); an unknown key is a usage error
/// (exit 2).
#[test]
fn rerun_set_refuses_measurement_keys_and_unknown_keys() {
    let dir = tmp("rerun-set");
    let run = pd()
        .args(["run", "smoke", "--seed", "11", "--artifacts"])
        .arg(&dir)
        .output()
        .expect("pd run executes");
    assert!(run.status.success(), "pd run failed: {run:?}");
    let stale = pd()
        .arg("rerun")
        .arg(&dir)
        .args(["--set", "crowd.users=5"])
        .output()
        .expect("pd rerun executes");
    assert_eq!(stale.status.code(), Some(1), "{stale:?}");
    assert!(
        String::from_utf8_lossy(&stale.stderr).contains("stale fingerprints"),
        "{stale:?}"
    );
    let unknown = pd()
        .arg("rerun")
        .arg(&dir)
        .args(["--set", "analysis.nope=1"])
        .output()
        .expect("pd rerun executes");
    assert_eq!(unknown.status.code(), Some(2), "{unknown:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that closes `pd`'s stdout after one line (`pd … | head -1`)
/// ends it quietly: no panic, no exit status 101. The sweep's rendered
/// output is larger than a pipe buffer, so `pd` is still writing when
/// the pipe closes.
#[test]
fn closed_stdout_ends_pd_quietly() {
    use std::io::BufRead;
    for args in [
        &["run", "smoke", "--seed", "3"][..],
        &["run", "seed-sweep", "--render"][..],
    ] {
        let mut child = pd()
            .args(args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("pd spawns");
        let mut first = String::new();
        std::io::BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut first)
            .expect("first line");
        assert!(first.starts_with("=="), "{args:?}: {first:?}");
        // The reader is dropped here: the pipe is closed.
        let out = child.wait_with_output().expect("pd exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_ne!(out.status.code(), Some(101), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}

/// A store produced by one run is never silently destroyed by another:
/// saving under a different seed fails with guidance, succeeds with
/// `--overwrite-artifacts`, and the original artifacts survive the
/// refusal untouched.
#[test]
fn different_plan_never_clobbers_a_store_without_consent() {
    let dir = tmp("no-clobber");
    let run7 = pd()
        .args(["run", "smoke", "--seed", "7", "--artifacts"])
        .arg(&dir)
        .output()
        .expect("seed-7 run");
    assert!(run7.status.success());
    let crowd_before = std::fs::read(dir.join("crowd.bin")).expect("stored");

    let run8 = pd()
        .args(["run", "smoke", "--seed", "8", "--artifacts"])
        .arg(&dir)
        .output()
        .expect("seed-8 run");
    assert_eq!(run8.status.code(), Some(1), "clobber must be refused");
    let err = String::from_utf8_lossy(&run8.stderr);
    assert!(err.contains("different run plan"), "stderr: {err}");
    assert!(err.contains("--overwrite-artifacts"), "stderr: {err}");
    assert_eq!(
        std::fs::read(dir.join("crowd.bin")).expect("still stored"),
        crowd_before,
        "the refused save must leave the original artifacts intact"
    );

    let run8_forced = pd()
        .args([
            "run",
            "smoke",
            "--seed",
            "8",
            "--overwrite-artifacts",
            "--artifacts",
        ])
        .arg(&dir)
        .output()
        .expect("forced seed-8 run");
    assert!(run8_forced.status.success(), "{run8_forced:?}");
    let ls = pd()
        .args(["artifacts", "ls"])
        .arg(&dir)
        .output()
        .expect("ls");
    assert!(String::from_utf8_lossy(&ls.stdout).contains("seed 8"));

    // A JSON-era store (the default layout of older builds) is refused
    // the same way, even for the very plan that produced it: without the
    // flag the run fails naming the flag and leaves every file as it
    // was; with it the store is replaced by a binary one.
    downgrade_to_json_era(&dir);
    let json_era: Vec<(std::ffi::OsString, Vec<u8>)> = std::fs::read_dir(&dir)
        .expect("readdir")
        .map(|e| {
            let e = e.expect("entry");
            (e.file_name(), std::fs::read(e.path()).expect("read"))
        })
        .collect();
    let refused = pd()
        .args(["run", "smoke", "--seed", "8", "--artifacts"])
        .arg(&dir)
        .output()
        .expect("seed-8 run over a JSON-era store");
    assert_eq!(refused.status.code(), Some(1), "{refused:?}");
    let err = String::from_utf8_lossy(&refused.stderr);
    assert!(err.contains("older artifact store"), "stderr: {err}");
    assert!(err.contains("--overwrite-artifacts"), "stderr: {err}");
    for (name, bytes) in &json_era {
        assert_eq!(
            &std::fs::read(dir.join(name)).expect("still stored"),
            bytes,
            "the refused save must leave {name:?} intact"
        );
    }
    assert_eq!(
        std::fs::read_dir(&dir).expect("readdir").count(),
        json_era.len()
    );

    let replaced = pd()
        .args([
            "run",
            "smoke",
            "--seed",
            "8",
            "--overwrite-artifacts",
            "--artifacts",
        ])
        .arg(&dir)
        .output()
        .expect("forced seed-8 run over a JSON-era store");
    assert!(replaced.status.success(), "{replaced:?}");
    assert!(dir.join("crowd.bin").is_file() && !dir.join("crowd.json").exists());
    let ls = pd()
        .args(["artifacts", "ls"])
        .arg(&dir)
        .output()
        .expect("ls");
    let ls_out = String::from_utf8_lossy(&ls.stdout);
    assert!(ls.status.success() && ls_out.contains("binary"), "{ls_out}");
    std::fs::remove_dir_all(&dir).ok();
}
