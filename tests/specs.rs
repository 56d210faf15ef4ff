//! The declarative-spec contracts (ISSUE 5 acceptance):
//!
//! * **golden** — every builtin scenario, round-tripped through its
//!   JSON spec, renders byte-identical reports to the registry version,
//!   across 1 and 4 threads,
//! * **property** — `ScenarioSpec` → JSON → `ScenarioSpec` is lossless:
//!   equal spec, identical fingerprint, identical lowered plans,
//! * **failure injection** — a spec-set failure rate drops the same
//!   requests at any thread count (the world keys failures, it does not
//!   sample them),
//! * **CLI** — `pd run --spec FILE.json` executes a checked-in-style
//!   spec, `pd scenarios show --json` emits a spec that parses back to
//!   the builtin, `--set` overrides compose, typos get did-you-mean,
//!   and spec runs record their spec in the artifact manifest.

use pd_core::spec::builtin_specs;
use pd_core::store::ArtifactStore;
use pd_core::{
    BuildError, ConfigPatch, Executor, Experiment, ExperimentConfig, Profile, RunPlan,
    ScenarioParams, ScenarioSpec, SweepAxis, TimingObserver, World,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pd-specs-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn pd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pd"))
}

fn smoke_params() -> ScenarioParams {
    ScenarioParams {
        seed: 1307,
        profile: Profile::Smoke,
    }
}

/// Lowering is pure data → data: the JSON round trip of every builtin
/// produces exactly the plans the registry version produces.
#[test]
fn builtin_specs_lower_identically_after_json_round_trip() {
    for spec in builtin_specs() {
        let round_tripped = ScenarioSpec::from_json(&spec.to_json_pretty())
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let direct: Vec<(String, RunPlan)> = spec.plan(&smoke_params()).into_variants();
        let via_json: Vec<(String, RunPlan)> = round_tripped.plan(&smoke_params()).into_variants();
        assert_eq!(
            direct, via_json,
            "{} lowers differently via JSON",
            spec.name
        );
    }
}

/// The golden acceptance: every builtin scenario re-expressed as a JSON
/// spec renders a byte-identical report to the registry version — with
/// the registry run at 1 thread and the spec run at 4, so the equality
/// also pins thread-count determinism of the spec path.
#[test]
fn golden_spec_reports_byte_identical_to_registry_at_1_and_4_threads() {
    for spec in builtin_specs() {
        let name = spec.name.clone();
        let registry_arms: Vec<(String, String, String)> = Experiment::builder()
            .scenario(&name)
            .profile(Profile::Smoke)
            .seed(1307)
            .threads(1)
            .run_sweep()
            .unwrap_or_else(|e| panic!("{name} registry run: {e}"))
            .into_iter()
            .map(|arm| {
                (
                    arm.label,
                    arm.analysis.report.to_json(),
                    arm.analysis.report.render_all(),
                )
            })
            .collect();

        let round_tripped =
            ScenarioSpec::from_json(&spec.to_json_pretty()).expect("builtin round-trips");
        let spec_arms: Vec<(String, String, String)> = Experiment::builder()
            .spec(round_tripped)
            .profile(Profile::Smoke)
            .seed(1307)
            .threads(4)
            .run_sweep()
            .unwrap_or_else(|e| panic!("{name} spec run: {e}"))
            .into_iter()
            .map(|arm| {
                (
                    arm.label,
                    arm.analysis.report.to_json(),
                    arm.analysis.report.render_all(),
                )
            })
            .collect();

        assert_eq!(
            registry_arms, spec_arms,
            "{name}: spec run (4 threads) diverged from registry run (1 thread)"
        );
    }
}

/// An invalid spec surfaces as a typed build error, not a panic.
#[test]
fn builder_rejects_invalid_specs() {
    let invalid = ScenarioSpec {
        sweep: vec![SweepAxis::Seeds { count: 0 }],
        ..ScenarioSpec::single("broken", "zero-arm sweep")
    };
    assert!(matches!(
        Experiment::builder().spec(invalid).run_sweep(),
        Err(BuildError::InvalidSpec { .. })
    ));
}

/// A nonzero failure rate drops the same requests at any thread count
/// (failures are keyed hashes of (client, uri, second), not samples of
/// shared RNG state), and actually bites: fewer measurements than the
/// clean run, retries in the crawl.
#[test]
fn failure_rate_drops_the_same_requests_at_any_thread_count() {
    let mut config = ExperimentConfig::smoke(1307);
    config.world.failure_rate = 0.2;
    let plan = RunPlan::new(config);
    let world = World::build(&plan.config);

    let crowd = |threads: usize| {
        pd_core::stage::crowd_stage(
            &world,
            &plan,
            &Executor::new(threads),
            &TimingObserver::new(),
        )
    };
    let serial = crowd(1);
    let fanned = crowd(4);
    let json = |a: &pd_core::CrowdArtifact| {
        serde_json::to_string(&serde_json::to_value(a)).expect("artifact serializes")
    };
    assert_eq!(
        json(&serial),
        json(&fanned),
        "failure injection must be deterministic across thread counts"
    );

    let clean_plan = RunPlan::new(ExperimentConfig::smoke(1307));
    let clean_world = World::build(&clean_plan.config);
    let clean = pd_core::stage::crowd_stage(
        &clean_world,
        &clean_plan,
        &Executor::serial(),
        &TimingObserver::new(),
    );
    assert!(
        serial.raw.len() < clean.raw.len(),
        "a 20% failure rate must drop crowd measurements ({} vs {})",
        serial.raw.len(),
        clean.raw.len()
    );

    let targets = world.paper_crawl_targets();
    let crawl = pd_core::stage::crawl_stage(
        &world,
        &plan.config,
        &targets,
        &Executor::new(4),
        &TimingObserver::new(),
    );
    let retries: usize = crawl.stats.iter().map(|s| s.retries).sum();
    assert!(retries > 0, "the crawler must retry injected failures");
}

/// The crowd-targeted crawl visits a genuinely different target set
/// than the paper's fixed list, and every extra domain it selects is a
/// true discriminator (the crowd signal, not noise, picks targets).
#[test]
fn targeted_crawl_selects_crowd_confirmed_discriminators() {
    let mut targeted = Experiment::builder()
        .scenario("targeted-crawl")
        .profile(Profile::Smoke)
        .seed(7)
        .build()
        .expect("targeted-crawl builds");
    let domains = targeted.crawl().store.domains();
    let mut paper = Experiment::builder()
        .scenario("paper")
        .profile(Profile::Smoke)
        .seed(7)
        .build()
        .expect("paper builds");
    assert_ne!(
        domains,
        paper.crawl().store.domains(),
        "targeted crawl must not just re-crawl the paper list"
    );
    for domain in &domains {
        let spec = targeted
            .world()
            .web
            .server_by_domain(domain)
            .map(|s| s.spec().clone());
        if let Some(spec) = spec {
            assert!(spec.is_discriminating(), "{domain} crawled but uniform");
        }
    }
}

proptest! {
    /// `ScenarioSpec` → JSON → `ScenarioSpec`: equal value, identical
    /// fingerprint, identical lowered plans — over randomized specs
    /// covering every axis kind, pinned/unpinned profiles and patch
    /// fields (including the f64 failure rate).
    #[test]
    fn prop_spec_json_round_trip_preserves_fingerprint(
        axes_mask in 0u8..64,
        seed_count in 1u64..4,
        rate_milli in 0u64..=1000,
        desync_mins in 0u64..90,
        scale_pct in 1u64..250,
        users in 1usize..300,
        pin in 0usize..5,
        name in "[a-z][a-z0-9-]{0,14}",
        label in "[a-z][a-z0-9]{0,6}",
    ) {
        let rate = rate_milli as f64 / 1000.0;
        let mut sweep = Vec::new();
        if axes_mask & 1 != 0 {
            sweep.push(SweepAxis::Seeds { count: seed_count });
        }
        if axes_mask & 2 != 0 {
            sweep.push(SweepAxis::Locales { arms: vec![
                pd_core::spec::LocaleArm { label: format!("{label}-us"), country: pd_net::geo::Country::UnitedStates },
                pd_core::spec::LocaleArm { label: format!("{label}-jp"), country: pd_net::geo::Country::Japan },
            ]});
        }
        if axes_mask & 4 != 0 {
            sweep.push(SweepAxis::CrowdSizes { arms: vec![
                pd_core::spec::CrowdSizeArm { label: format!("{label}-a"), scale_pct },
                pd_core::spec::CrowdSizeArm { label: format!("{label}-b"), scale_pct: scale_pct + 50 },
            ]});
        }
        if axes_mask & 8 != 0 {
            sweep.push(SweepAxis::FailureRates { arms: vec![
                pd_core::spec::FailureRateArm { label: format!("{label}-f"), rate },
            ]});
        }
        if axes_mask & 16 != 0 {
            sweep.push(SweepAxis::DesyncMins { arms: vec![
                pd_core::spec::DesyncArm { label: format!("{label}-d"), mins: desync_mins },
            ]});
        }
        if axes_mask & 32 != 0 {
            sweep.push(SweepAxis::VantageSubsets { arms: vec![
                pd_core::spec::VantageArm {
                    label: format!("{label}-v"),
                    labels: vec!["USA - Boston".to_owned(), "Finland - Tampere".to_owned()],
                },
            ]});
        }
        let profiles = ["smoke", "small", "medium", "paper"];
        let spec = ScenarioSpec {
            name,
            describe: "randomized spec".to_owned(),
            base: (pin > 0).then(|| profiles[pin - 1].to_owned()),
            patch: ConfigPatch {
                users: Some(users),
                failure_rate: Some(rate),
                desync_mins: Some(desync_mins),
                ..ConfigPatch::default()
            },
            sweep,
        };
        prop_assert!(spec.validate().is_ok(), "generated specs are valid by construction");

        let json = spec.to_json_pretty();
        let back = ScenarioSpec::from_json(&json).expect("round trip parses");
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.fingerprint(), spec.fingerprint());

        let params = smoke_params();
        let direct = spec.plan(&params).into_variants();
        let via_json = back.plan(&params).into_variants();
        prop_assert_eq!(direct, via_json, "lowering must be JSON-stable");
    }
}

/// `pd scenarios show NAME --json` emits exactly the builtin spec, and
/// the emitted JSON feeds straight back into `pd run --spec`.
#[test]
fn cli_scenarios_show_round_trips_and_spec_runs() {
    let dir = tmp("cli-show");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let show = pd()
        .args(["scenarios", "show", "targeted-crawl", "--json"])
        .output()
        .expect("pd runs");
    assert!(show.status.success(), "show failed: {show:?}");
    let json = String::from_utf8(show.stdout).expect("utf8");
    let spec = ScenarioSpec::from_json(&json).expect("emitted spec parses");
    let builtin = builtin_specs()
        .into_iter()
        .find(|s| s.name == "targeted-crawl")
        .expect("builtin exists");
    assert_eq!(spec, builtin, "show must dump the builtin verbatim");

    let spec_file = dir.join("targeted.json");
    std::fs::write(&spec_file, &json).expect("write spec");
    let direct_json = dir.join("direct.json");
    let via_spec_json = dir.join("via-spec.json");
    let direct = pd()
        .args([
            "run",
            "targeted-crawl",
            "--profile",
            "smoke",
            "--seed",
            "9",
            "--json",
        ])
        .arg(&direct_json)
        .output()
        .expect("pd runs");
    assert!(direct.status.success(), "direct run failed: {direct:?}");
    let via_spec = pd()
        .args(["run", "--spec"])
        .arg(&spec_file)
        .args([
            "--profile",
            "smoke",
            "--seed",
            "9",
            "--threads",
            "2",
            "--json",
        ])
        .arg(&via_spec_json)
        .output()
        .expect("pd runs");
    assert!(via_spec.status.success(), "spec run failed: {via_spec:?}");
    assert_eq!(
        std::fs::read(&direct_json).expect("direct report"),
        std::fs::read(&via_spec_json).expect("spec report"),
        "spec file run must reproduce the registry run byte-for-byte"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--set` overrides reach the run (fewer checks requested → fewer
/// crowd requests reported), bad keys/values and typo'd scenario names
/// are usage errors with helpful stderr.
#[test]
fn cli_set_overrides_and_error_paths() {
    let out = pd()
        .args([
            "run",
            "smoke",
            "--set",
            "crowd.checks=10",
            "--set",
            "crowd.users=5",
        ])
        .output()
        .expect("pd runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(
        stdout.contains("crowd requests:        10"),
        "--set crowd.checks must shrink the campaign:\n{stdout}"
    );

    let bad_key = pd()
        .args(["run", "smoke", "--set", "warp.speed=9"])
        .output()
        .expect("pd runs");
    assert_eq!(
        bad_key.status.code(),
        Some(2),
        "bad --set key is a usage error"
    );
    assert!(String::from_utf8_lossy(&bad_key.stderr).contains("unknown key"));

    let bad_value = pd()
        .args(["run", "smoke", "--set", "world.failure_rate=2.0"])
        .output()
        .expect("pd runs");
    assert_eq!(bad_value.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_value.stderr).contains("outside [0, 1]"));

    let conflict = pd()
        .args(["run", "failure-sweep", "--set", "world.failure_rate=0.9"])
        .output()
        .expect("pd runs");
    assert_eq!(
        conflict.status.code(),
        Some(1),
        "an override a sweep axis clobbers must be refused"
    );
    assert!(String::from_utf8_lossy(&conflict.stderr).contains("FailureRates sweep axis"));

    let typo_spec = tmp("typo-spec");
    std::fs::create_dir_all(&typo_spec).expect("mkdir");
    let typo_file = typo_spec.join("typo.json");
    std::fs::write(
        &typo_file,
        r#"{"name":"x","describe":"d","base":null,"patch":{"failure_rat":0.5},"sweep":[]}"#,
    )
    .expect("write");
    let unknown_key = pd()
        .args(["run", "--spec"])
        .arg(&typo_file)
        .output()
        .expect("pd runs");
    assert_eq!(
        unknown_key.status.code(),
        Some(1),
        "a misspelled spec key must not silently run the baseline"
    );
    assert!(String::from_utf8_lossy(&unknown_key.stderr).contains("failure_rat"));
    std::fs::remove_dir_all(&typo_spec).ok();

    let typo = pd().args(["run", "crowd-swep"]).output().expect("pd runs");
    assert_eq!(typo.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&typo.stderr);
    assert!(
        stderr.contains("did you mean \"crowd-sweep\"?"),
        "typo must get a did-you-mean hint:\n{stderr}"
    );

    let neither = pd().args(["run"]).output().expect("pd runs");
    assert_eq!(neither.status.code(), Some(2));
    let both = pd()
        .args(["run", "smoke", "--spec", "nope.json"])
        .output()
        .expect("pd runs");
    assert_eq!(
        both.status.code(),
        Some(2),
        "scenario AND --spec is ambiguous"
    );
}

/// A vantage subset that names an unknown probe, or drops one the
/// pipeline needs, is a spec error (exit 1, the label named) before any
/// stage runs — never a mid-run panic (exit 101).
#[test]
fn cli_rejects_vantage_subsets_the_pipeline_cannot_run() {
    for (subset, named) in [
        ("USA - Boston, Germany - Berlin", "\"Finland - Tampere\""),
        ("Mars - Olympus", "\"Mars - Olympus\""),
    ] {
        let out = pd()
            .args(["run", "smoke", "--set"])
            .arg(format!("vantage_labels={subset}"))
            .output()
            .expect("pd runs");
        assert_eq!(out.status.code(), Some(1), "{subset}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("invalid scenario spec") && stderr.contains(named),
            "{subset}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

/// A spec-driven artifact store records the exact producing spec in its
/// manifest, and a second engine built from that recorded spec reloads
/// the store without recomputing.
#[test]
fn spec_runs_record_their_spec_in_the_manifest() {
    let dir = tmp("manifest-spec");
    let spec = ScenarioSpec {
        patch: ConfigPatch {
            failure_rate: Some(0.05),
            ..ConfigPatch::default()
        },
        ..ScenarioSpec::single("flaky-once", "5% failures, single run")
    };
    let mut arms = Experiment::builder()
        .spec(spec.clone())
        .profile(Profile::Smoke)
        .seed(11)
        .artifacts(dir.clone())
        .run_sweep()
        .expect("spec runs");
    assert_eq!(arms.len(), 1);
    let arm = arms.remove(0);
    arm.engine.save_artifacts(&dir).expect("save");

    let manifest = ArtifactStore::open(&dir)
        .expect("store opens")
        .manifest()
        .clone();
    let recorded = manifest.spec.expect("manifest records the spec");
    assert_eq!(recorded, spec);
    assert_eq!(manifest.provenance.scenario, "flaky-once");

    // The recorded spec is executable: a fresh engine built from it
    // reuses every stored measurement stage.
    let mut reloaded = Experiment::builder()
        .spec(recorded)
        .profile(Profile::Smoke)
        .seed(11)
        .artifacts(dir.clone())
        .build()
        .expect("recorded spec builds");
    let report = reloaded.run();
    assert_eq!(
        reloaded.loaded_stages().len(),
        3,
        "all measurement stages must come from the store"
    );
    assert_eq!(report.to_json(), arm.analysis.report.to_json());
    std::fs::remove_dir_all(&dir).ok();
}
