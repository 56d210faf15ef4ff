//! Reproducibility guarantees: the whole study is a deterministic
//! function of the seed.

use pd_core::{
    stage, Engine, Executor, Experiment, ExperimentConfig, Profile, Report, RunPlan,
    TimingObserver, World,
};
use std::sync::Arc;

/// FNV-1a64 over (seed, report JSON) of `pd run paper --profile small`
/// at seed 1307, then seed 2024. Pinned so that a crawl-side speedup
/// (fan-out, parsing, extraction) cannot move a single report byte
/// without failing here; the cross-thread goldens only compare a build
/// with itself.
const PAPER_SMALL_REPORT_DIGEST: u64 = 0x7a38_b8b1_92c7_fb87;

/// The whole pipeline over `config`'s default plan, sequentially.
fn run(config: ExperimentConfig) -> Report {
    let observer = Arc::new(TimingObserver::new());
    Engine::from_plan(RunPlan::new(config), Executor::serial(), observer).run()
}

fn fnv1a64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn same_seed_same_report() {
    let a = run(ExperimentConfig::small(77));
    let b = run(ExperimentConfig::small(77));
    // JSON is the strictest practical equality over the whole report.
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn different_seed_different_data() {
    let a = run(ExperimentConfig::small(77));
    let b = run(ExperimentConfig::small(78));
    assert_ne!(a.to_json(), b.to_json());
    // ...but the qualitative conclusions are seed-independent:
    for r in [&a, &b] {
        assert!(r.persona.null_result, "persona null must hold at any seed");
        assert!(!r.fig1.is_empty());
        let cheap: Vec<&str> = r
            .fig9
            .iter()
            .filter(|x| x.finland_cheapest)
            .map(|x| x.domain.as_str())
            .collect();
        // The two structural exceptions hold at any seed; the strongly
        // Finland-dear retailers never appear. (Gated retailers may
        // flicker in at tiny sample sizes, which is fine.)
        assert!(cheap.contains(&"www.mauijim.com"), "{cheap:?}");
        assert!(cheap.contains(&"www.tuscanyleather.it"), "{cheap:?}");
        for dear in [
            "www.digitalrev.com",
            "store.refrigiwear.it",
            "www.scitec-nutrition.es",
        ] {
            assert!(!cheap.contains(&dear), "{dear} misclassified: {cheap:?}");
        }
    }
}

#[test]
fn same_seed_same_rendered_reports_across_runs() {
    // `to_json` equality (above) covers the data; this covers the whole
    // human-facing rendering path — every figure renderer and the table
    // renderer must be a pure function of the seed, with no iteration-order
    // or formatting nondeterminism.
    let a = run(ExperimentConfig::small(1307));
    let b = run(ExperimentConfig::small(1307));
    assert_eq!(a.render_all(), b.render_all());
    // Spot-check individual renderers too, so a failure names the figure.
    assert_eq!(a.render_summary(), b.render_summary());
    assert_eq!(a.render_fig1(), b.render_fig1());
    assert_eq!(a.render_fig7(), b.render_fig7());
    assert_eq!(a.render_tables(), b.render_tables());
}

#[test]
fn different_seeds_render_different_reports() {
    let a = run(ExperimentConfig::small(1307));
    let b = run(ExperimentConfig::small(2024));
    assert_ne!(
        a.render_all(),
        b.render_all(),
        "two seeds producing identical full renderings means the seed is ignored"
    );
}

#[test]
fn phases_are_independently_rerunnable() {
    // Re-running a phase on the same world must not change results
    // (no hidden RNG state is consumed across calls). The stage function
    // is called twice: the engine's cached `crawl()` would hand back the
    // same artifact.
    let config = ExperimentConfig::small(5);
    let world = World::build(&config);
    let crawl = || {
        let targets = world.paper_crawl_targets();
        let art = stage::crawl_stage(
            &world,
            &config,
            &targets,
            &Executor::serial(),
            &TimingObserver::new(),
        );
        (art.store, art.stats)
    };
    let (s1, st1) = crawl();
    let (s2, st2) = crawl();
    assert_eq!(st1, st2);
    assert_eq!(s1.len(), s2.len());
    for (a, b) in s1.records().iter().zip(s2.records()) {
        assert_eq!(a.prices(), b.prices());
    }
}

#[test]
fn paper_small_reports_match_the_pinned_digest() {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for seed in [1307_u64, 2024] {
        let mut engine = Experiment::builder()
            .scenario("paper")
            .profile(Profile::Small)
            .seed(seed)
            .threads(2)
            .build()
            .expect("paper scenario builds");
        let json = engine.run().to_json();
        h = fnv1a64(h, &seed.to_le_bytes());
        h = fnv1a64(h, json.as_bytes());
    }
    assert_eq!(
        h, PAPER_SMALL_REPORT_DIGEST,
        "paper@small report bytes moved: digest {h:#018x}"
    );
}
