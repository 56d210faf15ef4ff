//! The scenario engine's contracts: registry lookup, builder behavior,
//! artifact caching/reuse, and — the golden test — byte-identical
//! reports from the deterministic parallel scheduler at 2, 4 and 8
//! worker threads versus the sequential run, at the paper seed.

use pd_core::{BuildError, Experiment, Profile, ScenarioRegistry, StageKind, TimingObserver};
use std::sync::Arc;

/// The acceptance criterion: sequential and multi-threaded runs of the
/// `paper` scenario produce identical `Report` JSON *and* identical
/// rendered output, at the paper seed (1307).
#[test]
fn golden_parallel_report_is_byte_identical_to_sequential() {
    let run = |threads: usize| {
        let mut engine = Experiment::builder()
            .scenario("paper")
            .profile(Profile::Smoke)
            .seed(1307)
            .threads(threads)
            .build()
            .expect("paper scenario builds");
        let report = engine.run();
        (report.to_json(), report.render_all())
    };
    let (seq_json, seq_render) = run(1);
    for threads in [2, 4, 8] {
        let (json, render) = run(threads);
        assert_eq!(json, seq_json, "report JSON diverged at {threads} threads");
        assert_eq!(
            render, seq_render,
            "rendered report diverged at {threads} threads"
        );
    }
}

/// Sweep scenarios are deterministic under threading too: every arm of
/// the desync ablation matches its sequential twin.
#[test]
fn sweep_arms_are_thread_deterministic() {
    let run = |threads: usize| -> Vec<(String, String)> {
        Experiment::builder()
            .scenario("desync-ablation")
            .profile(Profile::Smoke)
            .seed(1307)
            .threads(threads)
            .build_variants()
            .expect("sweep builds")
            .into_iter()
            .map(|(label, mut engine)| (label, engine.run().to_json()))
            .collect()
    };
    assert_eq!(run(1), run(4));
}

/// The concurrent-arm golden test: `run_sweep` fans arms across the
/// executor, and its reports — JSON **and** rendered — are
/// byte-identical to the serial run at 1, 2, 4 and 8 threads.
#[test]
fn concurrent_sweep_reports_byte_identical_at_any_thread_count() {
    let run = |threads: usize| -> Vec<(String, String, String)> {
        Experiment::builder()
            .scenario("seed-sweep")
            .profile(Profile::Smoke)
            .seed(1307)
            .threads(threads)
            .run_sweep()
            .expect("sweep runs")
            .into_iter()
            .map(|arm| {
                (
                    arm.label,
                    arm.analysis.report.to_json(),
                    arm.analysis.report.render_all(),
                )
            })
            .collect()
    };
    let serial = run(1);
    assert_eq!(serial.len(), 3, "seed-sweep has three arms");
    for threads in [2, 4, 8] {
        assert_eq!(run(threads), serial, "diverged at {threads} threads");
    }
}

/// The arm-level scheduler splits the thread budget instead of
/// oversubscribing: with 8 threads over 3 arms each arm engine gets 2
/// intra-arm workers (3 × 2 ≤ 8), and arm-scoped observer events are
/// merged complete and in label order.
#[test]
fn run_sweep_splits_the_thread_budget_and_orders_observer_events() {
    let observer = Arc::new(TimingObserver::new());
    let arms = Experiment::builder()
        .scenario("seed-sweep")
        .profile(Profile::Smoke)
        .seed(1307)
        .threads(8)
        .observer(observer.clone())
        .run_sweep()
        .expect("sweep runs");
    let mut arms = arms;
    let labels: Vec<String> = arms.iter().map(|a| a.label.clone()).collect();
    assert_eq!(labels, vec!["seed-1307", "seed-1308", "seed-1309"]);
    for arm in &arms {
        assert_eq!(arm.engine.executor().threads(), 2, "8 threads / 3 arms");
    }
    // Every arm's five stages ran exactly once, and the merged stream
    // is grouped per arm in label order.
    assert_eq!(observer.starts(StageKind::Crowd), 3);
    assert_eq!(observer.starts(StageKind::Analysis), 3);
    let arm_order: Vec<String> = observer
        .timings()
        .into_iter()
        .map(|t| t.arm)
        .collect::<Vec<_>>()
        .chunks(5)
        .map(|chunk| {
            assert!(
                chunk.iter().all(|a| a == &chunk[0]),
                "arm events interleaved: {chunk:?}"
            );
            chunk[0].clone()
        })
        .collect();
    assert_eq!(arm_order, vec!["seed-1307", "seed-1308", "seed-1309"]);
    // Post-sweep engine calls must report to the builder's observer
    // again (not into the already-merged arm observer), under the arm
    // that made them.
    arms[0].engine.analyze();
    assert_eq!(
        observer.starts(StageKind::Analysis),
        4,
        "a re-analysis after the sweep must be observed live"
    );
    let last = observer.timings().pop().expect("the re-analysis is timed");
    assert_eq!(
        (last.arm.as_str(), last.stage),
        ("seed-1307", StageKind::Analysis)
    );
}

/// A sweep's merged records do not depend on the thread count: the
/// `(arm, stage, counters)` sequence and the loads are the same at 1
/// and 8 threads (the seed arms share no upstream, so every counter is
/// deterministic; only wall times differ).
#[test]
fn sweep_records_are_identical_at_any_thread_count() {
    let records = |threads: usize| {
        let observer = Arc::new(TimingObserver::new());
        Experiment::builder()
            .scenario("seed-sweep")
            .profile(Profile::Smoke)
            .seed(1307)
            .threads(threads)
            .observer(observer.clone())
            .run_sweep()
            .expect("sweep runs");
        let timings: Vec<_> = observer
            .timings()
            .into_iter()
            .map(|t| (t.arm, t.stage, t.counters))
            .collect();
        (timings, observer.loaded())
    };
    let serial = records(1);
    assert_eq!(serial.0.len(), 15, "five stages per arm");
    assert_eq!(serial, records(8));
}

/// A single-run scenario through `run_sweep` is the one-arm degenerate
/// case: label `""`, the whole budget intra-arm, same report as
/// `build()` + `run()`.
#[test]
fn run_sweep_handles_single_run_scenarios() {
    let mut arms = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .threads(4)
        .run_sweep()
        .expect("single-run sweep");
    assert_eq!(arms.len(), 1);
    let arm = arms.remove(0);
    assert_eq!(arm.label, "");
    assert_eq!(arm.engine.executor().threads(), 4);
    let mut direct = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .build()
        .expect("smoke builds");
    assert_eq!(arm.analysis.report.to_json(), direct.run().to_json());
}

/// `--threads 0` means "auto": the builder resolves it to the machine's
/// available parallelism (always ≥ 1) instead of rejecting it.
#[test]
fn zero_threads_resolves_to_available_cores() {
    let engine = Experiment::builder()
        .scenario("smoke")
        .seed(7)
        .threads(0)
        .build()
        .expect("threads 0 is auto, not an error");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    assert_eq!(engine.executor().threads(), cores);
}

#[test]
fn registry_lookup_and_help_metadata() {
    let reg = ScenarioRegistry::builtin();
    for name in [
        "paper",
        "smoke",
        "desync-ablation",
        "no-cleaning",
        "vantage-subset",
        "seed-sweep",
        "locale-sweep",
        "crowd-sweep",
        "failure-sweep",
        "targeted-crawl",
    ] {
        let s = reg.get(name).unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(s.name, name);
        assert!(!s.describe.is_empty());
    }
    assert!(reg.get("does-not-exist").is_none());
    assert!(matches!(
        Experiment::builder().scenario("does-not-exist").build(),
        Err(BuildError::UnknownScenario(_))
    ));
}

/// Artifact reuse: run the crowd stage once, analyze twice. The second
/// analysis must reuse the cached crowd/crawl/persona artifacts (the
/// observer sees each measurement stage start exactly once) and produce
/// the identical report.
#[test]
fn artifact_reuse_runs_crowd_once_analyzes_twice() {
    let observer = Arc::new(TimingObserver::new());
    let mut engine = Experiment::builder()
        .scenario("paper")
        .profile(Profile::Smoke)
        .seed(1307)
        .observer(observer.clone())
        .build()
        .expect("paper scenario builds");

    let crowd_len = engine.crowd().raw.len();
    assert!(crowd_len > 0);
    let first = engine.analyze().report;
    let second = engine.analyze().report;
    assert_eq!(first.to_json(), second.to_json());

    assert_eq!(observer.starts(StageKind::Build), 1);
    assert_eq!(observer.starts(StageKind::Crowd), 1, "crowd must be cached");
    assert_eq!(observer.starts(StageKind::Crawl), 1, "crawl must be cached");
    assert_eq!(observer.starts(StageKind::Personas), 1);
    assert_eq!(observer.starts(StageKind::Analysis), 2, "analysis re-runs");
}

/// The `no-cleaning` ablation keeps every raw measurement, and that
/// visibly changes the analysis (the cleaning matters).
#[test]
fn no_cleaning_scenario_keeps_everything() {
    let mut ablated = Experiment::builder()
        .scenario("no-cleaning")
        .profile(Profile::Smoke)
        .seed(1307)
        .build()
        .expect("no-cleaning builds");
    let crowd = ablated.crowd().clone();
    assert_eq!(crowd.cleaned.len(), crowd.raw.len());
    assert_eq!(crowd.cleaning.dropped_inconsistent, 0);

    let mut paper = Experiment::builder()
        .scenario("paper")
        .profile(Profile::Smoke)
        .seed(1307)
        .build()
        .expect("paper builds");
    assert!(paper.crowd().cleaned.len() < crowd.cleaned.len());
}

/// The `vantage-subset` scenario runs the full pipeline on 8 probes.
#[test]
fn vantage_subset_scenario_runs_end_to_end() {
    let mut engine = Experiment::builder()
        .scenario("vantage-subset")
        .profile(Profile::Smoke)
        .seed(1307)
        .build()
        .expect("vantage-subset builds");
    assert_eq!(engine.world().sheriff.vantage_points().len(), 8);
    let report = engine.run();
    // 21 retailers × 6 products × 2 days × 8 probes.
    assert_eq!(report.summary.crawled_prices, 21 * 6 * 2 * 8);
    assert!(!report.fig9.is_empty(), "Finland probe retained");
}

/// The engine's desync knob is applied at construction from the plan —
/// the arms of the ablation sweep really differ.
#[test]
fn desync_ablation_arms_carry_different_skews() {
    let variants = Experiment::builder()
        .scenario("desync-ablation")
        .profile(Profile::Smoke)
        .build_variants()
        .expect("sweep builds");
    assert_eq!(variants.len(), 2);
    let skews: Vec<u64> = variants
        .iter()
        .map(|(_, e)| e.world().sheriff.desync().as_millis())
        .collect();
    assert_eq!(skews[0], 0);
    assert_eq!(skews[1], 25 * 60_000);
}

/// The analysis context is derived from the plan alone, yet must equal
/// what the built world gives — FX rates, the vantage table after the
/// subset, the crowd's country count — for every builtin arm.
#[test]
fn analysis_context_equals_the_built_world() {
    let registry = ScenarioRegistry::builtin();
    for name in registry.names() {
        for seed in [1307, 2024] {
            let arms = Experiment::builder()
                .scenario(name)
                .profile(Profile::Small)
                .seed(seed)
                .build_variants()
                .expect("builtin scenario builds");
            for (label, engine) in arms {
                let at = format!("{name}/{label} seed {seed}");
                let ctx = engine.context();
                let world = engine.world();
                let fx = world.web.fx();
                assert_eq!(ctx.fx.days(), fx.days(), "{at}");
                for currency in pd_core::currency::Currency::ALL {
                    for day in 0..fx.days() {
                        assert_eq!(
                            ctx.fx.rate(currency, day),
                            fx.rate(currency, day),
                            "{at}: {currency:?} day {day}"
                        );
                    }
                }
                assert_eq!(ctx.vantage, world.vantage_labels(), "{at}");
                assert_eq!(ctx.crowd_countries, world.crowd.country_count(), "{at}");
            }
        }
    }
}
