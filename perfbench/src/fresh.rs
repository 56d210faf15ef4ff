//! The `fresh` workload: each operation is one `paper` measurement at 2
//! executor threads that also saves a binary store to a new directory —
//! the `pd run --artifacts DIR --format binary` path. The only workload
//! that crawls on every operation and the only one that writes stores.

use crate::metrics::{self, digest, ms, Outcome, Trace};
use crate::{replay, Ctx};
use pd_core::{reports_to_json, Experiment, ExperimentBuilder, StoreFormat, TimingObserver};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Executor threads of the measured operation.
const THREADS: usize = 2;

/// A builder for one `paper` run of the workload's profile at `seed`.
fn builder(
    ctx: &Ctx,
    seed: u64,
    threads: usize,
    observer: Arc<TimingObserver>,
) -> ExperimentBuilder {
    Experiment::builder()
        .scenario("paper")
        .profile(ctx.profile())
        .seed(seed)
        .threads(threads)
        .observer(observer)
}

/// One measurement, saving a binary store to `store` when given (what
/// `pd run` does); returns the canonical report JSON.
///
/// # Errors
///
/// A build or store-write failure, rendered.
pub fn measure(
    ctx: &Ctx,
    seed: u64,
    threads: usize,
    store: Option<&Path>,
) -> Result<String, String> {
    let mut b = builder(ctx, seed, threads, Arc::new(TimingObserver::new()));
    if let Some(dir) = store {
        b = b.artifacts(dir).store_format(StoreFormat::Binary);
    }
    let arm = b
        .run_sweep()
        .map_err(|e| e.to_string())?
        .pop()
        .ok_or("the paper scenario produced no run")?;
    if let Some(dir) = store {
        arm.engine.save_artifacts(dir).map_err(|e| e.to_string())?;
        arm.engine
            .save_analysis(dir, &arm.analysis)
            .map_err(|e| e.to_string())?;
    }
    Ok(reports_to_json(&[(arm.label, arm.analysis.report)]))
}

/// One timed operation in a fresh store directory (removed afterwards);
/// returns its latency in ms and its report digest.
fn operation(ctx: &Ctx, seed: u64, n: usize) -> Result<(f64, u64), String> {
    let dir = ctx.work.join(format!("fresh-{n}"));
    let start = Instant::now();
    let report = measure(ctx, seed, THREADS, Some(&dir));
    let took = ms(start.elapsed());
    let _ = std::fs::remove_dir_all(&dir);
    Ok((took, digest(&ctx.maybe_tamper(report?))))
}

/// The 1-thread reference report digest of every seed, computed
/// outside any timed window (reports are byte-identical at every thread
/// count).
fn references(ctx: &Ctx, seeds: &[u64]) -> Result<Vec<u64>, String> {
    seeds
        .iter()
        .map(|&seed| Ok(digest(&measure(ctx, seed, 1, None)?)))
        .collect()
}

/// Untraced run: end-to-end metrics.
///
/// # Errors
///
/// The reference run failing (nothing to check against).
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    // Set-up is one warm-up run, made once per seed; the median is
    // reported.
    let seeds = ctx.seeds();
    let mut setups = Vec::new();
    for (i, &seed) in seeds.iter().enumerate() {
        let start = Instant::now();
        operation(ctx, seed, 1_000_000 + i)?;
        setups.push(start.elapsed().as_secs_f64());
    }

    let (mut latencies, mut digests, mut failed) = (Vec::new(), Vec::new(), 0u64);
    let mut speed = metrics::Speed::default();
    // CPU time is summed over the operations alone, without the
    // host-speed passes between them.
    let mut cpu = 0.0;
    let start = Instant::now();
    let mut n = 0;
    while n == 0 || start.elapsed().as_secs_f64() < ctx.seconds {
        speed.sample(1)?;
        let cpu0 = metrics::cpu_ms();
        let op = operation(ctx, seeds[n % seeds.len()], n);
        cpu += metrics::cpu_ms() - cpu0;
        match op {
            Ok((took, d)) => {
                latencies.push(took);
                digests.push((n % seeds.len(), d));
            }
            Err(e) => {
                eprintln!("fresh: operation {n} failed: {e}");
                failed += 1;
            }
        }
        n += 1;
    }
    let peak = metrics::peak_rss_mb();

    let want = references(ctx, &seeds)?;
    let mismatched = digests.iter().filter(|(i, d)| *d != want[*i]).count() as u64;
    if mismatched > 0 {
        eprintln!("fresh: {mismatched} reports differ from the 1-thread reference");
    }
    eprintln!(
        "fresh: {n} runs in {:.1} s, p50 {:.1} ms, set-up {:.3} s",
        start.elapsed().as_secs_f64(),
        metrics::quantile(&latencies, 0.5),
        metrics::quantile(&setups, 0.5)
    );
    Ok(Outcome::end_to_end(
        n as u64,
        failed + mismatched,
        metrics::quantile(&setups, 0.5),
        &latencies,
        cpu,
        peak,
        speed.factor(),
    ))
}

/// Sum of observer counter `name` over every finished stage.
pub fn counter(observer: &TimingObserver, name: &str) -> f64 {
    observer
        .timings()
        .iter()
        .flat_map(|t| t.counters.iter())
        .filter(|(n, _)| n == name)
        .map(|(_, v)| *v as f64)
        .sum()
}

/// Traced run: per-layer metrics. Each iteration runs one untraced
/// operation, one operation with a span around every `Engine` call
/// (their latencies give the tracing overhead), then replays that run at
/// 1 thread layer by layer.
///
/// # Errors
///
/// A build or store-write failure.
pub fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    let seeds = ctx.seeds();
    let want = references(ctx, &seeds)?;
    let mut trace = Trace::default();
    let (mut untraced, mut traced, mut failed) = (Vec::new(), Vec::new(), 0u64);
    let start = Instant::now();
    let mut n = 0u64;
    while n == 0 || start.elapsed().as_secs_f64() < ctx.seconds {
        let i = n as usize % seeds.len();
        let (took, _) = operation(ctx, seeds[i], n as usize)?;
        untraced.push(took);
        let dir = ctx.work.join(format!("traced-{n}"));
        let mut op = Trace::default();
        let (took, report) = traced_operation(ctx, seeds[i], &dir, &mut op)?;
        let _ = std::fs::remove_dir_all(&dir);
        traced.push(took);
        let mut bad = u64::from(digest(&ctx.maybe_tamper(report.clone())) != want[i]);
        bad += replay_run(ctx, seeds[i], &report, &mut op)?;
        if bad > 0 {
            eprintln!("fresh: traced operation {n}: {bad} checks failed");
            failed += 1;
        }
        trace.merge(&op);
        n += 1;
    }
    trace.set(
        "crawl.extract_ok",
        trace.value("crawl.extracted") / trace.value("crawl.observed").max(1.0),
    );
    let onethread_crawl = trace.ms("onethread.crawl");
    let substrate = trace.ms("crawl.fetch") + trace.ms("crawl.parse") + trace.ms("crawl.extract");
    trace.set(
        "coverage.crawl.retailer",
        trace.ms("crawl.retailer") / onethread_crawl,
    );
    trace.set(
        "coverage.crawl.check",
        trace.ms("crawl.check") / onethread_crawl,
    );
    trace.set("coverage.crawl.substrate", substrate / onethread_crawl);
    trace.set(
        "coverage.analysis",
        (trace.ms("analysis.frame_build") + trace.ms("analysis.figures"))
            / trace.ms("onethread.analysis"),
    );
    let overhead = metrics::quantile(&traced, 0.5) / metrics::quantile(&untraced, 0.5) - 1.0;
    trace.set("trace.overhead_frac", overhead);
    eprintln!(
        "fresh traced: {n} iterations; coverage of the 1-thread crawl stage: retailer {:.3}, \
         check {:.3}, substrate (fetch+parse+extract) {:.3}; analysis {:.3}; \
         tracing overhead {:+.2}% (traced p50 {:.1} ms vs untraced {:.1} ms)",
        trace.value("coverage.crawl.retailer"),
        trace.value("coverage.crawl.check"),
        trace.value("coverage.crawl.substrate"),
        trace.value("coverage.analysis"),
        overhead * 100.0,
        metrics::quantile(&traced, 0.5),
        metrics::quantile(&untraced, 0.5),
    );
    Ok(Outcome {
        attempted: n,
        failed,
        metrics: trace.per_layer(n),
    })
}

/// One operation with a span around each `Engine` call: build (which
/// assembles the world), crowd, crawl, personas, analysis, then the
/// store save. Returns the summed latency and the report JSON.
fn traced_operation(
    ctx: &Ctx,
    seed: u64,
    dir: &Path,
    trace: &mut Trace,
) -> Result<(f64, String), String> {
    let observer = Arc::new(TimingObserver::new());
    let start = Instant::now();
    let mut engine = trace
        .time("world.build", || {
            builder(ctx, seed, THREADS, Arc::clone(&observer))
                .artifacts(dir)
                .store_format(StoreFormat::Binary)
                .build()
        })
        .map_err(|e| e.to_string())?;
    trace.time("stage.crowd", || {
        engine.crowd();
    });
    trace.time("stage.crawl", || {
        engine.crawl();
    });
    trace.time("stage.personas", || {
        engine.personas();
    });
    let analysis = trace.time("stage.analysis", || engine.analyze());
    trace
        .time("store.save", || {
            engine.save_artifacts(dir)?;
            engine.save_analysis(dir, &analysis)
        })
        .map_err(|e| e.to_string())?;
    let took = ms(start.elapsed());
    trace.add("store.bytes_written", dir_bytes(dir) as f64);

    let crawl = engine.crawl();
    trace.add("crowd.checks", counter(&observer, "planned_checks"));
    trace.add("crowd.kept", counter(&observer, "kept"));
    trace.add("crawl.checks", counter(&observer, "checks"));
    trace.add("crawl.retries", counter(&observer, "retries"));
    let prices: usize = crawl.store.records().iter().map(|m| m.prices().len()).sum();
    trace.add("crawl.prices", prices as f64);
    trace.add("analysis.frames_built", counter(&observer, "frames_built"));
    trace.add(
        "analysis.frames_reused",
        counter(&observer, "frames_reused"),
    );
    trace.add(
        "analysis.chunks_loaded",
        counter(&observer, "frames_chunks_loaded"),
    );
    Ok((took, reports_to_json(&[(String::new(), analysis.report)])))
}

/// Re-runs the operation at 1 thread (the coverage denominators), then
/// replays its crawl and analysis layer by layer. Returns the number of
/// replay checks that failed.
fn replay_run(ctx: &Ctx, seed: u64, report: &str, trace: &mut Trace) -> Result<u64, String> {
    let mut engine = builder(ctx, seed, 1, Arc::new(TimingObserver::new()))
        .build()
        .map_err(|e| e.to_string())?;
    engine.crowd();
    trace.time("onethread.crawl", || {
        engine.crawl();
    });
    engine.personas();
    trace.time("onethread.analysis", || {
        engine.analyze();
    });
    // The engine caches every artifact: these calls hand them back.
    let config = engine.config().clone();
    let crowd = engine.crowd().clone();
    let crawl = engine.crawl().clone();
    let personas = engine.personas().clone();
    let world = engine.world();
    let targets = world.paper_crawl_targets();
    let mut failures = replay::crawl(world, &config, &targets, &crawl, trace);
    let replayed = replay::analysis(
        world,
        &config,
        &crowd.raw,
        &crowd.cleaned,
        crowd.cleaning,
        &crawl.store,
        &personas,
        trace,
    );
    if reports_to_json(&[(String::new(), replayed)]) != report {
        eprintln!("fresh: replayed analysis does not reproduce the run's report");
        failures += 1;
    }
    Ok(failures)
}

/// Total size of the files directly under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
