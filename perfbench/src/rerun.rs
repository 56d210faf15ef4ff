//! The `rerun` workload: each operation builds a fresh engine over the
//! binary store produced at set-up, then runs `load_artifacts` +
//! `analyze` — what `pd rerun DIR` does. No measurement layer runs, so
//! store decode, frame building and figures dominate: the no-change
//! control for every crawl optimisation.

use crate::metrics::{self, digest, ms, Outcome, Trace};
use crate::{fresh, replay, Ctx};
use pd_core::sheriff::{Measurement, MeasurementStore};
use pd_core::store::{crawl_fingerprint, crowd_fingerprint, personas_fingerprint};
use pd_core::{
    reports_to_json, ArtifactStore, Engine, Executor, PersonaArtifact, Provenance, Report,
    TimingObserver,
};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

/// Executor threads of the measured operation.
const THREADS: usize = 2;

/// Produces the store of `seed` in a child process (so this process's
/// peak RSS is the re-analysis alone): `fresh::measure` into `dir`, its
/// report JSON beside it. Returns the wall time and the report file's
/// path.
fn produce_store(ctx: &Ctx, seed: u64, dir: &Path) -> Result<(f64, PathBuf), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--produce-store")
        .arg(dir)
        .arg("--seed")
        .arg(seed.to_string());
    if ctx.tiny {
        cmd.arg("--tiny");
    }
    let start = Instant::now();
    let status = cmd
        .status()
        .map_err(|e| format!("starting the store producer: {e}"))?;
    let took = start.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("store producer exited with {status}"));
    }
    Ok((took, report_path(dir)))
}

/// Where the producer leaves the report of the run that made `dir`.
fn report_path(dir: &Path) -> PathBuf {
    dir.with_extension("report.json")
}

/// The child side of [`produce_store`].
///
/// # Errors
///
/// The run or a write failing.
pub fn produce(ctx: &Ctx, dir: &Path) -> Result<(), String> {
    let report = fresh::measure(ctx, ctx.seed, 2, Some(dir))?;
    std::fs::write(report_path(dir), report).map_err(|e| format!("writing the report: {e}"))
}

/// A store to re-analyze and the digest of the report of the run that
/// produced it.
struct Stored {
    dir: PathBuf,
    want: u64,
}

/// Set-up: one store per seed of [`Ctx::seeds`]; returns the median
/// production time and the stores.
fn setup(ctx: &Ctx) -> Result<(f64, Vec<Stored>), String> {
    let mut times = Vec::new();
    let mut stores = Vec::new();
    for seed in ctx.seeds() {
        let dir = ctx.work.join(format!("store-{seed}"));
        let (took, report) = produce_store(ctx, seed, &dir)?;
        times.push(took);
        let report = std::fs::read_to_string(report)
            .map_err(|e| format!("reading the stored report: {e}"))?;
        stores.push(Stored {
            dir,
            want: digest(&report),
        });
    }
    Ok((metrics::quantile(&times, 0.5), stores))
}

/// The engine `pd rerun` builds over `dir`: the stored plan and
/// provenance, at `threads`.
fn engine_for(dir: &Path, threads: usize, observer: Arc<TimingObserver>) -> Result<Engine, String> {
    let store = ArtifactStore::open(dir).map_err(|e| e.to_string())?;
    let manifest = store.manifest();
    let p = &manifest.provenance;
    Ok(
        Engine::from_plan(manifest.plan.to_plan(), Executor::new(threads), observer)
            .with_provenance(Provenance::new(
                &p.scenario,
                &p.label,
                &p.profile,
                p.seed,
                threads,
            )),
    )
}

/// Loads every stored stage into `engine`, refusing an incomplete store.
fn load(engine: &mut Engine, dir: &Path) -> Result<(), String> {
    let summary = engine.load_artifacts(dir).map_err(|e| e.to_string())?;
    if summary.complete() {
        Ok(())
    } else {
        Err(format!("incomplete store: {summary:?}"))
    }
}

/// One re-analysis; returns its report.
fn rerun_once(dir: &Path) -> Result<Report, String> {
    let mut engine = engine_for(dir, THREADS, Arc::new(TimingObserver::new()))?;
    load(&mut engine, dir)?;
    Ok(engine.analyze().report)
}

fn report_json(report: Report) -> String {
    reports_to_json(&[(String::new(), report)])
}

/// Untraced run: end-to-end metrics.
///
/// # Errors
///
/// Set-up failing (no store to re-analyze).
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (setup_s, stores) = setup(ctx)?;
    let (mut latencies, mut failed) = (Vec::new(), 0u64);
    let mut speed = metrics::Speed::default();
    let mut cpu = 0.0;
    let start = Instant::now();
    let mut n = 0u64;
    while n == 0 || start.elapsed().as_secs_f64() < ctx.seconds {
        let stored = &stores[n as usize % stores.len()];
        speed.sample(1)?;
        let cpu0 = metrics::cpu_ms();
        let t = Instant::now();
        let outcome = rerun_once(&stored.dir);
        let took = ms(t.elapsed());
        cpu += metrics::cpu_ms() - cpu0;
        match outcome {
            Ok(report) => {
                latencies.push(took);
                if digest(&ctx.maybe_tamper(report_json(report))) != stored.want {
                    eprintln!("rerun: operation {n} report differs from the fresh run's");
                    failed += 1;
                }
            }
            Err(e) => {
                eprintln!("rerun: operation {n} failed: {e}");
                failed += 1;
            }
        }
        n += 1;
    }
    eprintln!(
        "rerun: {n} re-analyses in {:.1} s, p50 {:.1} ms, set-up {setup_s:.3} s",
        start.elapsed().as_secs_f64(),
        metrics::quantile(&latencies, 0.5),
    );
    Ok(Outcome::end_to_end(
        n,
        failed,
        setup_s,
        &latencies,
        cpu,
        metrics::peak_rss_mb(),
        speed.factor(),
    ))
}

/// Traced run: per-layer metrics. Each iteration runs one untraced
/// re-analysis, one with a span around each engine call, then replays
/// the store open, the chunk decode and the analysis layer by layer.
///
/// # Errors
///
/// Set-up failing.
pub fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    let (_, stores) = setup(ctx)?;
    let mut trace = Trace::default();
    let (mut untraced, mut traced, mut failed) = (Vec::new(), Vec::new(), 0u64);
    let start = Instant::now();
    let mut n = 0u64;
    while n == 0 || start.elapsed().as_secs_f64() < ctx.seconds {
        let Stored { dir, want } = &stores[n as usize % stores.len()];
        let t = Instant::now();
        rerun_once(dir)?;
        untraced.push(ms(t.elapsed()));

        let mut op = Trace::default();
        let observer = Arc::new(TimingObserver::new());
        let t = Instant::now();
        let mut engine = op.time("world.build", || {
            engine_for(dir, THREADS, Arc::clone(&observer))
        })?;
        op.time("stage.load", || load(&mut engine, dir))?;
        let report = op.time("stage.analysis", || engine.analyze()).report;
        traced.push(ms(t.elapsed()));
        op.add(
            "analysis.frames_built",
            fresh::counter(&observer, "frames_built"),
        );
        op.add(
            "analysis.frames_reused",
            fresh::counter(&observer, "frames_reused"),
        );
        op.add(
            "analysis.chunks_loaded",
            fresh::counter(&observer, "frames_chunks_loaded"),
        );
        let report = report_json(report);
        let mut bad = u64::from(digest(&ctx.maybe_tamper(report.clone())) != *want);
        bad += replay_store(dir, &report, &mut op)?;
        if bad > 0 {
            eprintln!("rerun: traced operation {n}: {bad} checks failed");
            failed += 1;
        }
        trace.merge(&op);
        n += 1;
    }
    trace.set(
        "coverage.analysis",
        (trace.ms("store.decode")
            + trace.ms("analysis.frame_build")
            + trace.ms("analysis.figures"))
            / trace.ms("onethread.analysis"),
    );
    let overhead = metrics::quantile(&traced, 0.5) / metrics::quantile(&untraced, 0.5) - 1.0;
    trace.set("trace.overhead_frac", overhead);
    eprintln!(
        "rerun traced: {n} iterations; coverage of the 1-thread analysis stage by \
         decode+frame_build+figures {:.3}; tracing overhead {:+.2}% (traced p50 {:.1} ms vs \
         untraced {:.1} ms)",
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

/// Times the 1-thread analysis (the coverage denominator), then replays
/// the store layers — manifest + chunked opens (checksums included),
/// every chunk decode, the personas load — and the analysis over the
/// decoded rows. Returns the number of replay checks that failed.
fn replay_store(dir: &Path, report: &str, trace: &mut Trace) -> Result<u64, String> {
    let mut engine = engine_for(dir, 1, Arc::new(TimingObserver::new()))?;
    load(&mut engine, dir)?;
    let stored = trace.time("onethread.analysis", || engine.analyze()).report;
    let plan = engine.plan().clone();

    let err = |e: pd_core::StoreError| e.to_string();
    let store = trace
        .time("store.open", || ArtifactStore::open(dir))
        .map_err(err)?;
    let crowd = trace
        .time("store.open", || {
            store.open_chunked("crowd", crowd_fingerprint(&plan))
        })
        .map_err(err)?;
    let crawl = trace
        .time("store.open", || {
            store.open_chunked("crawl", crawl_fingerprint(&plan))
        })
        .map_err(err)?;
    for stage in ["crowd", "crawl", "personas"] {
        trace.add(
            "store.bytes_read",
            store.entry(stage).map_or(0, |e| e.bytes) as f64,
        );
    }
    let mut decode = |payload: &pd_core::ChunkedPayload, section: &str| {
        let mut rows: Vec<Measurement> = Vec::new();
        for name in payload.chunk_names(section) {
            let chunk = trace
                .time("store.decode", || {
                    payload.read_chunk_rows::<Measurement>(section, name)
                })
                .map_err(err)?;
            rows.extend(chunk);
        }
        // Chunks are per domain; original store order is the request id.
        rows.sort_by_key(|m| m.request);
        let mut out = MeasurementStore::new();
        for m in rows {
            out.push(m);
        }
        Ok::<_, String>(out)
    };
    let raw = decode(&crowd, "raw")?;
    let cleaned = decode(&crowd, "cleaned")?;
    let crawled = decode(&crawl, "store")?;
    let personas = trace
        .time("store.decode", || {
            store.load::<PersonaArtifact>("personas", personas_fingerprint(&plan))
        })
        .map_err(err)?;

    let replayed = replay::analysis(
        engine.world(),
        &plan.config,
        &raw,
        &cleaned,
        stored.cleaning,
        &crawled,
        &personas,
        trace,
    );
    let failures = u64::from(report_json(replayed) != report);
    if failures > 0 {
        eprintln!("rerun: replayed analysis over the decoded chunks does not reproduce the report");
    }
    Ok(failures)
}
