//! Emits per-stage wall-times from the engine's `TimingObserver` into
//! `BENCH_pipeline.json` (the repo's bench-artifact convention).
//!
//! ```text
//! pipeline_times [--scenario NAME] [--profile smoke|small|medium|paper]
//!                [--seed N] [--threads N] [--out PATH] [--artifacts DIR]
//! ```
//!
//! Defaults: the `paper` scenario at the `small` profile, seed 1307,
//! 4 threads, writing `BENCH_pipeline.json` in the working directory.
//! Sweep scenarios run their arms **concurrently** (the thread budget
//! splits arm-level × intra-arm) and time every arm: each stage row
//! carries an `"arm"` label, so the per-arm cost and the arm-concurrency
//! speedup are both visible in the perf trajectory.
//!
//! `--artifacts DIR` attaches the artifact store as a read-through
//! cache and persists computed stages afterwards, so back-to-back
//! timing runs measure the analysis stage against a warm store (stages
//! loaded from disk emit no wall-time row; the `loaded` list in the
//! JSON names them).

use pd_core::{Experiment, Profile, SweepArmRun, TimingObserver};
use std::sync::Arc;

struct Args {
    scenario: String,
    profile: Profile,
    seed: u64,
    threads: usize,
    out: String,
    artifacts: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scenario: "paper".to_owned(),
        profile: Profile::Small,
        seed: 1307,
        threads: 4,
        out: "BENCH_pipeline.json".to_owned(),
        artifacts: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--scenario" => args.scenario = value("--scenario")?,
            "--profile" => {
                let v = value("--profile")?;
                args.profile = Profile::parse(&v).ok_or(format!("unknown profile {v:?}"))?;
            }
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--threads" => {
                let v = value("--threads")?;
                args.threads = v.parse().map_err(|_| format!("bad thread count {v:?}"))?;
            }
            "--out" => args.out = value("--out")?,
            "--artifacts" => args.artifacts = Some(value("--artifacts")?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Hand-rolled JSON so the bin does not need a serde derive for what is
/// a flat telemetry record.
fn render_json(args: &Args, observer: &TimingObserver, total_ms: f64) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"scenario\": \"{}\",\n", args.scenario));
    out.push_str(&format!("  \"profile\": \"{}\",\n", args.profile.name()));
    out.push_str(&format!("  \"seed\": {},\n", args.seed));
    out.push_str(&format!("  \"threads\": {},\n", args.threads));
    out.push_str(&format!("  \"total_ms\": {total_ms:.3},\n"));
    let loaded: Vec<String> = observer
        .loaded()
        .iter()
        .map(|(s, _)| format!("\"{s}\""))
        .collect();
    out.push_str(&format!("  \"loaded\": [{}],\n", loaded.join(", ")));
    out.push_str("  \"stages\": [\n");
    let timings = observer.timings();
    let rows: Vec<String> = timings
        .iter()
        .map(|t| {
            let counters: Vec<String> = t
                .counters
                .iter()
                .map(|(n, v)| format!("\"{n}\": {v}"))
                .collect();
            format!(
                "    {{\"arm\": \"{}\", \"stage\": \"{}\", \"ms\": {:.3}, \"counters\": {{{}}}}}",
                t.arm,
                t.stage,
                t.wall.as_secs_f64() * 1000.0,
                counters.join(", ")
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let observer = Arc::new(TimingObserver::new());
    // Start the clock before the worlds are built so total_ms covers the
    // build stages the observer records.
    let start = std::time::Instant::now();
    let mut builder = Experiment::builder()
        .scenario(&args.scenario)
        .profile(args.profile)
        .seed(args.seed)
        .threads(args.threads)
        .observer(observer.clone());
    if let Some(dir) = &args.artifacts {
        builder = builder.artifacts(dir.clone());
    }
    // Arms run concurrently; timings land in the observer in label
    // order once all arms join.
    let arms = builder.run_sweep().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });

    for SweepArmRun {
        label,
        engine,
        analysis,
    } in arms
    {
        let report = &analysis.report;
        if let Some(dir) = engine.artifacts_dir().map(std::path::Path::to_path_buf) {
            engine.save_artifacts(&dir).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            });
        }
        let tag = if label.is_empty() {
            args.scenario.clone()
        } else {
            format!("{}/{label}", args.scenario)
        };
        eprintln!(
            "[pipeline_times] {tag}: {} crowd checks, {} crawled prices",
            report.summary.crowd_requests, report.summary.crawled_prices
        );
    }
    let total_ms = start.elapsed().as_secs_f64() * 1000.0;

    let json = render_json(&args, &observer, total_ms);
    std::fs::write(&args.out, &json).unwrap_or_else(|e| {
        eprintln!("error: writing {:?}: {e}", args.out);
        std::process::exit(1);
    });
    println!("{json}");
    eprintln!("[pipeline_times] wrote {}", args.out);
}
