//! Measures artifact-store footprint into `BENCH_store.json` (the repo's
//! bench-artifact convention): one run, saved with every stage, and each
//! stage's file bytes, payload (chunk-region) bytes and chunk count read
//! straight off the store's own manifest.
//!
//! ```text
//! store_sizes [--scenario NAME] [--profile smoke|small|medium|paper]
//!             [--seed N] [--threads N] [--out PATH] [--artifacts DIR]
//! ```
//!
//! Defaults: the `smoke` scenario (the store CI tracks), seed 1307,
//! 1 thread, writing `BENCH_store.json` in the working directory into a
//! throwaway temp store. `--artifacts DIR` measures into `DIR` instead
//! and keeps it. Single-run scenarios only: a sweep has no single store.

use pd_core::store::{ArtifactStore, ManifestEntry};
use pd_core::{Experiment, Profile};
use std::path::PathBuf;

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
        scenario: "smoke".to_owned(),
        profile: Profile::Small,
        seed: 1307,
        threads: 1,
        out: "BENCH_store.json".to_owned(),
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
fn render_json(args: &Args, entries: &[ManifestEntry]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"scenario\": \"{}\",\n", args.scenario));
    out.push_str(&format!("  \"profile\": \"{}\",\n", args.profile.name()));
    out.push_str(&format!("  \"seed\": {},\n", args.seed));
    out.push_str(&format!("  \"threads\": {},\n", args.threads));
    out.push_str("  \"stages\": [\n");
    let lines: Vec<String> = entries
        .iter()
        .map(|e| {
            format!(
                "    {{\"stage\": \"{}\", \"binary_bytes\": {}, \"payload_bytes\": {}, \
                 \"chunks\": {}}}",
                e.stage, e.bytes, e.payload_bytes, e.chunks
            )
        })
        .collect();
    out.push_str(&lines.join(",\n"));
    let binary_total: u64 = entries.iter().map(|e| e.bytes).sum();
    out.push_str("\n  ],\n");
    out.push_str(&format!("  \"binary_total_bytes\": {binary_total}\n"));
    out.push_str("}\n");
    out
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let fatal = |e: String| -> ! {
        eprintln!("error: {e}");
        std::process::exit(1);
    };
    let (dir, throwaway) = args.artifacts.as_ref().map_or_else(
        || {
            let dir = std::env::temp_dir().join(format!("pd-store-sizes-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            (dir, true)
        },
        |d| (PathBuf::from(d), false),
    );

    let mut engine = Experiment::builder()
        .scenario(&args.scenario)
        .profile(args.profile)
        .seed(args.seed)
        .threads(args.threads)
        .build()
        .unwrap_or_else(|e| fatal(e.to_string()));
    let analysis = engine.analyze();
    engine
        .save_artifacts(&dir)
        .unwrap_or_else(|e| fatal(e.to_string()));
    engine
        .save_analysis(&dir, &analysis)
        .unwrap_or_else(|e| fatal(e.to_string()));

    let entries = ArtifactStore::open(&dir)
        .unwrap_or_else(|e| fatal(e.to_string()))
        .manifest()
        .entries
        .clone();
    if throwaway {
        std::fs::remove_dir_all(&dir).ok();
    }

    let json = render_json(&args, &entries);
    std::fs::write(&args.out, &json).unwrap_or_else(|e| {
        eprintln!("error: writing {:?}: {e}", args.out);
        std::process::exit(1);
    });
    println!("{json}");
    eprintln!("[store_sizes] wrote {}", args.out);
}
