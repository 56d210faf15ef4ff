//! Measures the daemon's warm-cache and coalescing wins: cold vs warm
//! vs coalesced job latency against one in-process `pd-serve` daemon,
//! emitted as `BENCH_serve.json` (the repo's bench-artifact convention).
//!
//! ```text
//! serve_latency [--jobs N] [--burst N] [--runners N] [--scenario NAME]
//!               [--profile P] [--seed N] [--out PATH] [--artifacts DIR]
//! ```
//!
//! Three phases:
//!
//! 1. **cold** — the first job builds the analysis frames (and, with
//!    `--artifacts`, streams the store),
//! 2. **warm** — every later sequential job hits the daemon's
//!    process-wide warm memo (`StoreCache`); the service-layer claim is
//!    that warm jobs rebuild nothing (`frames_built == 0`),
//! 3. **coalesced burst** — the runner pool is gated, `--burst`
//!    identical submissions land (one leader + N-1 followers), then the
//!    pool resumes: the whole burst settles in ~one warm run's wall
//!    time, which `burst_wall_ms` vs `warm_p50_ms × burst` shows.
//!
//! Defaults: 50 jobs + a burst of 16 of the `smoke` scenario at the
//! `smoke` profile, seed 1307, default runner pool, writing
//! `BENCH_serve.json` in the working directory.
//!
//! Latencies are the daemon's own `run_ms` (queue wait excluded), so
//! the client's 25 ms poll granularity does not pollute the numbers.

use pd_serve::{Client, ServeConfig, Server, SubmitRequest};
use pd_util::stats::quantile;
use std::time::Duration;

struct Args {
    jobs: usize,
    burst: usize,
    runners: usize,
    scenario: String,
    profile: String,
    seed: u64,
    out: String,
    artifacts: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        jobs: 50,
        burst: 16,
        runners: 0,
        scenario: "smoke".to_owned(),
        profile: "smoke".to_owned(),
        seed: 1307,
        out: "BENCH_serve.json".to_owned(),
        artifacts: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--jobs" => {
                let v = value("--jobs")?;
                args.jobs = v.parse().map_err(|_| format!("bad job count {v:?}"))?;
                if args.jobs < 2 {
                    return Err("--jobs must be at least 2 (one cold + warm samples)".to_owned());
                }
            }
            "--burst" => {
                let v = value("--burst")?;
                args.burst = v.parse().map_err(|_| format!("bad burst size {v:?}"))?;
                if args.burst < 2 {
                    return Err("--burst must be at least 2 (a leader + followers)".to_owned());
                }
            }
            "--runners" => {
                let v = value("--runners")?;
                args.runners = v.parse().map_err(|_| format!("bad runner count {v:?}"))?;
            }
            "--scenario" => args.scenario = value("--scenario")?,
            "--profile" => args.profile = value("--profile")?,
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--out" => args.out = value("--out")?,
            "--artifacts" => args.artifacts = Some(value("--artifacts")?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn fail(code: i32, msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(code);
}

/// Everything the three phases measured, for the JSON record.
struct Measurements {
    runners: usize,
    cold_ms: f64,
    cold_frames_built: u64,
    warm: Vec<f64>,
    warm_frames_built: u64,
    warm_frames_reused: u64,
    coalesced: Vec<f64>,
    coalesced_followers: usize,
    burst_wall_ms: f64,
    total_ms: f64,
}

/// Hand-rolled JSON for a flat telemetry record (no serde derive).
fn render_json(args: &Args, m: &Measurements) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"scenario\": \"{}\",\n", args.scenario));
    out.push_str(&format!("  \"profile\": \"{}\",\n", args.profile));
    out.push_str(&format!("  \"seed\": {},\n", args.seed));
    out.push_str(&format!("  \"jobs\": {},\n", args.jobs));
    out.push_str(&format!("  \"runners\": {},\n", m.runners));
    out.push_str(&format!(
        "  \"artifacts\": {},\n",
        args.artifacts
            .as_ref()
            .map_or("null".to_owned(), |d| format!("{d:?}"))
    ));
    out.push_str(&format!("  \"cold_ms\": {:.3},\n", m.cold_ms));
    out.push_str(&format!(
        "  \"cold_frames_built\": {},\n",
        m.cold_frames_built
    ));
    out.push_str(&format!("  \"warm_jobs\": {},\n", m.warm.len()));
    out.push_str(&format!(
        "  \"warm_p50_ms\": {:.3},\n",
        quantile(&m.warm, 0.5)
    ));
    out.push_str(&format!(
        "  \"warm_p95_ms\": {:.3},\n",
        quantile(&m.warm, 0.95)
    ));
    out.push_str(&format!(
        "  \"warm_frames_built\": {},\n",
        m.warm_frames_built
    ));
    out.push_str(&format!(
        "  \"warm_frames_reused\": {},\n",
        m.warm_frames_reused
    ));
    out.push_str(&format!("  \"burst_jobs\": {},\n", m.coalesced.len()));
    out.push_str(&format!(
        "  \"coalesced_followers\": {},\n",
        m.coalesced_followers
    ));
    out.push_str(&format!(
        "  \"coalesced_p50_ms\": {:.3},\n",
        quantile(&m.coalesced, 0.5)
    ));
    out.push_str(&format!(
        "  \"coalesced_p95_ms\": {:.3},\n",
        quantile(&m.coalesced, 0.95)
    ));
    out.push_str(&format!("  \"burst_wall_ms\": {:.3},\n", m.burst_wall_ms));
    out.push_str(&format!("  \"total_ms\": {:.3}\n", m.total_ms));
    out.push_str("}\n");
    out
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| fail(2, &e));
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(), // ephemeral bench port
        artifacts: args.artifacts.clone().map(Into::into),
        runners: args.runners,
        ..ServeConfig::default()
    };
    let runners = config.effective_runners();
    let server = Server::start(config).unwrap_or_else(|e| fail(1, &e));
    let client = Client::new(&server.addr().to_string());
    client
        .wait_ready(Duration::from_secs(10))
        .unwrap_or_else(|e| fail(1, &e));
    let request = SubmitRequest {
        scenario: Some(args.scenario.clone()),
        seed: Some(args.seed),
        profile: Some(args.profile.clone()),
        ..SubmitRequest::default()
    };

    // Phases 1+2: one cold job, then sequential warm jobs.
    let start = std::time::Instant::now();
    let mut cold_ms = 0.0;
    let mut cold_frames_built = 0;
    let mut warm = Vec::with_capacity(args.jobs - 1);
    let mut warm_frames_built = 0;
    let mut warm_frames_reused = 0;
    for n in 0..args.jobs {
        let id = client.submit(&request).unwrap_or_else(|e| fail(1, &e));
        let snap = client
            .wait_done(&id, Duration::from_secs(600))
            .unwrap_or_else(|e| fail(1, &e));
        let run_ms = snap.run_ms.unwrap_or(0) as f64;
        if n == 0 {
            cold_ms = run_ms;
            cold_frames_built = snap.frames_built;
        } else {
            warm.push(run_ms);
            warm_frames_built += snap.frames_built;
            warm_frames_reused += snap.frames_reused;
        }
    }

    // Phase 3: coalesced burst. Gate the pool so every submission lands
    // while the first is still queued — one leader, burst-1 followers —
    // then resume and time the whole settle.
    server.service().pause();
    let burst_ids: Vec<String> = (0..args.burst)
        .map(|_| client.submit(&request).unwrap_or_else(|e| fail(1, &e)))
        .collect();
    let burst_start = std::time::Instant::now();
    server.service().resume();
    let mut coalesced = Vec::with_capacity(args.burst);
    let mut coalesced_followers = 0;
    for id in &burst_ids {
        let snap = client
            .wait_done(id, Duration::from_secs(600))
            .unwrap_or_else(|e| fail(1, &e));
        coalesced.push(snap.run_ms.unwrap_or(0) as f64);
        if snap.coalesced_into.is_some() {
            coalesced_followers += 1;
        }
    }
    let burst_wall_ms = burst_start.elapsed().as_secs_f64() * 1000.0;
    let total_ms = start.elapsed().as_secs_f64() * 1000.0;

    client.shutdown().unwrap_or_else(|e| fail(1, &e));
    server.join();

    if warm_frames_built > 0 {
        eprintln!(
            "[serve_latency] WARNING: warm jobs built {warm_frames_built} frames — \
             the shared cache is not serving the repeat analyses"
        );
    }
    if coalesced_followers != args.burst - 1 {
        eprintln!(
            "[serve_latency] WARNING: only {coalesced_followers}/{} burst jobs \
             coalesced — the gated burst should be one leader + followers",
            args.burst - 1
        );
    }
    let measurements = Measurements {
        runners,
        cold_ms,
        cold_frames_built,
        warm,
        warm_frames_built,
        warm_frames_reused,
        coalesced,
        coalesced_followers,
        burst_wall_ms,
        total_ms,
    };
    let json = render_json(&args, &measurements);
    std::fs::write(&args.out, &json)
        .unwrap_or_else(|e| fail(1, &format!("writing {:?}: {e}", args.out)));
    println!("{json}");
    eprintln!("[serve_latency] wrote {}", args.out);
}
