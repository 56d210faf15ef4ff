//! The `serve` workload: an in-process `pd serve` daemon (2 runners × 1
//! job thread, 2 HTTP workers) under an **open-loop** Poisson stream of
//! `paper`@smoke jobs. Three jobs in four draw their seed from a hot set
//! of four; one in four uses a seed never seen before. The only workload
//! that queues, coalesces and reuses the daemon's warm caches — and its
//! never-repeated seeds make the daemon's memory grow.
//!
//! Two load threads (one connection each): a generator that submits
//! every job at its due time whatever the daemon is doing, and a poller
//! that watches every outstanding job. Each job is timed from its due
//! time until the poller sees it `done`, so a stall shows in every job
//! due behind it.

use crate::metrics::{self, digest, ms, Outcome, Rng, Trace};
use crate::Ctx;
use pd_core::{reports_to_json, Experiment, Profile};
use pd_serve::{Client, JobSnapshot, ServeConfig, Server, SubmitRequest};
use std::collections::{BTreeMap, HashSet};
use std::ops::Range;
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

/// Mean arrival rate, jobs per second.
const RATE: f64 = 3.4;
/// Size of the hot seed set.
const HOT: u64 = 4;
/// Share of jobs drawing a hot seed.
const HOT_SHARE: f64 = 0.75;
/// Pause between two polling rounds over the outstanding jobs.
const POLL_PAUSE: Duration = Duration::from_millis(4);
/// Daemon starts per run; `setup_s` is their median.
const STARTS: usize = 25;
/// Timed segments per run; the host's speed is sampled between them.
const SEGMENTS: usize = 10;
/// Host-speed samples at each idle point.
const SPEED_SAMPLES: usize = 4;

/// One scheduled submission.
struct Job {
    seed: u64,
    due: Duration,
    /// Whether an earlier job in the schedule used the same seed.
    repeat: bool,
}

/// Shuffles `v` in place (Fisher–Yates).
fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
}

/// The seeded schedule: `RATE × seconds` arrivals spread as a Poisson
/// process conditioned on its count in every one-second slot (uniform
/// times within a slot; the slots' counts differ by at most one), so
/// every run of a given length submits the same number of jobs — and
/// exactly a quarter of them, at random positions, with never-seen
/// seeds. Within a second, arrivals bunch as in any Poisson stream and
/// queue behind each other; conditioning per slot keeps the number of
/// such bunches from swinging between seeds, which would make the tail
/// latency of a 100-job run a property of the seed rather than of the
/// daemon.
fn schedule(ctx: &Ctx) -> Vec<Job> {
    let n = (RATE * ctx.seconds)
        .round()
        .max(if ctx.tiny { 6.0 } else { 1.0 }) as usize;
    let mut rng = Rng::new(ctx.seed ^ 0x5e7e_0000);
    let slots = ctx.seconds.ceil().max(1.0) as usize;
    let mut counts = vec![n / slots; slots];
    let mut order: Vec<usize> = (0..slots).collect();
    shuffle(&mut order, &mut rng);
    for &slot in &order[..n % slots] {
        counts[slot] += 1;
    }
    let width = ctx.seconds / slots as f64;
    let mut due: Vec<f64> = Vec::with_capacity(n);
    for (slot, &count) in counts.iter().enumerate() {
        for _ in 0..count {
            due.push((slot as f64 + rng.next_f64()) * width);
        }
    }
    due.sort_by(f64::total_cmp);
    let hot_jobs = (n as f64 * HOT_SHARE).round() as usize;
    let mut is_hot: Vec<bool> = (0..n).map(|i| i < hot_jobs).collect();
    shuffle(&mut is_hot, &mut rng);
    let base = (ctx.seed % 100_000) * 1_000 + 1;
    let mut unseen = base + HOT;
    let mut seen = HashSet::new();
    due.into_iter()
        .zip(is_hot)
        .map(|(at, hot)| {
            let seed = if hot {
                base + rng.next_u64() % HOT
            } else {
                unseen += 1;
                unseen
            };
            Job {
                seed,
                due: Duration::from_secs_f64(at),
                repeat: !seen.insert(seed),
            }
        })
        .collect()
}

fn submission(seed: u64) -> SubmitRequest {
    SubmitRequest {
        scenario: Some("paper".to_owned()),
        seed: Some(seed),
        profile: Some(Profile::Smoke.name().to_owned()),
        spec: None,
    }
}

/// The daemon under test.
fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 2,
        job_threads: 1,
        runners: 2,
        ..ServeConfig::default()
    }
}

/// Starts a daemon and waits for `/healthz`; returns it with the time
/// that took.
fn start() -> Result<(Server, f64), String> {
    let t = Instant::now();
    let server = Server::start(config())?;
    // The probe client is dropped here, closing its keep-alive
    // connection so it does not hold an HTTP worker.
    Client::new(&server.addr().to_string()).wait_ready(Duration::from_secs(10))?;
    Ok((server, t.elapsed().as_secs_f64()))
}

/// What the generator reports for one submission.
struct Submitted {
    index: usize,
    id: Result<String, String>,
    lag: Duration,
    round_trip: Duration,
}

/// What the poller saw for one job.
struct Settled {
    latency: Duration,
    snapshot: JobSnapshot,
}

/// Everything one open-loop window measured.
#[derive(Default)]
struct Window {
    settled: BTreeMap<usize, Settled>,
    submits: Vec<Duration>,
    lags: Vec<f64>,
    rejected: u64,
    lost: u64,
    polls: u64,
    poll_intervals: Vec<f64>,
    elapsed: Duration,
}

/// Drives the jobs of the schedule in `range` against the daemon at
/// `addr`, the schedule's time `offset` being now, until every accepted
/// job has settled; adds what it measured to `w`.
fn drive(addr: &str, jobs: &[Job], range: Range<usize>, offset: Duration, w: &mut Window) {
    let (tx, rx) = mpsc::channel::<Submitted>();
    let t0 = Instant::now();
    let due_at = move |index: usize| t0 + jobs[index].due.saturating_sub(offset);
    std::thread::scope(|s| {
        s.spawn(move || {
            let client = Client::new(addr);
            for index in range {
                let job = &jobs[index];
                let due = due_at(index);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let id = client.submit(&submission(job.seed));
                let sub = Submitted {
                    index,
                    id,
                    lag: sent.saturating_duration_since(due),
                    round_trip: sent.elapsed(),
                };
                if tx.send(sub).is_err() {
                    return;
                }
            }
        });

        let client = Client::new(addr);
        let mut outstanding: Vec<(usize, String)> = Vec::new();
        let mut generating = true;
        let mut last_round: Option<Instant> = None;
        loop {
            loop {
                let next = if outstanding.is_empty() && generating {
                    rx.recv_timeout(Duration::from_millis(100))
                        .map_err(|e| e == RecvTimeoutError::Disconnected)
                } else {
                    rx.try_recv().map_err(|e| e == TryRecvError::Disconnected)
                };
                match next {
                    Ok(sub) => {
                        w.lags.push(ms(sub.lag));
                        w.submits.push(sub.round_trip);
                        match sub.id {
                            Ok(id) => outstanding.push((sub.index, id)),
                            Err(e) => {
                                eprintln!("serve: job {} refused: {e}", sub.index);
                                w.rejected += 1;
                            }
                        }
                    }
                    Err(disconnected) => {
                        generating &= !disconnected;
                        break;
                    }
                }
            }
            if outstanding.is_empty() {
                last_round = None;
                if generating {
                    continue;
                }
                break;
            }
            let round = Instant::now();
            if let Some(prev) = last_round.replace(round) {
                w.poll_intervals.push(ms(round - prev));
            }
            outstanding.retain(|(index, id)| {
                w.polls += 1;
                match client.job(id) {
                    Ok(snap) if snap.status == "done" || snap.status == "failed" => {
                        let latency = Instant::now().saturating_duration_since(due_at(*index));
                        w.settled.insert(
                            *index,
                            Settled {
                                latency,
                                snapshot: snap,
                            },
                        );
                        false
                    }
                    Ok(_) => true,
                    Err(e) => {
                        eprintln!("serve: polling {id}: {e}");
                        w.lost += 1;
                        false
                    }
                }
            });
            std::thread::sleep(POLL_PAUSE);
        }
        w.elapsed += t0.elapsed();
    });
}

/// Runs the workload. Untraced and traced runs execute the same code
/// (the client-side timestamps are always taken); `trace` selects which
/// metrics are printed.
///
/// # Errors
///
/// The daemon failing to start.
pub fn run(ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    let starts = if ctx.tiny { 1 } else { STARTS };
    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..starts {
        let (s, took) = start()?;
        setups.push(took);
        if i + 1 < starts {
            s.shutdown();
            s.join();
        } else {
            server = Some(s);
        }
    }
    let server = server.ok_or("no daemon started")?;
    let addr = server.addr().to_string();
    let jobs = schedule(ctx);

    // The schedule runs in segments; every job of one settles before the
    // next starts. The host's speed is sampled at those idle points,
    // never during a segment, where the kernel would compete with the
    // runners and read the daemon's own load as a slower host.
    let mut speed = metrics::Speed::default();
    let mut w = Window::default();
    let mut cpu = 0.0;
    speed.sample(SPEED_SAMPLES)?;
    let span = ctx.seconds / SEGMENTS as f64;
    for k in 0..SEGMENTS {
        let from = Duration::from_secs_f64(span * k as f64);
        let end = if k + 1 == SEGMENTS {
            jobs.len()
        } else {
            let to = Duration::from_secs_f64(span * (k + 1) as f64);
            jobs.partition_point(|j| j.due < to)
        };
        let begin = jobs.partition_point(|j| j.due < from);
        let cpu0 = metrics::cpu_ms();
        drive(&addr, &jobs, begin..end, from, &mut w);
        cpu += metrics::cpu_ms() - cpu0;
        speed.sample(SPEED_SAMPLES)?;
    }
    let peak = metrics::peak_rss_mb();

    // Every job has settled, so the drain cannot race a submission.
    let client = Client::new(&addr);
    let mut served: BTreeMap<u64, Vec<(usize, u64)>> = BTreeMap::new();
    let mut failed = w.rejected + w.lost;
    for (index, settled) in &w.settled {
        if settled.snapshot.status != "done" {
            eprintln!(
                "serve: {} failed: {:?}",
                settled.snapshot.id, settled.snapshot.error
            );
            failed += 1;
            continue;
        }
        match client.report(&settled.snapshot.id) {
            Ok(body) => served
                .entry(jobs[*index].seed)
                .or_default()
                .push((*index, digest(&ctx.maybe_tamper(body)))),
            Err(e) => {
                eprintln!("serve: report of {}: {e}", settled.snapshot.id);
                failed += 1;
            }
        }
    }
    drop(client);
    server.shutdown();
    server.join();

    // Offline references, one per distinct seed, outside the window.
    for (seed, reports) in &served {
        let arm = Experiment::builder()
            .scenario("paper")
            .seed(*seed)
            .profile(Profile::Smoke)
            .threads(2)
            .run_sweep()
            .map_err(|e| e.to_string())?
            .pop()
            .ok_or("the paper scenario produced no run")?;
        let want = digest(&reports_to_json(&[(arm.label, arm.analysis.report)]));
        for (index, got) in reports {
            if *got != want {
                eprintln!("serve: job {index} (seed {seed}) report differs from the offline run");
                failed += 1;
            }
        }
    }

    let done: Vec<&JobSnapshot> = w
        .settled
        .values()
        .map(|s| &s.snapshot)
        .filter(|s| s.status == "done")
        .collect();
    let share = |k: usize| k as f64 / done.len().max(1) as f64;
    let coalesced = share(done.iter().filter(|s| s.coalesced_into.is_some()).count());
    let warm = share(done.iter().filter(|s| s.frames_built == 0).count());
    let repeat = jobs.iter().filter(|j| j.repeat).count() as f64 / jobs.len() as f64;
    let latencies: Vec<f64> = w.settled.values().map(|s| ms(s.latency)).collect();
    let lag_max = w.lags.iter().copied().fold(0.0, f64::max);
    let poll_interval = metrics::quantile(&w.poll_intervals, 0.5);
    let queued: Vec<f64> = done
        .iter()
        .filter_map(|s| s.queued_ms)
        .map(|v| v as f64)
        .collect();
    eprintln!(
        "serve: {} jobs at {RATE}/s over {:.1} s ({} refused); latency p50 {:.1} ms p90 {:.1} ms; \
         queue wait p50 {:.0} ms p90 {:.0} ms; repeat {:.2} warm {:.2} coalesced {:.2}; \
         generator lag p50 {:.2} ms max {:.2} ms; poll interval p50 {:.2} ms; set-up {:.4} s",
        jobs.len(),
        w.elapsed.as_secs_f64(),
        w.rejected,
        metrics::quantile(&latencies, 0.5),
        metrics::quantile(&latencies, 0.9),
        metrics::quantile(&queued, 0.5),
        metrics::quantile(&queued, 0.9),
        repeat,
        warm,
        coalesced,
        metrics::quantile(&w.lags, 0.5),
        lag_max,
        poll_interval,
        metrics::quantile(&setups, 0.5),
    );

    let attempted = jobs.len() as u64;
    if !trace {
        return Ok(Outcome::end_to_end(
            attempted,
            failed,
            metrics::quantile(&setups, 0.5),
            &latencies,
            cpu,
            peak,
            speed.factor(),
        ));
    }
    let mut t = Trace::default();
    for d in &w.submits {
        t.record("serve.submit", *d);
    }
    for s in &done {
        t.record(
            "serve.queue_wait",
            Duration::from_millis(s.queued_ms.unwrap_or(0)),
        );
        t.record("serve.run", Duration::from_millis(s.run_ms.unwrap_or(0)));
        t.add("analysis.frames_built", s.frames_built as f64);
        t.add("analysis.frames_reused", s.frames_reused as f64);
        t.add("analysis.chunks_loaded", s.frames_chunks_loaded as f64);
    }
    t.add("serve.poll", w.polls as f64);
    t.add("serve.rejected", w.rejected as f64);
    t.set("serve.coalesced_frac", coalesced);
    t.set("serve.warm_frac", warm);
    t.set("serve.repeat_frac", repeat);
    t.set("serve.generator_lag_ms", lag_max);
    t.set("serve.poll_interval_ms", poll_interval);
    // Nothing extra is recorded when traced, so the overhead is zero by
    // construction.
    t.set("trace.overhead_frac", 0.0);
    Ok(Outcome {
        attempted,
        failed,
        metrics: t.per_layer(attempted),
    })
}
