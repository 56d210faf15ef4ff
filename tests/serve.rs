//! The service-layer contracts (ISSUE 7 acceptance, updated for the
//! ISSUE 8 runner pool + coalescing):
//!
//! * **byte-identical under concurrency** — four client threads submit
//!   the same smoke run to one daemon; every fetched report equals the
//!   offline `reports_to_json` output byte-for-byte, whether the job
//!   executed or settled as a coalesced follower,
//! * **warm frames** — after the first execution, a repeat analysis
//!   that actually runs reports `frames_built == 0` and
//!   `frames_reused > 0` (the daemon's one process-wide memo,
//!   `StoreCache`, is shared across jobs),
//! * **backpressure** — a full bounded queue answers `503` +
//!   `Retry-After` for *distinct* specs and never blocks the accept
//!   loop; an *identical* spec coalesces instead of bouncing,
//! * **graceful shutdown** — `POST /shutdown` drains every queued job
//!   before `Server::join` returns,
//! * **name resolution** — `POST /runs` by name falls back to the spec
//!   search path (`$PD_SPEC_PATH`), and a typo gets a did-you-mean,
//! * **stage memo** — a seed's third sequential execution is served
//!   from the daemon's memo (`store_loads == 3`), a one-off seed keeps
//!   no artifact, and repeat executions share one report allocation.
//!
//! **Ordering contract**: job ids are assigned in submission order, but
//! with a runner pool jobs do **not** execute or finish in id order —
//! all assertions here are keyed per id (`/runs/:id`), never on which
//! id finished first. See `tests/README.md`.
//!
//! Everything runs in-process against a real `Server` on an ephemeral
//! port — real sockets, real HTTP bytes, no mocks.

use pd_core::{reports_to_json, Experiment, Profile, ScenarioRegistry};
use pd_serve::{Client, ServeConfig, Server, SubmitRequest};
use pd_web::http::Status;
use std::time::Duration;

/// A daemon on an ephemeral port plus a client pointed at it.
fn boot(config: ServeConfig) -> (Server, Client) {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..config
    })
    .expect("bind ephemeral port");
    let client = Client::new(&server.addr().to_string());
    client
        .wait_ready(Duration::from_secs(10))
        .expect("daemon answers /healthz");
    (server, client)
}

fn smoke_request(seed: u64) -> SubmitRequest {
    SubmitRequest {
        scenario: Some("smoke".to_owned()),
        seed: Some(seed),
        profile: Some("smoke".to_owned()),
        ..SubmitRequest::default()
    }
}

/// The offline report JSON for the same submission — what
/// `pd run smoke --seed N --profile smoke --json` would write.
fn offline_smoke_json(seed: u64) -> String {
    let spec = ScenarioRegistry::builtin()
        .get("smoke")
        .expect("smoke is builtin")
        .clone();
    let arms = Experiment::builder()
        .spec(spec)
        .seed(seed)
        .profile(Profile::parse("smoke").expect("smoke profile"))
        .run_sweep()
        .expect("offline smoke runs");
    let reports: Vec<(String, pd_core::Report)> = arms
        .into_iter()
        .map(|arm| (arm.label, arm.analysis.report.clone()))
        .collect();
    reports_to_json(&reports)
}

/// Four concurrent submissions of the same run: every served report is
/// byte-identical to the offline path. With coalescing, identical
/// in-flight submissions attach to one execution (`coalesced_into`
/// names the leader); executions of the same fingerprint are therefore
/// serialized, so exactly one job ever pays to build the analysis
/// frames and every other *execution* runs fully warm. How many of the
/// four coalesce vs. re-execute depends on timing — the assertions
/// hold either way.
#[test]
fn concurrent_submissions_serve_byte_identical_reports_from_warm_frames() {
    let offline = offline_smoke_json(7);
    let (server, client) = boot(ServeConfig::default());

    let ids: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let client = client.clone();
                scope.spawn(move || {
                    let id = client.submit(&smoke_request(7)).expect("accepted");
                    client
                        .wait_done(&id, Duration::from_secs(120))
                        .expect("job finishes");
                    id
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("thread"))
            .collect()
    });

    let mut built_jobs = 0;
    let mut warm_jobs = 0;
    let mut followers = 0;
    for id in &ids {
        let report = client.report(id).expect("report body");
        assert_eq!(
            report, offline,
            "{id}: served report must be byte-identical to the offline run"
        );
        let snap = client.job(id).expect("snapshot");
        assert!(snap.has_report, "{id} must advertise its report");
        if let Some(leader) = &snap.coalesced_into {
            assert!(
                ids.contains(leader),
                "{id} coalesced into {leader}, which must be one of ours"
            );
            assert_eq!(snap.frames_built, 0, "{id}: a follower never ran an engine");
            followers += 1;
        } else if snap.frames_built > 0 {
            built_jobs += 1;
        } else {
            assert!(
                snap.frames_reused > 0,
                "{id}: an execution that built nothing must have reused warm frames"
            );
            warm_jobs += 1;
        }
    }
    assert_eq!(
        built_jobs, 1,
        "exactly one execution pays to build the frames; coalescing and \
         the cache serve the rest"
    );
    assert_eq!(warm_jobs + followers, 3);

    // A fifth, sequential job is fully warm.
    let id = client.submit(&smoke_request(7)).expect("accepted");
    let snap = client
        .wait_done(&id, Duration::from_secs(120))
        .expect("job finishes");
    assert_eq!(snap.frames_built, 0, "repeat analysis builds nothing");
    assert!(snap.frames_reused > 0);

    let metrics = client.metrics().expect("metrics");
    for key in [
        "uptime_ms ",
        "jobs_done 5\n",
        "jobs_failed 0\n",
        "jobs_coalesced ",
        "frames_built ",
        "frames_reused ",
        "frames_chunks_loaded ",
        "store_hits ",
        "stage_ms_analysis ",
    ] {
        assert!(metrics.contains(key), "metrics missing {key:?}:\n{metrics}");
    }

    client.shutdown().expect("graceful drain");
    server.join();
}

/// A full bounded queue answers `503` with a `Retry-After` header for a
/// *distinct* spec — and because submissions use `try_send`, the accept
/// loop keeps answering (`/healthz` works while the queue is jammed).
/// An *identical* spec never sees the 503: it coalesces onto the queued
/// leader without needing a slot.
#[test]
fn full_queue_answers_503_with_retry_after_and_keeps_accepting() {
    let (server, client) = boot(ServeConfig {
        queue_capacity: 1,
        paused: true, // runners gated: the queue fills deterministically
        ..ServeConfig::default()
    });

    // Seed 3 takes the only slot; seed 4 is a different fingerprint, so
    // it must contend for the queue — and bounce.
    let first = client.submit(&smoke_request(3)).expect("fits the queue");
    let body = serde_json::to_string(&smoke_request(4)).expect("encodes");
    let rejected = client.post_json("/runs", &body).expect("transport ok");
    assert_eq!(rejected.status, Status::ServiceUnavailable);
    assert_eq!(
        rejected.headers.get("retry-after").map(String::as_str),
        Some("1"),
        "503 must carry Retry-After: {:?}",
        rejected.headers
    );
    assert!(rejected.body.contains("queue is full"), "{}", rejected.body);

    // The jammed queue never blocks the accept loop.
    let health = client.get("/healthz").expect("still accepting");
    assert_eq!(health.status, Status::Ok);
    let err = client.submit(&smoke_request(4)).expect_err("full queue");
    assert!(err.contains("503"), "client surfaces the 503: {err}");

    // An identical resubmission does NOT need a queue slot: it rides
    // the queued leader.
    let dup = client
        .submit(&smoke_request(3))
        .expect("identical spec coalesces instead of bouncing");

    server.service().resume();
    client
        .wait_done(&first, Duration::from_secs(120))
        .expect("accepted job still runs");
    let dup_snap = client
        .wait_done(&dup, Duration::from_secs(120))
        .expect("follower settles with the leader");
    assert_eq!(dup_snap.coalesced_into.as_deref(), Some(first.as_str()));
    assert_eq!(
        client.report(&dup).expect("follower report"),
        client.report(&first).expect("leader report"),
        "follower and leader serve the same bytes"
    );
    let metrics = client.metrics().expect("metrics");
    assert!(metrics.contains("jobs_rejected 2\n"), "{metrics}");
    assert!(metrics.contains("jobs_coalesced 1\n"), "{metrics}");

    client.shutdown().expect("graceful drain");
    server.join();
}

/// `POST /shutdown` drains: jobs queued *before* the shutdown still run
/// to completion before `join` returns, and new submissions are refused
/// while draining.
#[test]
fn graceful_shutdown_drains_queued_jobs() {
    let (server, client) = boot(ServeConfig {
        paused: true, // both jobs are still queued when shutdown arrives
        ..ServeConfig::default()
    });
    let a = client.submit(&smoke_request(11)).expect("queued");
    let b = client.submit(&smoke_request(12)).expect("queued");

    client.shutdown().expect("drain begins");
    let refused = client.submit(&smoke_request(13)).expect_err("draining");
    assert!(refused.contains("503"), "{refused}");

    let service = server.service();
    server.join(); // returns only after the drain finishes

    for id in [&a, &b] {
        let snap = service
            .snapshot(pd_serve::service::parse_job_id(id).expect("j-N id"))
            .expect("job exists");
        assert_eq!(snap.status, "done", "{id} must finish before join returns");
        assert!(snap.has_report, "{id} kept its report through the drain");
    }
    assert!(service.metrics_text().contains("jobs_done 2\n"));
}

/// The shutdown acknowledgement is a promise: once a client has read
/// it, every submission — here on a fresh connection, possibly served
/// by another accept worker — gets a 503. Draining is switched on
/// before the acknowledgement is built, so this holds on every one of
/// 50 fresh daemons, not just when the scheduler is kind.
#[test]
fn submit_after_shutdown_ack_is_always_refused() {
    for round in 0..50 {
        let (server, client) = boot(ServeConfig {
            threads: 4,
            ..ServeConfig::default()
        });
        client.shutdown().expect("drain begins");
        let fresh = Client::new(&server.addr().to_string());
        let refused = fresh
            .submit(&smoke_request(round))
            .expect_err("submission after the shutdown ack");
        assert!(refused.contains("503"), "round {round}: {refused}");
        server.join();
    }
}

/// By-name submissions fall back to the spec search path, and a typo'd
/// name gets a did-you-mean in the 400 body.
#[test]
fn submit_by_name_searches_spec_path_and_suggests_on_typo() {
    let dir = std::env::temp_dir().join(format!("pd-serve-specs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let spec = ScenarioRegistry::builtin()
        .get("smoke")
        .expect("smoke is builtin")
        .clone();
    let mut renamed = spec;
    renamed.name = "smoke-from-path".to_owned();
    std::fs::write(dir.join("smoke-from-path.json"), renamed.to_json_pretty()).expect("write spec");
    // Process-wide: fine here, this suite is its own test binary and no
    // other case reads the search path.
    std::env::set_var(pd_core::SPEC_PATH_ENV, &dir);

    let (server, client) = boot(ServeConfig::default());
    let id = client
        .submit(&SubmitRequest {
            scenario: Some("smoke-from-path".to_owned()),
            profile: Some("smoke".to_owned()),
            ..SubmitRequest::default()
        })
        .expect("resolved via $PD_SPEC_PATH");
    let snap = client
        .wait_done(&id, Duration::from_secs(120))
        .expect("spec-path job runs");
    assert_eq!(snap.scenario, "smoke-from-path");

    let err = client
        .submit(&SubmitRequest {
            scenario: Some("smoek".to_owned()),
            ..SubmitRequest::default()
        })
        .expect_err("unknown name");
    assert!(err.contains("400"), "{err}");
    assert!(err.contains("did you mean \\\"smoke\\\"?"), "{err}");

    client.shutdown().expect("graceful drain");
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// The HTTP surface: liveness, listing, 404s with a JSON error body.
#[test]
fn http_surface_lists_jobs_and_404s_unknown_routes() {
    let (server, client) = boot(ServeConfig::default());

    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, Status::Ok);
    assert_eq!(health.body, "ok\n");

    let id = client.submit(&smoke_request(5)).expect("accepted");
    client
        .wait_done(&id, Duration::from_secs(120))
        .expect("finishes");
    let runs = client.runs().expect("listing");
    assert_eq!(runs.runs.len(), 1);
    assert_eq!(runs.runs[0].id, id);
    assert_eq!(runs.runs[0].scenario, "smoke");

    for path in ["/nope", "/runs/j-99", "/runs/j-99/report", "/runs/bogus"] {
        let resp = client.get(path).expect("transport ok");
        assert_eq!(resp.status, Status::NotFound, "{path}");
        assert!(resp.body.contains("error"), "{path}: {}", resp.body);
    }

    client.shutdown().expect("graceful drain");
    server.join();
}

/// The stage memo on the serving path: a seed run once leaves no memo
/// entry; run again it keeps its three measurement artifacts, and the
/// third sequential run is served from them — no crowd or crawl work,
/// no frame builds, and the offline report's bytes.
#[test]
fn third_sequential_run_of_a_seed_is_served_from_the_memo() {
    let offline = offline_smoke_json(21);
    let (server, client) = boot(ServeConfig::default());
    let memo_entries = |client: &Client| {
        let metrics = client.metrics().expect("metrics");
        metrics
            .lines()
            .find_map(|line| line.strip_prefix("memo_entries "))
            .and_then(|n| n.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no memo_entries gauge:\n{metrics}"))
    };

    let one_off = client.submit(&smoke_request(22)).expect("accepted");
    client
        .wait_done(&one_off, Duration::from_secs(120))
        .expect("finishes");
    assert_eq!(memo_entries(&client), 0, "a one-off seed keeps no artifact");

    let mut ids = Vec::new();
    for run in 1..=3 {
        let id = client.submit(&smoke_request(21)).expect("accepted");
        let snap = client
            .wait_done(&id, Duration::from_secs(120))
            .expect("finishes");
        assert!(snap.coalesced_into.is_none(), "run {run} executed");
        assert_eq!(client.report(&id).expect("report"), offline, "run {run}");
        if run == 3 {
            assert_eq!(snap.store_loads, 3, "crowd, crawl, personas from the memo");
            assert_eq!(snap.frames_built, 0);
        }
        ids.push(id);
    }
    assert_eq!(memo_entries(&client), 3);

    // Non-coalesced executions of one submission share one report
    // allocation in the job table.
    let service = server.service();
    let body = |id: &str| {
        let id = pd_serve::service::parse_job_id(id).expect("j-N id");
        service
            .report_body(id)
            .expect("job exists")
            .expect("has report")
    };
    for id in &ids[1..] {
        assert!(std::sync::Arc::ptr_eq(&body(&ids[0]), &body(id)), "{id}");
    }

    client.shutdown().expect("graceful drain");
    server.join();
}
