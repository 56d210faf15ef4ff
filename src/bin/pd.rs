//! `pd` — the scenario-driven experiment runner.
//!
//! ```text
//! pd run <scenario>|--spec FILE.json
//!                   [--set key=value]... [--seed N] [--threads N]
//!                   [--profile smoke|small|medium|paper]
//!                   [--json PATH] [--render] [--timings]
//!                   [--artifacts DIR [--overwrite-artifacts]]
//! pd rerun <DIR> [--set key=value]... [--threads N]
//!                [--json PATH] [--render] [--timings]
//! pd scenarios show <NAME> [--json]
//! pd artifacts ls <DIR>
//! pd artifacts cat <DIR> <crowd|crawl|personas|analysis>
//! pd artifacts export <DIR> <OUT>
//! pd serve [--addr HOST:PORT] [--threads N] [--job-threads N]
//!          [--runners N] [--artifacts DIR] [--queue N]
//! pd submit <scenario>|--spec FILE_OR_NAME [--addr HOST:PORT]
//!           [--set key=value]... [--seed N] [--profile P]
//! pd poll <JOB-ID> [--addr HOST:PORT] [--json PATH] [--timeout-secs N]
//! pd metrics [--addr HOST:PORT]
//! pd shutdown [--addr HOST:PORT]
//! pd list
//! pd --help
//! ```
//!
//! Scenarios come from the `pd_core` registry; `pd list` (and `--help`)
//! print the registered names, and a typo gets a did-you-mean hint.
//! Every scenario is a declarative `ScenarioSpec`: `pd scenarios show
//! NAME --json` dumps any builtin as an editable JSON file, `pd run
//! --spec FILE.json` executes such a file, and `--set key=value` layers
//! one-off typed overrides (e.g. `--set world.failure_rate=0.1`) onto
//! either — overrides compose with sweep axes because they patch the
//! base plan before the axes expand. Sweep scenarios (e.g.
//! `seed-sweep`) run every arm **concurrently** on the deterministic
//! executor (the `--threads` budget splits arm-level × intra-arm) and
//! label the output in arm order; `--json` then writes one object keyed
//! by arm label, and `--artifacts` gives each arm its own store
//! subdirectory (the manifest records the exact producing spec).
//!
//! `--artifacts DIR` is a transparent read-through cache: a stage whose
//! fingerprint matches a stored artifact is loaded instead of computed,
//! and freshly computed artifacts are persisted after the run. Stores
//! are chunked binary files (loads stream one domain chunk at a time);
//! `pd artifacts cat DIR STAGE` prints a stored stage as JSON, and `pd
//! artifacts export DIR OUT` writes the cleaned crowd and the crawl as
//! CSV and JSON Lines (`crowd.csv`, `crowd.jsonl`, `crawl.csv`,
//! `crawl.jsonl`) for external analysis. `pd run … --render` prints
//! every figure and table of the paper. A store
//! produced by a *different* run, or in an older layout this build no
//! longer reads, is never silently replaced — that takes
//! `--overwrite-artifacts`. `pd rerun DIR` re-analyzes a stored crawl —
//! optionally under different analysis knobs, given as `--set
//! analysis.KEY=VALUE` like `pd run`'s — without re-measuring anything;
//! a key that changes the measurements makes the store stale, and the
//! rerun refuses it. The persona stage stores the analysis's web probes
//! too; `--set analysis.attribution_products=N` reuses them when N is
//! the stored count and re-probes otherwise.
//!
//! `--spec` accepts a file path or a bare name: bare names resolve
//! against the spec search path (`examples/specs/`, then each
//! colon-separated directory in `$PD_SPEC_PATH`), with a did-you-mean
//! hint over every spec found on the path.
//!
//! `pd serve` starts the long-running measurement service (see the
//! `pd-serve` crate): a TCP daemon with one process-wide warm memo
//! shared across jobs, an HTTP/1.1 JSON API, and live
//! `/metrics`. `pd submit` queues a job on a running daemon (printing
//! its `j-N` id to stdout), `pd poll` waits for one and can fetch its
//! report — byte-identical to `pd run --json` for the same inputs —
//! and `pd shutdown` drains the daemon gracefully.
//!
//! Exit codes: `0` success, `1` runtime failure (store/report/IO), `2`
//! usage error (unknown command, flag, scenario or profile). All errors
//! go to stderr. A closed stdout (`pd … | head -1`) ends the process
//! quietly with status 0.

use pd_core::sheriff::export;
use pd_core::store::{self, Artifact, ArtifactStore, Fingerprint, Provenance, StoreError};
use pd_core::{
    AnalysisArtifact, ConfigPatch, CrawlArtifact, CrowdArtifact, Engine, Executor, Experiment,
    PersonaArtifact, Profile, RunPlan, ScenarioRegistry, ScenarioSpec, StageKind, TimingObserver,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `print!` to stdout through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// `println!` to stdout through [`emit`].
macro_rules! outln {
    () => {
        emit(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes to stdout. Once the reader has gone (`pd run … | head -1`)
/// the process exits quietly with status 0, where `print!` panics.
fn emit(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        fail(1, &format!("writing to stdout: {e}"));
    }
}

struct RunArgs {
    scenario: Option<String>,
    spec: Option<String>,
    overrides: ConfigPatch,
    seed: u64,
    threads: usize,
    profile: Profile,
    json: Option<String>,
    render: bool,
    timings: bool,
    artifacts: Option<PathBuf>,
    overwrite_artifacts: bool,
}

struct RerunArgs {
    dir: PathBuf,
    overrides: ConfigPatch,
    threads: usize,
    json: Option<String>,
    render: bool,
    timings: bool,
}

/// The daemon's default listen address, shared by every service
/// subcommand's `--addr` flag.
const DEFAULT_ADDR: &str = "127.0.0.1:7413";

struct ServeArgs {
    addr: String,
    threads: usize,
    job_threads: usize,
    runners: usize,
    artifacts: Option<PathBuf>,
    queue: usize,
}

struct SubmitArgs {
    scenario: Option<String>,
    spec: Option<String>,
    overrides: ConfigPatch,
    has_overrides: bool,
    seed: Option<u64>,
    profile: Option<Profile>,
    addr: String,
}

struct PollArgs {
    id: String,
    addr: String,
    json: Option<String>,
    timeout_secs: u64,
}

/// The SCENARIOS block, shared by `--help`, `pd list` context and the
/// unknown-scenario error so the fix is always one screen away.
fn scenario_lines(registry: &ScenarioRegistry) -> String {
    let mut out = String::new();
    for s in registry.iter() {
        out.push_str(&format!("  {:<16} {}\n", s.name, s.describe));
    }
    out
}

/// The unknown-scenario error: did-you-mean hint (nearest registered
/// name by edit distance) plus the full scenario list.
fn unknown_scenario(registry: &ScenarioRegistry, name: &str) -> String {
    let hint = registry
        .suggest(name)
        .map_or_else(String::new, |near| format!(" (did you mean {near:?}?)"));
    format!(
        "unknown scenario {name:?}{hint}; registered scenarios are:\n\n{}",
        scenario_lines(registry)
    )
}

fn usage(registry: &ScenarioRegistry) -> String {
    format!(
        "pd — scenario-driven reproduction of Mikians et al. (CoNEXT 2013)\n\
         \n\
         USAGE:\n\
         \x20 pd run <scenario>|--spec FILE.json [--set key=value]...\n\
         \x20                   [--seed N] [--threads N]\n\
         \x20                   [--profile smoke|small|medium|paper]\n\
         \x20                   [--json PATH] [--render] [--timings]\n\
         \x20                   [--artifacts DIR [--overwrite-artifacts]]\n\
         \x20 pd rerun <DIR> [--set key=value]... [--threads N]\n\
         \x20                [--json PATH] [--render] [--timings]\n\
         \x20 pd scenarios show <NAME> [--json]\n\
         \x20 pd artifacts ls <DIR>\n\
         \x20 pd artifacts cat <DIR> <crowd|crawl|personas|analysis>\n\
         \x20 pd artifacts export <DIR> <OUT>\n\
         \x20 pd serve [--addr HOST:PORT] [--threads N] [--job-threads N]\n\
         \x20          [--runners N] [--artifacts DIR] [--queue N]\n\
         \x20 pd submit <scenario>|--spec FILE_OR_NAME [--addr HOST:PORT]\n\
         \x20           [--set key=value]... [--seed N] [--profile P]\n\
         \x20 pd poll <JOB-ID> [--addr HOST:PORT] [--json PATH] [--timeout-secs N]\n\
         \x20 pd metrics [--addr HOST:PORT]\n\
         \x20 pd shutdown [--addr HOST:PORT]\n\
         \x20 pd list\n\
         \x20 pd --help\n\
         \n\
         OPTIONS:\n\
         \x20 --spec FILE      run a declarative scenario spec (JSON); start\n\
         \x20                  from `pd scenarios show NAME --json`. A bare\n\
         \x20                  name (no '/') searches examples/specs/ and each\n\
         \x20                  directory in $PD_SPEC_PATH for NAME[.json]\n\
         \x20 --set key=value  override one spec field (repeatable), e.g.\n\
         \x20                  --set crowd.users=120 --set world.failure_rate=0.1;\n\
         \x20                  composes with sweep axes (patches the base plan)\n\
         \x20 --seed N         root seed (default 1307, the paper seed)\n\
         \x20 --threads N      worker threads; 0 = auto (all available cores;\n\
         \x20                  default 1). Sweep arms run concurrently, splitting\n\
         \x20                  the budget (arms × per-arm workers ≤ N). The\n\
         \x20                  report is byte-identical at any value.\n\
         \x20 --profile P      workload scale (default small)\n\
         \x20 --json PATH      write the full report(s) as JSON\n\
         \x20 --render         print every figure, not just the summary\n\
         \x20 --timings        print per-stage wall-times and store loads\n\
         \x20 --artifacts DIR  persist stage artifacts to DIR (chunked binary\n\
         \x20                  files; loads stream per-domain chunks) and reuse\n\
         \x20                  any stored artifact whose fingerprint matches the\n\
         \x20                  run (measure once, re-analyze forever).\n\
         \x20                  `pd artifacts cat DIR STAGE` prints a stage as JSON;\n\
         \x20                  `pd artifacts export DIR OUT` writes the cleaned\n\
         \x20                  crowd and the crawl to OUT as CSV and JSON Lines\n\
         \x20 --overwrite-artifacts  allow --artifacts to replace a store\n\
         \x20                  produced by a different run or in an older\n\
         \x20                  layout (refused otherwise)\n\
         \n\
         RERUN OPTIONS (re-analyze a stored crawl without re-measuring):\n\
         \x20 --set key=value  override one field of the stored plan, e.g.\n\
         \x20                  --set analysis.fig1_domains=10 or\n\
         \x20                  --set analysis.attribution_products=16; a key\n\
         \x20                  outside analysis.* changes the measurements,\n\
         \x20                  so the stored stages are stale and refused\n\
         \n\
         SERVICE (pd serve / submit / poll / metrics / shutdown):\n\
         \x20 --addr HOST:PORT daemon address (default {DEFAULT_ADDR})\n\
         \x20 --threads N      serve: accept-loop worker threads (default 4)\n\
         \x20 --job-threads N  serve: executor threads per job (default 1)\n\
         \x20 --runners N      serve: runner-pool threads executing jobs\n\
         \x20                  concurrently (default 0 = auto: available\n\
         \x20                  cores / job-threads, at least 1). Reports are\n\
         \x20                  byte-identical at any value\n\
         \x20 --queue N        serve: bounded job queue capacity (default 16;\n\
         \x20                  a full queue answers 503 + Retry-After)\n\
         \x20 --timeout-secs N poll: give up waiting after N seconds\n\
         \x20                  (default 300)\n\
         \x20 Jobs share the daemon's warm memo; a repeated analysis\n\
         \x20 reports frames built=0. `pd poll --json PATH` writes the\n\
         \x20 report byte-identically to an offline `pd run --json`.\n\
         \n\
         SCENARIOS:\n{}",
        scenario_lines(registry)
    )
}

/// Reads one `--set key=value` argument into `patch`. The value is
/// parsed eagerly, so a bad key or value is a usage error (exit 2)
/// before any work happens.
fn set_override(args: &mut std::env::Args, patch: &mut ConfigPatch) -> Result<(), String> {
    let kv = args.next().ok_or("--set needs key=value")?;
    let (key, value) = kv
        .split_once('=')
        .ok_or_else(|| format!("--set {kv:?} is not key=value"))?;
    patch.set(key, value)
}

fn parse_run(mut args: std::env::Args, registry: &ScenarioRegistry) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        scenario: None,
        spec: None,
        overrides: ConfigPatch::default(),
        seed: 1307,
        threads: 1,
        profile: Profile::Small,
        json: None,
        render: false,
        timings: false,
        artifacts: None,
        overwrite_artifacts: false,
    };
    let mut first = true;
    while let Some(arg) = args.next() {
        if std::mem::take(&mut first) && !arg.starts_with("--") {
            if registry.get(&arg).is_none() {
                return Err(unknown_scenario(registry, &arg));
            }
            run.scenario = Some(arg);
            continue;
        }
        match arg.as_str() {
            "--spec" => {
                run.spec = Some(args.next().ok_or("--spec needs a file path or name")?);
            }
            "--set" => set_override(&mut args, &mut run.overrides)?,
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                run.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                run.threads = v.parse().map_err(|_| format!("bad thread count {v:?}"))?;
            }
            "--profile" => {
                let v = args.next().ok_or("--profile needs a value")?;
                run.profile = Profile::parse(&v).ok_or(format!("unknown profile {v:?}"))?;
            }
            "--json" => run.json = Some(args.next().ok_or("--json needs a path")?),
            "--render" => run.render = true,
            "--timings" => run.timings = true,
            "--artifacts" => {
                run.artifacts = Some(PathBuf::from(
                    args.next().ok_or("--artifacts needs a directory")?,
                ));
            }
            "--overwrite-artifacts" => run.overwrite_artifacts = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    match (&run.scenario, &run.spec) {
        (None, None) => Err("`pd run` needs a scenario name or --spec FILE".to_owned()),
        (Some(_), Some(_)) => Err("pass a scenario name or --spec FILE, not both".to_owned()),
        _ => Ok(run),
    }
}

fn parse_rerun(mut args: std::env::Args) -> Result<RerunArgs, String> {
    let dir = args.next().ok_or("`pd rerun` needs a store directory")?;
    let mut rerun = RerunArgs {
        dir: PathBuf::from(dir),
        overrides: ConfigPatch::default(),
        threads: 1,
        json: None,
        render: false,
        timings: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--set" => set_override(&mut args, &mut rerun.overrides)?,
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                rerun.threads = v.parse().map_err(|_| format!("bad thread count {v:?}"))?;
            }
            "--json" => rerun.json = Some(args.next().ok_or("--json needs a path")?),
            "--render" => rerun.render = true,
            "--timings" => rerun.timings = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(rerun)
}

/// One artifact-store save of a run: its arm label, the wall time of
/// the stage and analysis saves together, and the stages written.
struct StoreSave {
    arm: String,
    wall: Duration,
    stages: Vec<&'static str>,
}

fn print_timings(observer: &TimingObserver, saves: &[StoreSave]) {
    outln!("stage wall-times:");
    for (stage, fp) in observer.loaded() {
        outln!("  {stage:<9} loaded from store (fingerprint {fp})");
    }
    let line = |arm: &str, name: &str, wall: Duration, detail: String| {
        let name = if arm.is_empty() {
            name.to_owned()
        } else {
            format!("{arm}/{name}")
        };
        outln!(
            "  {:<22} {:>9.1} ms  {}",
            name,
            wall.as_secs_f64() * 1000.0,
            detail
        );
    };
    for t in observer.timings() {
        let counters: Vec<String> = t.counters.iter().map(|(n, v)| format!("{n}={v}")).collect();
        line(&t.arm, t.stage.as_str(), t.wall, counters.join(" "));
    }
    for save in saves {
        line(&save.arm, "save", save.wall, save.stages.join(", "));
    }
}

/// Stage names in run order, whatever order the engine resolved them in.
fn stage_names(stages: &[StageKind]) -> String {
    let mut stages = stages.to_vec();
    stages.sort();
    stages
        .iter()
        .map(|s| s.as_str())
        .collect::<Vec<_>>()
        .join(", ")
}

fn write_json(path: &str, reports: &[(String, pd_core::Report)]) -> Result<(), String> {
    // One shared formatter (`pd_core::reports_to_json`) renders the CLI
    // file, the daemon's stored report, and the bench comparisons — so
    // "byte-identical to `pd run --json`" holds by construction.
    let json = pd_core::reports_to_json(reports);
    std::fs::write(path, json).map_err(|e| format!("writing {path:?}: {e}"))?;
    outln!("report JSON written to {path}");
    Ok(())
}

/// Layers `--set` overrides onto a resolved spec, refusing overrides a
/// sweep axis would overwrite in every arm — the value would silently
/// never run (axes that derive from the base plan, like Seeds and
/// CrowdSizes, compose fine and pass).
fn apply_overrides(spec: &mut ScenarioSpec, overrides: &ConfigPatch) -> Result<(), String> {
    let conflicts = spec.override_conflicts(overrides);
    if let Some((key, axis)) = conflicts.first() {
        return Err(format!(
            "--set {key} conflicts with the {axis} sweep axis of scenario {:?}: \
             every arm overwrites that field, so the override would never run \
             (edit the spec's axis arms instead)",
            spec.name
        ));
    }
    spec.patch.merge(overrides);
    Ok(())
}

/// Resolves the spec a `pd run` invocation asks for: a registered
/// builtin by name, or a file/bare name via `--spec` (bare names search
/// `examples/specs/` and `$PD_SPEC_PATH`) — then layers any `--set`
/// overrides onto its patch.
fn resolve_spec(run: &RunArgs, registry: &ScenarioRegistry) -> Result<ScenarioSpec, String> {
    let mut spec = match (&run.scenario, &run.spec) {
        (Some(name), None) => registry
            .get(name)
            .ok_or_else(|| unknown_scenario(registry, name))?
            .clone(),
        (None, Some(arg)) => pd_core::load_spec(arg)?,
        _ => unreachable!("parse_run enforces scenario xor spec"),
    };
    apply_overrides(&mut spec, &run.overrides)?;
    Ok(spec)
}

fn execute_run(run: &RunArgs, registry: &ScenarioRegistry) -> Result<(), String> {
    let spec = resolve_spec(run, registry)?;
    let scenario_name = spec.name.clone();
    let observer = Arc::new(TimingObserver::new());
    let mut builder = Experiment::builder()
        .spec(spec)
        .seed(run.seed)
        .profile(run.profile)
        .threads(run.threads)
        .observer(observer.clone());
    if let Some(dir) = &run.artifacts {
        builder = builder.artifacts(dir.clone());
    }
    // Sweep arms run concurrently (the thread budget splits arm-level ×
    // intra-arm); output, artifact saves and observer events stay in
    // label order.
    let arms = builder.run_sweep().map_err(|e| e.to_string())?;

    let mut reports = Vec::new();
    let mut saves = Vec::new();
    for pd_core::SweepArmRun {
        label,
        engine,
        analysis,
    } in arms
    {
        let fleet = engine.context().vantage.len();
        let report = analysis.report.clone();
        if label.is_empty() {
            outln!(
                "== {} (profile {}, seed {}, {} threads, {fleet} probes) ==",
                scenario_name,
                engine.provenance().profile,
                run.seed,
                engine.executor().threads(),
            );
        } else {
            outln!("== {scenario_name} / {label} ==");
        }
        out!("{}", report.render_summary());
        if run.render {
            outln!("{}", report.render_all());
        }
        if let Some(dir) = engine.artifacts_dir().map(Path::to_path_buf) {
            if !engine.loaded_stages().is_empty() {
                outln!(
                    "artifacts: reused {} from {}",
                    stage_names(engine.loaded_stages()),
                    dir.display()
                );
            }
            let started = Instant::now();
            let saved = match engine.save_artifacts(&dir) {
                Ok(saved) => saved,
                // A store from a different run or in an older layout is
                // never silently clobbered; replacing it takes an
                // explicit flag (the older-layout error names it).
                Err(StoreError::PlanMismatch { .. } | StoreError::OlderLayout { .. })
                    if run.overwrite_artifacts =>
                {
                    std::fs::remove_dir_all(&dir)
                        .map_err(|e| format!("clearing {}: {e}", dir.display()))?;
                    engine.save_artifacts(&dir).map_err(|e| e.to_string())?
                }
                Err(e @ StoreError::PlanMismatch { .. }) => {
                    return Err(format!(
                        "{e}; pass --overwrite-artifacts to replace the store"
                    ));
                }
                Err(e) => return Err(e.to_string()),
            };
            let analysis_fresh = ArtifactStore::open(&dir).is_ok_and(|store| {
                let fp = store::analysis_fingerprint(engine.plan());
                store.held(StageKind::Analysis.as_str(), fp).is_some()
            });
            engine
                .save_analysis(&dir, &analysis)
                .map_err(|e| e.to_string())?;
            let mut stages = saved.saved.clone();
            if !analysis_fresh {
                stages.push(StageKind::Analysis.as_str());
            }
            if stages.is_empty() {
                outln!("artifacts: store up to date ({})", dir.display());
            } else {
                outln!(
                    "artifacts: saved {} to {}",
                    stages.join(", "),
                    dir.display()
                );
                saves.push(StoreSave {
                    arm: label.clone(),
                    wall: started.elapsed(),
                    stages,
                });
            }
        }
        outln!();
        reports.push((label, report));
    }

    if run.timings {
        print_timings(&observer, &saves);
    }
    if let Some(path) = &run.json {
        write_json(path, &reports)?;
    }
    Ok(())
}

fn execute_rerun(rerun: &RerunArgs) -> Result<(), String> {
    let store = ArtifactStore::open(&rerun.dir).map_err(|e| e.to_string())?;
    let manifest = store.manifest().clone();
    drop(store);

    let mut plan = manifest.plan.to_plan();
    // A key outside `analysis.` moves a measurement fingerprint; the
    // load below then finds the stored stages stale and refuses them.
    rerun.overrides.apply(&mut plan);

    let observer = Arc::new(TimingObserver::new());
    let p = &manifest.provenance;
    let mut engine =
        Engine::from_plan(plan, Executor::new(rerun.threads), observer.clone()).with_provenance(
            Provenance::new(&p.scenario, &p.label, &p.profile, p.seed, rerun.threads),
        );
    let summary = engine
        .load_artifacts(&rerun.dir)
        .map_err(|e| e.to_string())?;
    if !summary.complete() {
        let mut problems = Vec::new();
        if !summary.missing.is_empty() {
            problems.push(format!("missing: {}", stage_names(&summary.missing)));
        }
        if !summary.stale.is_empty() {
            problems.push(format!(
                "stale fingerprints: {}",
                stage_names(&summary.stale)
            ));
        }
        if !summary.corrupt.is_empty() {
            problems.push(format!("corrupt: {}", stage_names(&summary.corrupt)));
        }
        return Err(format!(
            "cannot re-analyze {}: {} (run `pd artifacts ls {}` for details)",
            rerun.dir.display(),
            problems.join("; "),
            rerun.dir.display(),
        ));
    }

    let report = engine.analyze().report;
    outln!(
        "== rerun {} (stored scenario {}{}, seed {}, {} threads) ==",
        rerun.dir.display(),
        p.scenario,
        if p.label.is_empty() {
            String::new()
        } else {
            format!(" / {}", p.label)
        },
        p.seed,
        engine.executor().threads(),
    );
    outln!(
        "artifacts: reused {} from {}",
        stage_names(engine.loaded_stages()),
        rerun.dir.display()
    );
    out!("{}", report.render_summary());
    if rerun.render {
        outln!("{}", report.render_all());
    }
    outln!();
    if rerun.timings {
        print_timings(&observer, &[]);
    }
    if let Some(path) = &rerun.json {
        write_json(path, &[(String::new(), report)])?;
    }
    Ok(())
}

fn execute_artifacts_ls(dir: &Path) -> Result<(), String> {
    let store = ArtifactStore::open(dir).map_err(|e| e.to_string())?;
    let m = store.manifest();
    let p = &m.provenance;
    outln!("artifact store {}", dir.display());
    outln!(
        "  scenario {}{}  profile {}  seed {}  threads {}",
        p.scenario,
        if p.label.is_empty() {
            String::new()
        } else {
            format!(" / {}", p.label)
        },
        p.profile,
        p.seed,
        p.threads,
    );
    outln!(
        "  schema v{}  created {} (unix ms)",
        m.schema_version,
        p.created_unix_ms
    );
    outln!(
        "  {:<10} {:<17} {:>10} {:>10} {:>7} {:>7}  status",
        "stage",
        "fingerprint",
        "bytes",
        "payload",
        "format",
        "chunks"
    );
    for (entry, health) in store.verify() {
        // The payload is the chunk region, recorded at save time.
        outln!(
            "  {:<10} {:<17} {:>10} {:>10} {:>7} {:>7}  {}",
            entry.stage,
            entry.fingerprint,
            entry.bytes,
            entry.payload_bytes,
            entry.format.as_str(),
            entry.chunks,
            health
        );
        for up in &entry.upstream {
            outln!("  {:<10} upstream {up}", "");
        }
    }
    Ok(())
}

/// The stages `pd artifacts cat` prints.
const CAT_STAGES: &str = "crowd|crawl|personas|analysis";

/// The usage line of each `pd artifacts` verb.
const ARTIFACTS_USAGE: [(&str, &str); 3] = [
    ("ls", "pd artifacts ls <DIR>"),
    (
        "cat",
        "pd artifacts cat <DIR> <crowd|crawl|personas|analysis>",
    ),
    ("export", "pd artifacts export <DIR> <OUT>"),
];

/// Loads `stage` of `store` as its typed artifact like any load: under
/// the fingerprint `fingerprint` derives from the store's own plan,
/// every chunk checksum verified.
fn load_stage<T: Artifact>(
    store: &ArtifactStore,
    stage: &str,
    fingerprint: fn(&RunPlan) -> Fingerprint,
) -> Result<T, String> {
    let plan = store.manifest().plan.to_plan();
    store
        .load(stage, fingerprint(&plan))
        .map_err(|e| e.to_string())
}

/// `pd artifacts cat DIR STAGE`: print one stored stage as compact
/// JSON ([`load_stage`], then `serde_json::to_string`).
fn execute_artifacts_cat(dir: &Path, stage: &str) -> Result<(), String> {
    fn render<T: Artifact>(
        store: &ArtifactStore,
        stage: &str,
        fingerprint: fn(&RunPlan) -> Fingerprint,
    ) -> Result<String, String> {
        let artifact: T = load_stage(store, stage, fingerprint)?;
        serde_json::to_string(&artifact).map_err(|e| e.to_string())
    }
    let store = ArtifactStore::open(dir).map_err(|e| e.to_string())?;
    let json = match stage {
        "crowd" => render::<CrowdArtifact>(&store, stage, store::crowd_fingerprint),
        "crawl" => render::<CrawlArtifact>(&store, stage, store::crawl_fingerprint),
        "personas" => render::<PersonaArtifact>(&store, stage, store::personas_fingerprint),
        "analysis" => render::<AnalysisArtifact>(&store, stage, store::analysis_fingerprint),
        other => unreachable!("main admits only {CAT_STAGES}, not {other:?}"),
    }?;
    outln!("{json}");
    Ok(())
}

/// `pd artifacts export DIR OUT`: write the store's cleaned crowd and
/// its crawl to `OUT` as CSV (one row per observation) and JSON Lines
/// (one measurement per line), both loaded through [`load_stage`].
fn execute_artifacts_export(dir: &Path, out: &Path) -> Result<(), String> {
    let store = ArtifactStore::open(dir).map_err(|e| e.to_string())?;
    let crowd: CrowdArtifact = load_stage(&store, "crowd", store::crowd_fingerprint)?;
    let crawl: CrawlArtifact = load_stage(&store, "crawl", store::crawl_fingerprint)?;
    std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let files = [
        ("crowd.csv", export::to_csv(&crowd.cleaned)),
        ("crowd.jsonl", export::to_jsonl(&crowd.cleaned)),
        ("crawl.csv", export::to_csv(&crawl.store)),
        ("crawl.jsonl", export::to_jsonl(&crawl.store)),
    ];
    for (name, body) in files {
        let path = out.join(name);
        std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
        outln!("dataset written to {}", path.display());
    }
    Ok(())
}

/// `pd scenarios show NAME [--json]`: dump a registered scenario — the
/// human summary by default, the editable JSON spec with `--json`
/// (pipe it to a file, edit, and feed it back through `pd run --spec`).
fn execute_scenarios_show(
    registry: &ScenarioRegistry,
    name: &str,
    json: bool,
) -> Result<(), String> {
    let spec = registry
        .get(name)
        .ok_or_else(|| unknown_scenario(registry, name))?;
    if json {
        outln!("{}", spec.to_json_pretty());
        return Ok(());
    }
    outln!("{:<12} {}", "scenario", spec.name);
    outln!("{:<12} {}", "describe", spec.describe);
    outln!(
        "{:<12} {}",
        "base",
        spec.base.as_deref().unwrap_or("(requested profile)")
    );
    let patch = serde_json::to_string(&spec.patch).map_err(|e| e.to_string())?;
    outln!("{:<12} {patch}", "patch");
    if spec.sweep.is_empty() {
        outln!("{:<12} (single run)", "sweep");
    } else {
        for axis in &spec.sweep {
            let axis = serde_json::to_string(axis).map_err(|e| e.to_string())?;
            outln!("{:<12} {axis}", "sweep");
        }
    }
    outln!("\n(dump as an editable spec: pd scenarios show {name} --json)");
    Ok(())
}

fn parse_serve(mut args: std::env::Args) -> Result<ServeArgs, String> {
    let mut serve = ServeArgs {
        addr: DEFAULT_ADDR.to_owned(),
        threads: 4,
        job_threads: 1,
        runners: 0,
        artifacts: None,
        queue: 16,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => serve.addr = args.next().ok_or("--addr needs HOST:PORT")?,
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                serve.threads = v.parse().map_err(|_| format!("bad thread count {v:?}"))?;
            }
            "--job-threads" => {
                let v = args.next().ok_or("--job-threads needs a value")?;
                serve.job_threads = v.parse().map_err(|_| format!("bad thread count {v:?}"))?;
            }
            "--runners" => {
                let v = args.next().ok_or("--runners needs a value")?;
                serve.runners = v.parse().map_err(|_| format!("bad runner count {v:?}"))?;
            }
            "--artifacts" => {
                serve.artifacts = Some(PathBuf::from(
                    args.next().ok_or("--artifacts needs a directory")?,
                ));
            }
            "--queue" => {
                let v = args.next().ok_or("--queue needs a capacity")?;
                serve.queue = v.parse().map_err(|_| format!("bad queue capacity {v:?}"))?;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(serve)
}

fn parse_submit(
    mut args: std::env::Args,
    registry: &ScenarioRegistry,
) -> Result<SubmitArgs, String> {
    let mut submit = SubmitArgs {
        scenario: None,
        spec: None,
        overrides: ConfigPatch::default(),
        has_overrides: false,
        seed: None,
        profile: None,
        addr: DEFAULT_ADDR.to_owned(),
    };
    let mut first = true;
    while let Some(arg) = args.next() {
        if std::mem::take(&mut first) && !arg.starts_with("--") {
            if registry.get(&arg).is_none() {
                return Err(unknown_scenario(registry, &arg));
            }
            submit.scenario = Some(arg);
            continue;
        }
        match arg.as_str() {
            "--spec" => {
                submit.spec = Some(args.next().ok_or("--spec needs a file path or name")?);
            }
            "--set" => {
                set_override(&mut args, &mut submit.overrides)?;
                submit.has_overrides = true;
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                submit.seed = Some(v.parse().map_err(|_| format!("bad seed {v:?}"))?);
            }
            "--profile" => {
                let v = args.next().ok_or("--profile needs a value")?;
                submit.profile = Some(Profile::parse(&v).ok_or(format!("unknown profile {v:?}"))?);
            }
            "--addr" => submit.addr = args.next().ok_or("--addr needs HOST:PORT")?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    match (&submit.scenario, &submit.spec) {
        (None, None) => Err("`pd submit` needs a scenario name or --spec FILE_OR_NAME".to_owned()),
        (Some(_), Some(_)) => Err("pass a scenario name or --spec, not both".to_owned()),
        _ => Ok(submit),
    }
}

fn parse_poll(mut args: std::env::Args) -> Result<PollArgs, String> {
    let id = args.next().ok_or("`pd poll` needs a job id (e.g. j-1)")?;
    let mut poll = PollArgs {
        id,
        addr: DEFAULT_ADDR.to_owned(),
        json: None,
        timeout_secs: 300,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => poll.addr = args.next().ok_or("--addr needs HOST:PORT")?,
            "--json" => poll.json = Some(args.next().ok_or("--json needs a path")?),
            "--timeout-secs" => {
                let v = args.next().ok_or("--timeout-secs needs a value")?;
                poll.timeout_secs = v.parse().map_err(|_| format!("bad timeout {v:?}"))?;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(poll)
}

/// Parses the `[--addr HOST:PORT]` tail shared by `pd metrics` and
/// `pd shutdown`.
fn parse_addr_only(mut args: std::env::Args, command: &str) -> Result<String, String> {
    let mut addr = DEFAULT_ADDR.to_owned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().ok_or("--addr needs HOST:PORT")?,
            other => {
                return Err(format!(
                    "unknown flag {other:?} (usage: pd {command} [--addr HOST:PORT])"
                ))
            }
        }
    }
    Ok(addr)
}

/// `pd serve`: start the daemon and block until it drains (via
/// `POST /shutdown`). Exit 0 after a graceful drain.
fn execute_serve(serve: &ServeArgs) -> Result<(), String> {
    let config = pd_serve::ServeConfig {
        addr: serve.addr.clone(),
        threads: serve.threads,
        job_threads: serve.job_threads,
        runners: serve.runners,
        artifacts: serve.artifacts.clone(),
        queue_capacity: serve.queue,
        ..pd_serve::ServeConfig::default()
    };
    let runner_count = config.effective_runners();
    let server = pd_serve::Server::start(config)?;
    outln!(
        "pd serve listening on {} ({} workers, {} runners, queue capacity {})",
        server.addr(),
        serve.threads.max(1),
        runner_count,
        serve.queue.max(1),
    );
    if let Some(dir) = &serve.artifacts {
        outln!("artifact store (read-through): {}", dir.display());
    }
    outln!("endpoints: POST /runs, GET /runs[/ID[/report]], GET /healthz, GET /metrics, POST /shutdown");
    server.join();
    outln!("pd serve: drained and exited");
    Ok(())
}

/// `pd submit`: queue one job on a running daemon. A bare scenario name
/// without `--set` is sent by name (the daemon resolves it against its
/// registry and spec search path); `--spec` and `--set` resolve
/// client-side and send the full inline spec.
fn execute_submit(submit: &SubmitArgs, registry: &ScenarioRegistry) -> Result<(), String> {
    let mut request = pd_serve::SubmitRequest {
        seed: submit.seed,
        profile: submit.profile.map(|p| p.name().to_owned()),
        ..pd_serve::SubmitRequest::default()
    };
    match (&submit.scenario, &submit.spec) {
        (Some(name), None) if !submit.has_overrides => request.scenario = Some(name.clone()),
        (Some(name), None) => {
            let mut spec = registry
                .get(name)
                .ok_or_else(|| unknown_scenario(registry, name))?
                .clone();
            apply_overrides(&mut spec, &submit.overrides)?;
            request.spec = Some(spec);
        }
        (None, Some(arg)) => {
            let mut spec = pd_core::load_spec(arg)?;
            apply_overrides(&mut spec, &submit.overrides)?;
            request.spec = Some(spec);
        }
        _ => unreachable!("parse_submit enforces scenario xor spec"),
    }
    let client = pd_serve::Client::new(&submit.addr);
    let id = client.submit(&request)?;
    eprintln!(
        "submitted to {}; poll with: pd poll {id} --addr {}",
        submit.addr, submit.addr
    );
    // The bare id on stdout so scripts can capture it: ID=$(pd submit …).
    outln!("{id}");
    Ok(())
}

/// `pd poll`: wait for a job, print its frame counters (one
/// greppable line) and rendered summary, optionally write the report —
/// byte-identical to the offline `pd run --json` output.
fn execute_poll(poll: &PollArgs) -> Result<(), String> {
    let client = pd_serve::Client::new(&poll.addr);
    let done = client.wait_done(&poll.id, std::time::Duration::from_secs(poll.timeout_secs))?;
    outln!(
        "job {} done: scenario {} (queued {} ms, ran {} ms)",
        done.id,
        done.scenario,
        done.queued_ms.unwrap_or(0),
        done.run_ms.unwrap_or(0),
    );
    outln!(
        "frames: built={} reused={} chunks_loaded={} store_loads={}",
        done.frames_built,
        done.frames_reused,
        done.frames_chunks_loaded,
        done.store_loads,
    );
    if let Some(rendered) = &done.rendered {
        out!("{rendered}");
    }
    if let Some(path) = &poll.json {
        let report = client.report(&done.id)?;
        std::fs::write(path, report).map_err(|e| format!("writing {path:?}: {e}"))?;
        outln!("report JSON written to {path}");
    }
    Ok(())
}

fn fail(code: i32, msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(code);
}

fn main() {
    let registry = ScenarioRegistry::builtin();
    let mut args = std::env::args();
    let _ = args.next(); // argv[0]
    match args.next().as_deref() {
        Some("run") => {
            let run = parse_run(args, &registry).unwrap_or_else(|e| fail(2, &e));
            if let Err(e) = execute_run(&run, &registry) {
                fail(1, &e);
            }
        }
        Some("rerun") => {
            let rerun = parse_rerun(args).unwrap_or_else(|e| fail(2, &e));
            if let Err(e) = execute_rerun(&rerun) {
                fail(1, &e);
            }
        }
        Some("artifacts") => {
            let words: Vec<String> = args.collect();
            let words: Vec<&str> = words.iter().map(String::as_str).collect();
            let done = match words.as_slice() {
                ["ls", dir] => execute_artifacts_ls(Path::new(dir)),
                ["cat", dir, stage] if CAT_STAGES.split('|').any(|s| s == *stage) => {
                    execute_artifacts_cat(Path::new(dir), stage)
                }
                ["export", dir, out] => execute_artifacts_export(Path::new(dir), Path::new(out)),
                // A known verb with the wrong arguments gets its own
                // usage line; anything else gets all of them.
                _ => {
                    let usage = ARTIFACTS_USAGE
                        .iter()
                        .find(|(verb, _)| words.first() == Some(verb))
                        .map_or_else(
                            || ARTIFACTS_USAGE.map(|(_, line)| line).join(" | "),
                            |(_, line)| (*line).to_owned(),
                        );
                    fail(2, &format!("usage: {usage}"))
                }
            };
            if let Err(e) = done {
                fail(1, &e);
            }
        }
        Some("scenarios") => match (args.next().as_deref(), args.next(), args.next().as_deref()) {
            (Some("show"), Some(name), json) if json.is_none() || json == Some("--json") => {
                if let Err(e) = execute_scenarios_show(&registry, &name, json.is_some()) {
                    fail(2, &e);
                }
            }
            (Some("list" | "ls"), None, None) => out!("{}", scenario_lines(&registry)),
            _ => fail(
                2,
                "usage: pd scenarios show <NAME> [--json] | pd scenarios list",
            ),
        },
        Some("serve") => {
            let serve = parse_serve(args).unwrap_or_else(|e| fail(2, &e));
            if let Err(e) = execute_serve(&serve) {
                fail(1, &e);
            }
        }
        Some("submit") => {
            let submit = parse_submit(args, &registry).unwrap_or_else(|e| fail(2, &e));
            if let Err(e) = execute_submit(&submit, &registry) {
                fail(1, &e);
            }
        }
        Some("poll") => {
            let poll = parse_poll(args).unwrap_or_else(|e| fail(2, &e));
            if let Err(e) = execute_poll(&poll) {
                fail(1, &e);
            }
        }
        Some("metrics") => {
            let addr = parse_addr_only(args, "metrics").unwrap_or_else(|e| fail(2, &e));
            match pd_serve::Client::new(&addr).metrics() {
                Ok(text) => out!("{text}"),
                Err(e) => fail(1, &e),
            }
        }
        Some("shutdown") => {
            let addr = parse_addr_only(args, "shutdown").unwrap_or_else(|e| fail(2, &e));
            if let Err(e) = pd_serve::Client::new(&addr).shutdown() {
                fail(1, &e);
            }
            outln!("shutdown requested; {addr} is draining");
        }
        Some("list") => match args.next() {
            None => out!("{}", scenario_lines(&registry)),
            Some(extra) => fail(2, &format!("unexpected argument {extra:?}; usage: pd list")),
        },
        Some("--help" | "-h" | "help") | None => out!("{}", usage(&registry)),
        Some(other) => {
            fail(
                2,
                &format!("unknown command {other:?}\n\n{}", usage(&registry)),
            );
        }
    }
}
