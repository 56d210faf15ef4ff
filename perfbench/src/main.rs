//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload fresh|rerun|serve [--seed N] [--seconds N] [--trace 0|1]
//!           [--tiny] [--tamper]
//! ```
//!
//! Three workloads, one per way the system is used (see `README.md`):
//!
//! * `fresh` — one `paper`@small measurement at 2 executor threads that
//!   saves a binary store (`pd run --artifacts --format binary`),
//! * `rerun` — a fresh engine re-analyzing a stored crawl
//!   (`pd rerun`),
//! * `serve` — an open-loop Poisson job stream against an in-process
//!   `pd serve` daemon.
//!
//! With `--trace 0` a run prints the end-to-end metrics; with
//! `--trace 1` it prints the per-layer metrics, timed around calls into
//! each crate's public functions from this benchmark's own code. The
//! last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! Human-readable detail goes to standard error. Every report a run
//! produces is checked against an independently computed reference; any
//! mismatch counts as a failed operation and makes the exit code 1.
//!
//! `--tiny` shrinks every input (smoke profile, a handful of operations)
//! for the benchmark's own tests; `--tamper` corrupts one produced report
//! before it is checked, proving the check catches it.
//!
//! End-to-end times are scaled to reference host speed (see
//! [`metrics::Speed`]); `perfbench --speed-kernel` prints one host-speed
//! sample, which the workloads take in child processes.

mod fresh;
mod metrics;
mod replay;
mod rerun;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;

/// Settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Shrunken inputs for the benchmark's own tests.
    pub tiny: bool,
    /// Corrupt one produced report before it is checked.
    pub tamper: bool,
    /// Working directory for stores, removed when the run ends.
    pub work: PathBuf,
}

impl Ctx {
    /// The measurement profile of `fresh` and `rerun`.
    #[must_use]
    pub fn profile(&self) -> pd_core::Profile {
        if self.tiny {
            pd_core::Profile::Smoke
        } else {
            pd_core::Profile::Small
        }
    }

    /// The measurement seeds of `fresh` and `rerun`, derived from the
    /// workload seed. Operations cycle through them, so one run's figures
    /// average over several simulated worlds instead of resting on one.
    #[must_use]
    pub fn seeds(&self) -> Vec<u64> {
        let k = if self.tiny { 2 } else { 5 };
        (0..k)
            .map(|i| self.seed.wrapping_mul(8).wrapping_add(i))
            .collect()
    }

    /// Corrupts `report` when `--tamper` is set (flips its first digit).
    #[must_use]
    pub fn maybe_tamper(&self, report: String) -> String {
        if !self.tamper {
            return report;
        }
        let mut bytes = report.into_bytes();
        if let Some(b) = bytes.iter_mut().find(|b| b.is_ascii_digit()) {
            *b = if *b == b'9' { b'0' } else { *b + 1 };
        }
        String::from_utf8(bytes).expect("ASCII digit swap keeps UTF-8")
    }
}

struct Args {
    workload: String,
    /// Internal: produce a `rerun` store in this directory and exit.
    produce_store: Option<PathBuf>,
    trace: bool,
    ctx: Ctx,
}

const USAGE: &str = "usage: perfbench --workload fresh|rerun|serve [--seed N] [--seconds N] \
                     [--trace 0|1] [--tiny] [--tamper]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1307u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut tiny = false;
    let mut tamper = false;
    let mut produce_store = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or(format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--tiny" => tiny = true,
            "--tamper" => tamper = true,
            "--produce-store" => produce_store = Some(PathBuf::from(value("--produce-store")?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = match (workload, &produce_store) {
        (Some(w), _) => w,
        (None, Some(_)) => "rerun".to_owned(),
        (None, None) => return Err("--workload is required".to_owned()),
    };
    if !["fresh", "rerun", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let work = PathBuf::from(".perfbench-work").join(format!("{}", std::process::id()));
    Ok(Args {
        workload,
        produce_store,
        trace,
        ctx: Ctx {
            seed,
            seconds,
            tiny,
            tamper,
            work,
        },
    })
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(metrics::KERNEL_FLAG) {
        println!("{}", metrics::kernel_sample());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &args.produce_store {
        return match rerun::produce(&args.ctx, dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    if let Err(e) = std::fs::create_dir_all(&args.ctx.work) {
        eprintln!("error: creating {}: {e}", args.ctx.work.display());
        return ExitCode::from(2);
    }
    let result = match (args.workload.as_str(), args.trace) {
        ("fresh", false) => fresh::run(&args.ctx),
        ("fresh", true) => fresh::traced(&args.ctx),
        ("rerun", false) => rerun::run(&args.ctx),
        ("rerun", true) => rerun::traced(&args.ctx),
        ("serve", trace) => serve::run(&args.ctx, trace),
        _ => unreachable!("workload validated by parse_args"),
    };
    let _ = std::fs::remove_dir_all(&args.ctx.work);
    let _ = std::fs::remove_dir(".perfbench-work");
    match result {
        Ok(outcome) => {
            println!("{}", outcome.json_line());
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "error: {} of {} operations failed or did not match their reference",
                    outcome.failed, outcome.attempted
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
