//! Measurement plumbing shared by every workload: the span recorder of
//! the traced runs, process CPU and peak-RSS readers, quantiles, and the
//! result line the benchmark prints last.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Layers timed around single calls: each reports `.count`, `.ms` and
/// `.max_ms`.
pub const LAYERS: [&str; 25] = [
    "world.build",
    "stage.crowd",
    "stage.crawl",
    "stage.personas",
    "stage.analysis",
    "stage.load",
    "crawl.retailer",
    "crawl.check",
    "crawl.fetch",
    "crawl.server",
    "crawl.quote",
    "crawl.render",
    "crawl.serialize",
    "crawl.tokenize",
    "crawl.parse",
    "crawl.extract",
    "crawl.band_filter",
    "store.save",
    "store.open",
    "store.decode",
    "analysis.frame_build",
    "analysis.figures",
    "serve.submit",
    "serve.queue_wait",
    "serve.run",
];

/// Per-layer values that are not call spans: counters, byte totals,
/// ratios and derived times.
pub const VALUES: [(&str, &str); 25] = [
    ("crawl.dom_build.ms", "ms"),
    ("crowd.checks", "count"),
    ("crowd.kept", "count"),
    ("crawl.checks", "count"),
    ("crawl.prices", "count"),
    ("crawl.retries", "count"),
    ("crawl.extract_ok", "ratio"),
    ("crawl.page_bytes", "bytes"),
    ("store.bytes_written", "bytes"),
    ("store.bytes_read", "bytes"),
    ("analysis.frames_built", "count"),
    ("analysis.frames_reused", "count"),
    ("analysis.chunks_loaded", "count"),
    ("serve.poll", "count"),
    ("serve.rejected", "count"),
    ("serve.coalesced_frac", "ratio"),
    ("serve.warm_frac", "ratio"),
    ("serve.repeat_frac", "ratio"),
    ("serve.generator_lag_ms", "ms"),
    ("serve.poll_interval_ms", "ms"),
    ("coverage.crawl.retailer", "ratio"),
    ("coverage.crawl.check", "ratio"),
    ("coverage.crawl.substrate", "ratio"),
    ("coverage.analysis", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Aggregate of one layer's calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// Calls recorded.
    pub count: u64,
    /// Summed duration.
    pub total: Duration,
    /// Longest single call.
    pub max: Duration,
}

/// In-memory span and counter recorder for the traced runs. Spans are
/// aggregated per layer name (count, total, max); nothing is written
/// until the run ends.
#[derive(Debug, Default)]
pub struct Trace {
    spans: BTreeMap<&'static str, Span>,
    values: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// Times `f` as one call of `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(layer, start.elapsed());
        out
    }

    /// Records one call of `layer` that took `took`.
    pub fn record(&mut self, layer: &'static str, took: Duration) {
        let span = self.spans.entry(layer).or_default();
        span.count += 1;
        span.total += took;
        span.max = span.max.max(took);
    }

    /// Adds `took` to `layer`'s busy time without counting a call (work
    /// that belongs to a layer but is not one of its calls).
    pub fn add_time(&mut self, layer: &'static str, took: Duration) {
        self.spans.entry(layer).or_default().total += took;
    }

    /// Adds `v` to counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_default() += v;
    }

    /// Sets value `name`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    /// Summed busy time of `layer`, in ms.
    #[must_use]
    pub fn ms(&self, layer: &str) -> f64 {
        self.spans
            .get(layer)
            .map_or(0.0, |s| s.total.as_secs_f64() * 1e3)
    }

    /// Counter `name` (0 when never touched).
    #[must_use]
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Folds another recorder into this one.
    pub fn merge(&mut self, other: &Trace) {
        for (name, s) in &other.spans {
            let span = self.spans.entry(name).or_default();
            span.count += s.count;
            span.total += s.total;
            span.max = span.max.max(s.max);
        }
        for (name, v) in &other.values {
            *self.values.entry(name).or_default() += v;
        }
    }

    /// Every per-layer metric: span counts and busy times divided by
    /// `ops` (so a faster layer cannot hide behind more iterations in
    /// the same run length), maxima as measured, and the values —
    /// counters divided by `ops`, ratios and derived figures as set.
    #[must_use]
    pub fn per_layer(&self, ops: u64) -> Vec<(String, &'static str, f64)> {
        let ops = ops.max(1) as f64;
        let mut out = Vec::new();
        for layer in LAYERS {
            let s = self.spans.get(layer).copied().unwrap_or_default();
            out.push((format!("{layer}.count"), "count", s.count as f64 / ops));
            out.push((
                format!("{layer}.ms"),
                "ms",
                s.total.as_secs_f64() * 1e3 / ops,
            ));
            out.push((format!("{layer}.max_ms"), "ms", s.max.as_secs_f64() * 1e3));
        }
        for (name, unit) in VALUES {
            let v = match name {
                "crawl.dom_build.ms" => (self.ms("crawl.parse") - self.ms("crawl.tokenize")) / ops,
                _ if unit == "count" || unit == "bytes" => self.value(name) / ops,
                _ => self.value(name),
            };
            out.push((name.to_owned(), unit, v));
        }
        out
    }
}

/// Process CPU time (user + system, every thread including exited
/// ones) from `/proc/self/stat`, in ms.
#[must_use]
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks (100 per second
    // on Linux).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) * 10.0,
        _ => 0.0,
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Linear-interpolated quantile `p` of `values` (0 for no values).
#[must_use]
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    pd_core::util::stats::quantile(values, p)
}

/// Median time of one [`Speed::sample`] pass on a calm 2-vCPU virtual
/// machine, in ms: the speed the reported times are scaled to.
pub const REFERENCE_KERNEL_MS: f64 = 4.7;

/// Host-speed samples. The benchmark runs on a shared host whose speed
/// drifts by tens of percent within minutes, so every end-to-end time is
/// reported at reference speed: multiplied by [`Speed::factor`], the
/// reference time of a fixed kernel over its median time here. The
/// kernel is the benchmark's own code (formatting, byte scanning,
/// floating point, an ordered map and a sort, on both cores at once, as
/// the 2-thread pipeline runs), so a change to the program moves the
/// scaled times exactly as much as the raw ones.
#[derive(Debug, Default)]
pub struct Speed(Vec<f64>);

impl Speed {
    /// Takes `samples` samples, each in a child process of its own (see
    /// [`kernel_sample`]): the kernel's speed depends on where its memory
    /// lands, which is fixed for the life of a process, so samples from
    /// one process would all share one layout. Call it only while the
    /// program under test is idle, so that its own load never reads as a
    /// slower host.
    ///
    /// # Errors
    ///
    /// The child failing to start or to print its time.
    pub fn sample(&mut self, samples: usize) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
        for _ in 0..samples {
            let out = std::process::Command::new(&exe)
                .arg(KERNEL_FLAG)
                .output()
                .map_err(|e| format!("starting the speed kernel: {e}"))?;
            let ms = String::from_utf8_lossy(&out.stdout)
                .trim()
                .parse::<f64>()
                .map_err(|_| format!("speed kernel exited with {}", out.status))?;
            self.0.push(ms);
        }
        Ok(())
    }

    /// `REFERENCE_KERNEL_MS / median pass` (1 without samples).
    #[must_use]
    pub fn factor(&self) -> f64 {
        if self.0.is_empty() {
            1.0
        } else {
            REFERENCE_KERNEL_MS / quantile(&self.0, 0.5)
        }
    }
}

/// The argument that makes the benchmark print one [`kernel_sample`]
/// and exit.
pub const KERNEL_FLAG: &str = "--speed-kernel";

/// One host-speed sample: the median of three kernel passes, each on
/// both cores at once, in ms (the first pass also pays the new process's
/// page faults).
#[must_use]
pub fn kernel_sample() -> f64 {
    let passes: Vec<f64> = (0..3)
        .map(|_| {
            let (a, b) = std::thread::scope(|s| {
                let other = s.spawn(kernel);
                (kernel(), other.join().expect("kernel thread ends"))
            });
            (a + b) / 2.0
        })
        .collect();
    quantile(&passes, 0.5)
}

/// One kernel pass on the calling thread, in ms.
fn kernel() -> f64 {
    let start = Instant::now();
    let mut rng = Rng::new(0xca11_b4a7e);
    let mut map = BTreeMap::new();
    let mut v = Vec::with_capacity(20_000);
    let mut acc = 0.0f64;
    for i in 0..20_000u64 {
        let x = rng.next_u64();
        let text = format!("<span class=\"price\">{}.{:02}</span>", x % 10_000, x % 100);
        let digits: u64 = text
            .bytes()
            .filter(u8::is_ascii_digit)
            .map(|b| u64::from(b - b'0'))
            .sum();
        acc += (digits as f64).sqrt();
        *map.entry(x % 4_000).or_insert(0u64) += i;
        v.push(x);
    }
    v.sort_unstable();
    std::hint::black_box((acc, &map, &v));
    ms(start.elapsed())
}

/// Milliseconds in a duration.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one workload run measured: operation accounting plus its
/// metrics, ready to print.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or produced a report (or a
    /// replay) that does not match its reference.
    pub failed: u64,
    /// `(name, unit, value)` rows.
    pub metrics: Vec<(String, &'static str, f64)>,
}

impl Outcome {
    /// The untraced outcome from its measurements; every time is scaled
    /// to reference speed by `speed` (see [`Speed`]), the raw figures go
    /// to standard error.
    #[must_use]
    pub fn end_to_end(
        attempted: u64,
        failed: u64,
        setup_s: f64,
        latencies_ms: &[f64],
        cpu_ms: f64,
        peak_rss_mb: f64,
        speed: f64,
    ) -> Outcome {
        let attempted = attempted.max(1);
        eprintln!(
            "raw: set-up {setup_s:.4} s, latency p50 {:.1} ms p90 {:.1} ms, cpu {:.1} ms/op; \
             host speed factor {speed:.4}",
            quantile(latencies_ms, 0.5),
            quantile(latencies_ms, 0.9),
            cpu_ms / attempted as f64,
        );
        let values = [
            setup_s * speed,
            quantile(latencies_ms, 0.5) * speed,
            quantile(latencies_ms, 0.9) * speed,
            cpu_ms / attempted as f64 * speed,
            peak_rss_mb,
            1.0 - failed as f64 / attempted as f64,
        ];
        Outcome {
            attempted,
            failed,
            metrics: END_TO_END
                .iter()
                .zip(values)
                .map(|((name, unit), v)| ((*name).to_owned(), *unit, v))
                .collect(),
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    #[must_use]
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// SplitMix64: the benchmark's own input generator (independent of the
/// program's RNG, so workload inputs never shift with program changes).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Stable 64-bit FNV-1a digest of a report, so each operation's report
/// is checked without keeping it in memory.
#[must_use]
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
