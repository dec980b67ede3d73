//! `perfbench`: the awam end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload suite_cold|serve_warm|edit_stream --seed N --seconds S --trace 0|1
//!           [--trace-out FILE] [--inject fixpoint|migrate|response:NS]
//! perfbench daemon
//! perfbench check-edit PROGRAM < EDITED.pl
//! perfbench cold-pass SEED
//! ```
//!
//! Each workload drives a fixed, seeded op script from one process
//! through the repository's public APIs, checks every output against an
//! independent reference, and prints two lines on stdout: a `detail`
//! document (script digest, per-program rows, probe kernel timings) and,
//! last, the result object `{"correct","attempted","failed","metrics"}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. `--inject` is the sensitivity self-test's calibrated delay
//! after one layer call (see README.md).
//!
//! The helper subcommands run in child processes: `daemon` is `awam
//! serve`'s daemon with default flags for `serve_warm`; `check-edit`
//! judges one candidate edit for `edit_stream` where it can be stopped
//! if its analysis hangs; `cold-pass` is one `suite_cold` pass in a
//! fresh process.

mod edit_stream;
mod serve_warm;
mod suite_cold;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Command-line settings of one run.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    /// Sensitivity self-test: busy-wait this many ns after every call
    /// at this point.
    pub inject: Option<(Inject, u64)>,
}

/// Where the sensitivity self-test injects its delay: after
/// `Analyzer::analyze` (suite_cold), after `migrate_parts`
/// (edit_stream), or after each response read (serve_warm).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    Fixpoint,
    Migrate,
    Response,
}

impl Config {
    /// The delay to inject at `point`, 0 when none.
    pub fn inject_ns(&self, point: Inject) -> u64 {
        match self.inject {
            Some((at, ns)) if at == point => ns,
            _ => 0,
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one workload run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra `(key, raw JSON)` pairs for the detail line.
    pub detail: Vec<(&'static str, String)>,
}

/// Every per-layer metric, with its unit. A traced run reports all of
/// them; a layer that does no work on the workload reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("prolog-syntax.parse_us", "us"),
    ("wam.compile_us", "us"),
    ("core.build_us", "us"),
    ("core.fixpoint_us", "us"),
    ("core.report_us", "us"),
    ("core.iterations", "count"),
    ("exec.instructions", "count"),
    ("core.et_lookups", "count"),
    ("core.et_hit_ratio", "ratio"),
    ("core.et_lub_widenings", "count"),
    ("exec.heap_high_water", "cells"),
    ("absdom.intern_hit_ratio", "ratio"),
    ("absdom.lub_cache_hit_ratio", "ratio"),
    ("absdom.leq_cache_hit_ratio", "ratio"),
    ("wam.code_size", "instrs"),
    ("serve.transport_us", "us"),
    ("serve.protocol_parse_us", "us"),
    ("serve.cache_get_us", "us"),
    ("serve.pool_us", "us"),
    ("core.session_us", "us"),
    ("obs.encode_us", "us"),
    ("obs.response_bytes", "bytes"),
    ("serve.warm_hit_ratio", "ratio"),
    ("serve.pool_hit_ratio", "ratio"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.errors", "count"),
    ("serve.parked_sessions", "count"),
    ("serve.rss_per_session_kb", "KB"),
    ("core.diff_us", "us"),
    ("core.migrate_us", "us"),
    ("core.requery_us", "us"),
    ("core.kept_ratio", "ratio"),
    ("core.frontier", "count"),
    ("core.refix_explorations", "count"),
    ("core.refix_instructions", "count"),
    ("core.incr_vs_cold", "ratio"),
    ("untraced_us", "us"),
    ("trace.overhead_ratio", "ratio"),
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload suite_cold|serve_warm|edit_stream --seed N --seconds S \
         --trace 0|1 [--trace-out FILE] [--inject fixpoint|migrate|response:NS]\n       \
         perfbench daemon"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match (args.first().map(String::as_str), args.get(1)) {
        (Some("check-edit"), Some(name)) => return edit_stream::check_edit_main(name),
        (Some("cold-pass"), Some(seed)) => {
            return seed
                .parse()
                .map_or(ExitCode::from(2), suite_cold::cold_pass_main)
        }
        _ => {}
    }
    if args.first().map(String::as_str) == Some("daemon") {
        return match serve_warm::daemon_main() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench daemon: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut workload = None;
    let mut config = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        inject: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        let parsed = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                Ok(())
            }
            "--seed" => value.parse().map(|v| config.seed = v).map_err(|_| ()),
            "--seconds" => value.parse().map(|v| config.seconds = v).map_err(|_| ()),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    config.trace = value == "1";
                    Ok(())
                }
                _ => Err(()),
            },
            "--trace-out" => {
                config.trace_out = Some(PathBuf::from(value));
                Ok(())
            }
            "--inject" => parse_inject(value).map(|v| config.inject = Some(v)),
            _ => Err(()),
        };
        if parsed.is_err() {
            return usage();
        }
    }
    if config.seconds.is_nan() || config.seconds <= 0.0 {
        return usage();
    }

    let probe_before = probe_ms();
    let outcome = match workload.as_deref() {
        Some("suite_cold") => suite_cold::run(&config),
        Some("serve_warm") => serve_warm::run(&config),
        Some("edit_stream") => edit_stream::run(&config),
        _ => return usage(),
    };
    let probe_after = probe_ms();
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if config.trace {
        for &(name, unit) in PER_LAYER {
            if !outcome.metrics.iter().any(|m| m.name == name) {
                outcome.metrics.push(Metric::new(name, 0.0, unit));
            }
        }
        outcome.metrics.sort_by_key(|m| {
            PER_LAYER
                .iter()
                .position(|&(name, _)| name == m.name)
                .expect("traced runs report only per-layer metrics")
        });
    }
    outcome.detail.push((
        "probe_ms",
        format!("[{},{}]", json_num(probe_before), json_num(probe_after)),
    ));
    print_outcome(&outcome);
    ExitCode::SUCCESS
}

fn parse_inject(value: &str) -> Result<(Inject, u64), ()> {
    let (point, ns) = value.split_once(':').ok_or(())?;
    let point = match point {
        "fixpoint" => Inject::Fixpoint,
        "migrate" => Inject::Migrate,
        "response" => Inject::Response,
        _ => return Err(()),
    };
    Ok((point, ns.parse().map_err(|_| ())?))
}

fn print_outcome(outcome: &Outcome) {
    let mut detail = String::from("{\"detail\":{");
    for (i, (key, value)) in outcome.detail.iter().enumerate() {
        if i > 0 {
            detail.push(',');
        }
        write!(detail, "\"{key}\":{value}").expect("writing to a String cannot fail");
    }
    detail.push_str("}}");
    println!("{detail}");

    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        write!(
            line,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        )
        .expect("writing to a String cannot fail");
    }
    line.push_str("}}");
    println!("{line}");
}

/// A finite number as JSON (non-finite values cannot be encoded).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// A fixed integer kernel that calls nothing from the program under
/// test: its wall time tracks the host's current speed. It is printed as
/// a diagnostic and never used to adjust a metric.
fn probe_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc: u64 = 0;
    for i in 0..20_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.wrapping_mul(i | 1));
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// Busy-wait `ns` nanoseconds: the sensitivity self-test's injected
/// slowdown (a spin, so it costs CPU like real work would).
pub fn inject(ns: u64) {
    if ns == 0 {
        return;
    }
    let start = Instant::now();
    while start.elapsed().as_nanos() < u128::from(ns) {
        std::hint::spin_loop();
    }
}

/// FNV-1a digest of output bytes.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Nanoseconds since `start`.
pub fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nearest-rank quantile of sorted samples.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a few values.
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Rounds a timed phase is cut into for the drift diagnostic.
const ROUNDS: usize = 10;
/// Finer buckets the diagnostic counts ops in, over up to four times the
/// planned phase; they are grouped into rounds over the phase's actual
/// span at the end.
const BUCKETS: usize = 1024;

/// Ops a fixed [`Recorder`] holds (1 MiB): about three times what a
/// 35-s `suite_cold` or `edit_stream` run completes on the reference
/// host.
pub const SAMPLE_CAPACITY: usize = 1 << 17;

/// Per-op latencies of one timed phase, in nanoseconds.
///
/// A `fixed` recorder allocates and touches its whole buffer before the
/// phase and never grows, so the benchmark's own storage adds the same
/// amount to the process's peak resident set whatever the op count; the
/// phase ends early if the buffer fills. A `growing` recorder is for
/// client threads whose own memory is not measured (`serve_warm`'s
/// tenants, whose peak is the daemon's).
pub struct Recorder {
    latencies: Vec<u64>,
    fixed: bool,
    start: Instant,
    /// Completion time of the latest op, ns since `start`.
    last_ns: u64,
    bucket_ns: u64,
    per_bucket: [u64; BUCKETS],
}

impl Recorder {
    /// Room for `capacity` ops of a phase planned to last `seconds`.
    pub fn fixed(capacity: usize, seconds: f64) -> Recorder {
        // A non-zero fill writes every page now (zeroed memory could be
        // mapped lazily, during the phase).
        let mut latencies = vec![u64::MAX; capacity];
        latencies.clear();
        Recorder {
            latencies,
            fixed: true,
            ..Recorder::growing(seconds)
        }
    }

    /// An empty recorder for a phase planned to last `seconds`.
    pub fn growing(seconds: f64) -> Recorder {
        Recorder {
            latencies: Vec::new(),
            fixed: false,
            start: Instant::now(),
            last_ns: 0,
            bucket_ns: ((4.0 * seconds * 1e9) as u64 / BUCKETS as u64).max(1),
            per_bucket: [0; BUCKETS],
        }
    }

    /// Start the phase's wall clock (the drift diagnostic's rounds).
    pub fn start(&mut self) {
        self.start = Instant::now();
    }

    /// Record one op; false once a fixed buffer is full, after which the
    /// phase must end.
    pub fn record(&mut self, ns: u64) -> bool {
        if self.fixed && self.latencies.len() == self.latencies.capacity() {
            return false;
        }
        self.last_ns = ns_since(self.start);
        self.per_bucket[((self.last_ns / self.bucket_ns) as usize).min(BUCKETS - 1)] += 1;
        self.latencies.push(ns);
        !self.fixed || self.latencies.len() < self.latencies.capacity()
    }

    pub fn ops(&self) -> u64 {
        self.latencies.len() as u64
    }

    pub fn mean_ns(&self) -> f64 {
        self.latencies.iter().sum::<u64>() as f64 / self.latencies.len().max(1) as f64
    }

    /// Fold another recorder of the same phase into this one.
    pub fn merge(&mut self, other: Recorder) {
        self.latencies.extend(other.latencies);
        self.last_ns = self.last_ns.max(other.last_ns);
        for (mine, theirs) in self.per_bucket.iter_mut().zip(other.per_bucket) {
            *mine += theirs;
        }
    }

    /// Throughput over a phase whose clock ran `clock_ns`, and latency
    /// quantiles, taken in place. The ops completed per wall-clock second
    /// in each tenth of the phase go to the detail line, to show how the
    /// host's speed drifted during the run.
    pub fn metrics(
        &mut self,
        clock_ns: u64,
        detail: &mut Vec<(&'static str, String)>,
    ) -> Vec<Metric> {
        let span_ns = self.last_ns.max(1);
        let mut per_round = [0u64; ROUNDS];
        for (b, &n) in self.per_bucket.iter().enumerate() {
            let at = b as u64 * self.bucket_ns;
            per_round[((at * ROUNDS as u64 / span_ns) as usize).min(ROUNDS - 1)] += n;
        }
        let round_s = span_ns as f64 / 1e9 / ROUNDS as f64;
        let rounds: Vec<String> = per_round
            .iter()
            .map(|&n| format!("{:.1}", n as f64 / round_s))
            .collect();
        detail.push(("round_ops_s", format!("[{}]", rounds.join(","))));
        self.latencies.sort_unstable();
        vec![
            Metric::new(
                "throughput_ops_s",
                self.ops() as f64 / (clock_ns as f64 / 1e9),
                "1/s",
            ),
            Metric::new(
                "latency_p50_us",
                quantile(&self.latencies, 0.50) as f64 / 1e3,
                "us",
            ),
            Metric::new(
                "latency_p99_us",
                quantile(&self.latencies, 0.99) as f64 / 1e3,
                "us",
            ),
        ]
    }
}

/// Reset this process's peak resident set to its current size, so that
/// untimed reference passes do not set the reported peak.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak resident set: {e}"))
}

/// Peak resident set (`VmHWM`) of a process, in KiB.
pub fn peak_rss_kb(pid: Option<u32>) -> Result<u64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// The end-to-end metric for a peak resident set given in KiB.
pub fn peak_rss_metric(kb: u64) -> Metric {
    Metric::new("peak_rss_mb", kb as f64 / 1024.0, "MB")
}

/// Write the traced run's spans when a path was given.
pub fn write_trace(config: &Config, tracer: &trace::Tracer) -> Result<(), String> {
    match &config.trace_out {
        Some(path) => tracer
            .write_jsonl(path)
            .map_err(|e| format!("{}: {e}", path.display())),
        None => Ok(()),
    }
}
