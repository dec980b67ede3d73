//! The benchmark's own span recorder.
//!
//! Spans are opened and closed by the workload code around each call
//! into a layer's public functions; nothing inside the program under
//! test is instrumented. Spans stay in memory during the run and are
//! written out once, at the end. A layer's self time is its span's
//! duration minus the durations of its child spans.

use crate::Metric;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// The layer a span measures. `Op` is the root span of one workload
/// operation; its self time is the glue no layer span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Op,
    Parse,
    Compile,
    Build,
    Fixpoint,
    Report,
    Diff,
    Migrate,
    Requery,
    ProtocolParse,
    CacheGet,
    Pool,
    Session,
    Encode,
}

impl Layer {
    /// Every layer, in the order the metric table lists them.
    pub const ALL: [Layer; 14] = [
        Layer::Op,
        Layer::Parse,
        Layer::Compile,
        Layer::Build,
        Layer::Fixpoint,
        Layer::Report,
        Layer::Diff,
        Layer::Migrate,
        Layer::Requery,
        Layer::ProtocolParse,
        Layer::CacheGet,
        Layer::Pool,
        Layer::Session,
        Layer::Encode,
    ];

    /// The per-layer metric this layer's mean self time is reported as.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Op => "untraced_us",
            Layer::Parse => "prolog-syntax.parse_us",
            Layer::Compile => "wam.compile_us",
            Layer::Build => "core.build_us",
            Layer::Fixpoint => "core.fixpoint_us",
            Layer::Report => "core.report_us",
            Layer::Diff => "core.diff_us",
            Layer::Migrate => "core.migrate_us",
            Layer::Requery => "core.requery_us",
            Layer::ProtocolParse => "serve.protocol_parse_us",
            Layer::CacheGet => "serve.cache_get_us",
            Layer::Pool => "serve.pool_us",
            Layer::Session => "core.session_us",
            Layer::Encode => "obs.encode_us",
        }
    }

    fn index(self) -> usize {
        Layer::ALL
            .iter()
            .position(|&l| l == self)
            .expect("every layer is listed in Layer::ALL")
    }
}

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Copy, Debug)]
struct Span {
    layer: Layer,
    start: u64,
    end: u64,
    /// Index of the enclosing span, `u32::MAX` for a root.
    parent: u32,
}

/// An in-memory span log.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; it nests under the innermost open span.
    pub fn open(&mut self, layer: Layer) {
        let parent = self.open.last().copied().unwrap_or(u32::MAX);
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let start = self.now();
        self.spans.push(Span {
            layer,
            start,
            end: start,
            parent,
        });
        self.open.push(index);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        let end = self.now();
        let index = self.open.pop().expect("close matches an open span");
        self.spans[index as usize].end = end;
    }

    /// Mean duration of `Op` root spans, in microseconds.
    pub fn op_mean_us(&self) -> f64 {
        let (sum, n) = self
            .spans
            .iter()
            .filter(|s| s.layer == Layer::Op)
            .fold((0u64, 0u64), |(sum, n), s| (sum + (s.end - s.start), n + 1));
        sum as f64 / n.max(1) as f64 / 1e3
    }

    /// Every layer's mean self time per traced op, as its `_us` metric.
    pub fn self_time_metrics(&self) -> Vec<Metric> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != u32::MAX {
                child_ns[span.parent as usize] += span.end - span.start;
            }
        }
        let mut totals = [0u64; Layer::ALL.len()];
        let mut ops = 0u64;
        for (span, children) in self.spans.iter().zip(&child_ns) {
            totals[span.layer.index()] += (span.end - span.start).saturating_sub(*children);
            ops += u64::from(span.layer == Layer::Op);
        }
        Layer::ALL
            .iter()
            .map(|&layer| {
                let us = totals[layer.index()] as f64 / ops.max(1) as f64 / 1e3;
                Metric::new(layer.metric(), us, "us")
            })
            .collect()
    }

    /// Write every span as one JSON line: layer metric, start and end
    /// (ns since the run's origin) and the parent span's line number.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for span in &self.spans {
            line.clear();
            let parent = if span.parent == u32::MAX {
                "null".to_owned()
            } else {
                span.parent.to_string()
            };
            writeln!(
                line,
                r#"{{"layer":"{}","start_ns":{},"end_ns":{},"parent":{}}}"#,
                span.layer.metric(),
                span.start,
                span.end,
                parent
            )
            .expect("writing to a String cannot fail");
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

/// Run `f` inside a `layer` span when tracing, or bare otherwise.
pub fn span<R>(tracer: &mut Option<Tracer>, layer: Layer, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => {
            t.open(layer);
            let result = f();
            t.close();
            result
        }
        None => f(),
    }
}
