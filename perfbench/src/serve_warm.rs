//! `serve_warm`: `awam serve` with default flags, in its own process,
//! answering warm-hit `analyze` requests.
//!
//! Two connections (one tenant each, `nproc` = 2) send id-less
//! stop-and-wait requests, the classic protocol `Client::analyze`
//! speaks, which the daemon runs inline on each connection's reader
//! thread. Requests follow `awam loadgen`'s hot-set skew over a seeded
//! corpus of 1,000 testkit programs. Set-up registers the corpus and
//! warms it for both tenants, so every timed request is a warm hit: the
//! fixpoint does almost no work and the serve data plane (protocol,
//! cache, pool, session hit, report, encode, socket) does nearly all.
//! Stop-and-wait per tenant keeps the pool and warm-hit counts exact.

use crate::trace::{span, Layer, Tracer};
use crate::{inject, median, ns_since, peak_rss_kb, peak_rss_metric, Inject};
use crate::{Config, Metric, Outcome, Recorder};
use absdom::Pattern;
use awam_core::{program_fingerprint, Analyzer, Session};
use awam_obs::{envelope, Json};
use awam_serve::cache::DEFAULT_SHARDS;
use awam_serve::protocol::{hash_hex, parse_request, ProgramRef, Request};
use awam_serve::{Client, ProgramCache, ServeConfig, Server, SessionPool};
use awam_testkit::{gen_program, GenConfig, Rng};
use std::io::{self, BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Corpus size: `BENCH_serve.json`'s.
const PROGRAMS: usize = 1000;
/// One connection and one tenant per vCPU of the reference host.
const TENANTS: usize = 2;
/// Requests in each tenant's script; the timed phase cycles it.
const SCRIPT_LEN: usize = 4096;
/// Daemon set-ups per run; their median is `setup_s`. The first sets up
/// the daemon the timed phase drives; the others are spread over the
/// timed phase, between its segments and outside the ops' clock, each
/// on a fresh daemon that is then stopped.
const SETUPS: usize = 9;
/// Requests per tenant the traced run replays in-process.
const REPLAY_PER_TENANT: usize = 20_000;
/// What a warm hit's report says in place of the cold run's first line:
/// no fixpoint ran. The rest of the report is the cold run's.
const WARM_HEADER: &str = "fixpoint in 0 iteration(s), 0 abstract instructions\n";

/// `awam serve` with default flags, announcing its address on stdout.
/// The daemon exits when its stdin closes, so it never outlives the
/// benchmark process that spawned it, however that process ends.
pub fn daemon_main() -> io::Result<()> {
    std::thread::spawn(|| {
        drop(io::copy(&mut io::stdin(), &mut io::sink()));
        std::process::exit(0);
    });
    let server = Server::bind("127.0.0.1:0", ServeConfig::default())?;
    println!("{}", server.local_addr());
    io::stdout().flush()?;
    server.run()
}

/// A daemon child process; dropped daemons are stopped and reaped.
struct Daemon {
    child: Child,
    /// The daemon's lifeline: it exits when this pipe closes.
    _stdin: Option<ChildStdin>,
    addr: String,
    asked_to_stop: bool,
}

impl Daemon {
    fn spawn() -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let mut addr = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut addr));
        let daemon = Daemon {
            _stdin: child.stdin.take(),
            child,
            addr: addr.trim().to_owned(),
            asked_to_stop: false,
        };
        match read {
            Some(Ok(n)) if n > 0 => Ok(daemon),
            _ => Err("the daemon did not announce its address".to_owned()),
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn shutdown(&mut self, control: &mut Client) {
        self.asked_to_stop = control.shutdown().is_ok();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.asked_to_stop {
            let deadline = Instant::now() + Duration::from_secs(5);
            while Instant::now() < deadline {
                if let Ok(Some(_)) = self.child.try_wait() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        drop(self.child.kill());
        drop(self.child.wait());
    }
}

/// The seeded corpus, as `awam loadgen` draws it.
struct Corpus {
    sources: Vec<String>,
    arities: Vec<usize>,
}

fn corpus(seed: u64) -> Corpus {
    let mut rng = Rng::new(seed);
    let config = GenConfig::default();
    let (sources, arities) = (0..PROGRAMS)
        .map(|_| {
            let p = gen_program(&mut rng, &config);
            (p.source(), p.entry_arity())
        })
        .unzip();
    Corpus { sources, arities }
}

/// The report each warm response must carry: in-process
/// `Analyzer::analyze` of the program, under the warm-hit header.
fn reference_reports(corpus: &Corpus) -> Result<Vec<String>, String> {
    corpus
        .sources
        .iter()
        .zip(&corpus.arities)
        .map(|(source, &arity)| {
            let program = prolog_syntax::parse_program(source).map_err(|e| e.to_string())?;
            let analyzer = Analyzer::compile(&program).map_err(|e| e.to_string())?;
            let entry = Pattern::from_spec(&vec!["any"; arity]).ok_or("bad entry spec")?;
            let report = analyzer
                .analyze("p0", &entry)
                .map_err(|e| e.to_string())?
                .report(&analyzer);
            let body = report.split_once('\n').map_or("", |(_, rest)| rest);
            Ok(format!("{WARM_HEADER}{body}"))
        })
        .collect()
}

fn request_line(tenant: usize, hash: &str, arity: usize) -> String {
    let entry = vec!["\"any\""; arity].join(",");
    format!(
        r#"{{"op":"analyze","tenant":"tenant{tenant}","program":"{hash}","goal":"p0","entry":[{entry}],"reuse":true}}"#
    )
}

/// Each tenant's script of program indices: `awam loadgen`'s hot-set
/// skew (half the draws from the first tenth of the corpus).
fn scripts(seed: u64) -> Vec<Vec<usize>> {
    (0..TENANTS)
        .map(|c| {
            let mut rng = Rng::new(seed ^ (c as u64).wrapping_mul(0x9e37));
            (0..SCRIPT_LEN)
                .map(|_| {
                    if rng.below(2) == 0 {
                        rng.below((PROGRAMS as u64).div_ceil(10)) as usize
                    } else {
                        rng.below(PROGRAMS as u64) as usize
                    }
                })
                .collect()
        })
        .collect()
}

/// A daemon with the corpus registered and warmed for every tenant.
struct Live {
    daemon: Daemon,
    control: Client,
    tenants: Vec<Client>,
}

fn io_err(e: io::Error) -> String {
    format!("daemon connection: {e}")
}

/// One stop-and-wait request: send, flush, read the response line.
fn call<'c>(client: &'c mut Client, line: &str) -> Result<&'c str, String> {
    client.send_line(line).map_err(io_err)?;
    client.flush().map_err(io_err)?;
    client.recv_line().map_err(io_err)
}

/// Spawn a daemon, register the corpus and warm every (tenant,
/// program) pair, one connection per tenant.
fn set_up(corpus: &Corpus, lines: &[Vec<String>]) -> Result<Live, String> {
    let daemon = Daemon::spawn()?;
    let mut control = Client::connect(&daemon.addr).map_err(io_err)?;
    for source in &corpus.sources {
        let response = control.register("bench", source).map_err(io_err)?;
        let hash = response.get("program").and_then(Json::as_str);
        if hash != Some(hash_hex(program_fingerprint(source)).as_str()) {
            return Err(format!("register failed: {}", response.emit()));
        }
    }
    let addr = daemon.addr.as_str();
    let tenants = std::thread::scope(|scope| {
        let joins: Vec<_> = lines
            .iter()
            .map(|tenant_lines| {
                scope.spawn(move || -> Result<Client, String> {
                    let mut client = Client::connect(addr).map_err(io_err)?;
                    for line in tenant_lines {
                        let response = call(&mut client, line)?;
                        if !response
                            .starts_with(r#"{"schema":"awam/v1","kind":"analyze","ok":true"#)
                        {
                            return Err(format!("warm-up request failed: {response}"));
                        }
                    }
                    Ok(client)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("warm-up thread panicked"))
            .collect::<Result<Vec<Client>, String>>()
    })?;
    Ok(Live {
        daemon,
        control,
        tenants,
    })
}

/// One warm request per (tenant, program), outside every timer: the
/// response must be a warm hit whose report equals the in-process
/// reference. Returns the verified response line per program (the
/// tenant is not echoed, so both tenants' lines must agree).
fn verify(
    live: &mut Live,
    lines: &[Vec<String>],
    reports: &[String],
) -> Result<(Vec<String>, u64), String> {
    let mut expected: Vec<String> = Vec::with_capacity(PROGRAMS);
    let mut failed = 0u64;
    for (c, (client, tenant_lines)) in live.tenants.iter_mut().zip(lines).enumerate() {
        for (i, report) in reports.iter().enumerate() {
            let line = call(client, &tenant_lines[i])?.to_owned();
            let doc = Json::parse(&line).map_err(|e| format!("malformed response: {e}"))?;
            let good = doc.get("kind").and_then(Json::as_str) == Some("analyze")
                && doc.get("warm").and_then(Json::as_bool) == Some(true)
                && doc.get("report").and_then(Json::as_str) == Some(report.as_str());
            if !good {
                eprintln!("serve_warm: program {i} response differs from the reference: {line}");
                failed += 1;
            }
            if c == 0 {
                expected.push(line);
            } else if line != expected[i] {
                eprintln!("serve_warm: tenants disagree on program {i}");
                failed += 1;
            }
        }
    }
    Ok((expected, failed))
}

/// Counters of the daemon's `stats` op.
struct Counters {
    requests: f64,
    warm_hits: f64,
    pool_hits: f64,
    pool_misses: f64,
    cache_hits: f64,
    cache_misses: f64,
    errors: f64,
    parked: f64,
}

fn counters(control: &mut Client) -> Result<Counters, String> {
    let doc = control.stats().map_err(io_err)?;
    let get = |path: &[&str]| -> Result<f64, String> {
        path.iter()
            .try_fold(&doc, |d, key| d.get(key))
            .and_then(Json::as_i64)
            .map(|v| v as f64)
            .ok_or_else(|| format!("stats: missing {}", path.join(".")))
    };
    Ok(Counters {
        requests: get(&["counters", "requests"])?,
        warm_hits: get(&["counters", "warm_hits"])?,
        pool_hits: get(&["counters", "session_pool_hits"])?,
        pool_misses: get(&["counters", "session_pool_misses"])?,
        cache_hits: get(&["counters", "program_cache_hits"])?,
        cache_misses: get(&["counters", "program_cache_misses"])?,
        errors: get(&["counters", "responses_error"])?,
        parked: get(&["session_pools", "parked"])?,
    })
}

/// Where one tenant is in the timed closed loop: its send-to-receive
/// latencies, its place in its script, and mismatched responses.
struct Tenant {
    recorder: Recorder,
    next: usize,
    mismatched: u64,
}

/// One segment of the timed closed loop: each tenant thread goes on
/// through its script, stop-and-wait, until `seconds` have passed.
/// Returns the segment's elapsed ns.
fn drive(
    live: &mut Live,
    tenants: &mut [Tenant],
    lines: &[Vec<String>],
    scripts: &[Vec<usize>],
    expected: &[String],
    seconds: f64,
    inject_ns: u64,
) -> Result<u64, String> {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let joins: Vec<_> = live
            .tenants
            .iter_mut()
            .zip(tenants.iter_mut())
            .zip(lines.iter().zip(scripts))
            .map(|((client, tenant), (lines, script))| {
                scope.spawn(move || -> Result<(), String> {
                    loop {
                        let i = script[tenant.next % script.len()];
                        tenant.next += 1;
                        let sent = Instant::now();
                        let response = call(client, &lines[i])?;
                        inject(inject_ns);
                        tenant.recorder.record(ns_since(sent));
                        if response != expected[i] {
                            tenant.mismatched += 1;
                        }
                        if start.elapsed().as_secs_f64() >= seconds {
                            return Ok(());
                        }
                    }
                })
            })
            .collect();
        joins
            .into_iter()
            .try_for_each(|j| j.join().expect("tenant thread panicked"))
    })?;
    Ok(ns_since(start))
}

/// Time one set-up of a fresh daemon, then stop it.
fn extra_set_up(corpus: &Corpus, lines: &[Vec<String>]) -> Result<f64, String> {
    let start = Instant::now();
    let mut live = set_up(corpus, lines)?;
    let seconds = start.elapsed().as_secs_f64();
    live.daemon.shutdown(&mut live.control);
    Ok(seconds)
}

/// The daemon's request path for an id-less `analyze`, replayed
/// in-process through the public calls it is made of.
struct Replay {
    config: ServeConfig,
    cache: ProgramCache,
    pools: SessionPool,
    out: String,
}

impl Replay {
    fn new(corpus: &Corpus) -> Result<Replay, String> {
        let config = ServeConfig::default();
        let cache = ProgramCache::with_shards(config.cache_bytes, DEFAULT_SHARDS);
        for source in &corpus.sources {
            let program = prolog_syntax::parse_program(source).map_err(|e| e.to_string())?;
            let analyzer = Analyzer::compile(&program).map_err(|e| e.to_string())?;
            cache.insert(
                program_fingerprint(source),
                Arc::new(analyzer),
                source.len(),
            );
        }
        Ok(Replay {
            pools: SessionPool::with_shards(config.pool_per_key, DEFAULT_SHARDS),
            config,
            cache,
            out: String::new(),
        })
    }

    /// Answer one request line into `self.out`.
    fn op(&mut self, line: &str, t: &mut Option<Tracer>) -> Result<(), String> {
        let env = span(t, Layer::ProtocolParse, || parse_request(line)).map_err(|e| e.0)?;
        let Request::Analyze {
            tenant,
            program: ProgramRef::Hash(hash),
            goal,
            budget,
            reuse,
        } = env.request
        else {
            return Err("replay: not an analyze request by hash".to_owned());
        };
        let analyzer =
            span(t, Layer::CacheGet, || self.cache.get(hash)).ok_or("replay: unknown program")?;
        let parked = if reuse {
            span(t, Layer::Pool, || self.pools.checkout(&tenant, hash))
        } else {
            None
        };
        let warmed = parked.is_some();
        let cap = self.config.max_budget;
        let budget = match (budget.or(self.config.default_budget), cap) {
            (Some(b), Some(c)) => Some(b.min(c)),
            (None, c) => c,
            (b, None) => b,
        };
        let (result, parts) = span(t, Layer::Session, || {
            let mut session = match parked {
                Some(parts) => Session::resume(&analyzer, parts),
                None => Session::new(&analyzer),
            };
            session.set_step_budget(budget);
            let specs: Vec<&str> = goal.entry.iter().map(String::as_str).collect();
            let result = session.analyze_query(&goal.goal, &specs);
            (result, session.into_parts())
        });
        let analysis = result.map_err(|e| e.to_string())?;
        let warm_hit = warmed && analysis.iterations == 0;
        if reuse {
            span(t, Layer::Pool, || self.pools.checkin(&tenant, hash, parts));
        }
        let report = span(t, Layer::Report, || analysis.report(&analyzer));
        let out = &mut self.out;
        span(t, Layer::Encode, || {
            let doc = envelope(
                "analyze",
                vec![
                    ("ok", Json::Bool(true)),
                    ("program", Json::Str(hash_hex(hash))),
                    ("reused", Json::Bool(warmed)),
                    ("warm", Json::Bool(warm_hit)),
                    ("goal", Json::Str(goal.goal.clone())),
                    (
                        "entry",
                        Json::Arr(goal.entry.iter().map(|s| Json::Str(s.clone())).collect()),
                    ),
                    ("iterations", Json::Int(analysis.iterations as i64)),
                    (
                        "instructions_executed",
                        Json::Int(analysis.instructions_executed as i64),
                    ),
                    ("report", Json::Str(report)),
                ],
            );
            out.clear();
            doc.emit_into(out);
        });
        Ok(())
    }
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let corpus = corpus(config.seed);
    let scripts = scripts(config.seed);
    let reports = reference_reports(&corpus)?;
    let lines = request_lines(&corpus);

    let mut setup = Vec::with_capacity(SETUPS);
    let start = Instant::now();
    let mut live = set_up(&corpus, &lines)?;
    setup.push(start.elapsed().as_secs_f64());
    let (expected, mut failed) = verify(&mut live, &lines, &reports)?;

    // A traced run spends half its time on the daemon (client latency)
    // and then replays the same request stream in-process with spans; it
    // reports no set-up, so it drives the daemon in one segment.
    let (seconds, segments) = if config.trace {
        (config.seconds / 2.0, 1)
    } else {
        (config.seconds, SETUPS)
    };
    let mut tenants: Vec<Tenant> = (0..TENANTS)
        .map(|_| Tenant {
            recorder: Recorder::growing(seconds),
            next: 0,
            mismatched: 0,
        })
        .collect();
    let before = counters(&mut live.control)?;
    let mut elapsed_ns = 0;
    for segment in 0..segments {
        if segment > 0 {
            setup.push(extra_set_up(&corpus, &lines)?);
        }
        elapsed_ns += drive(
            &mut live,
            &mut tenants,
            &lines,
            &scripts,
            &expected,
            seconds / segments as f64,
            config.inject_ns(Inject::Response),
        )?;
    }
    let after = counters(&mut live.control)?;
    let daemon_rss_kb = peak_rss_kb(Some(live.daemon.pid()))?;
    live.daemon.shutdown(&mut live.control);
    drop(live);
    let mut recorder = Recorder::growing(seconds);
    for tenant in tenants {
        failed += tenant.mismatched;
        recorder.merge(tenant.recorder);
    }
    let attempted = recorder.ops();
    let client_mean_us = recorder.mean_ns() / 1e3;

    let analyzes = after.requests - before.requests;
    let mut detail = vec![
        ("workload", "\"serve_warm\"".to_owned()),
        (
            "script_head",
            format!("[{:?},{:?}]", &scripts[0][..8], &scripts[1][..8]),
        ),
        ("ops", attempted.to_string()),
        ("daemon_requests", format!("{analyzes}")),
    ];
    let metrics = if config.trace {
        // The replay's own set-up mirrors the daemon's: register the
        // corpus, then warm every (tenant, program) pair.
        let mut replay = Replay::new(&corpus)?;
        for line in lines.iter().flatten() {
            replay.op(line, &mut None)?;
        }
        let mut tracer = Some(Tracer::new());
        let mut plain_ns = (0u64, 0u64);
        let mut bytes = 0u64;
        for j in 0..REPLAY_PER_TENANT {
            for c in 0..TENANTS {
                let i = scripts[c][j % SCRIPT_LEN];
                let traced = j % 2 == 0;
                let start = Instant::now();
                let result = if traced {
                    tracer.as_mut().expect("tracing").open(Layer::Op);
                    let result = replay.op(&lines[c][i], &mut tracer);
                    tracer.as_mut().expect("tracing").close();
                    result
                } else {
                    let result = replay.op(&lines[c][i], &mut None);
                    let ns = ns_since(start);
                    plain_ns = (plain_ns.0 + ns, plain_ns.1 + 1);
                    result
                };
                result?;
                bytes += replay.out.len() as u64;
                if replay.out != expected[i] {
                    eprintln!(
                        "serve_warm: replayed response for program {i} differs from the daemon's"
                    );
                    failed += 1;
                }
            }
        }
        let tracer = tracer.expect("tracing");
        crate::write_trace(config, &tracer)?;
        let plain_us = plain_ns.0 as f64 / plain_ns.1.max(1) as f64 / 1e3;
        let traced_us = tracer.op_mean_us();
        let replayed = (REPLAY_PER_TENANT * TENANTS) as f64;
        let mut metrics = tracer.self_time_metrics();
        metrics.extend([
            Metric::new("serve.transport_us", client_mean_us - plain_us, "us"),
            Metric::new("obs.response_bytes", bytes as f64 / replayed, "bytes"),
            Metric::new(
                "serve.warm_hit_ratio",
                (after.warm_hits - before.warm_hits) / analyzes.max(1.0),
                "ratio",
            ),
            Metric::new(
                "serve.pool_hit_ratio",
                (after.pool_hits - before.pool_hits)
                    / (after.pool_hits + after.pool_misses - before.pool_hits - before.pool_misses)
                        .max(1.0),
                "ratio",
            ),
            Metric::new(
                "serve.cache_hit_ratio",
                (after.cache_hits - before.cache_hits)
                    / (after.cache_hits + after.cache_misses
                        - before.cache_hits
                        - before.cache_misses)
                        .max(1.0),
                "ratio",
            ),
            Metric::new("serve.errors", after.errors - before.errors, "count"),
            Metric::new("serve.parked_sessions", after.parked, "count"),
            Metric::new(
                "serve.rss_per_session_kb",
                daemon_rss_kb as f64 / after.parked.max(1.0),
                "KB",
            ),
            Metric::new("trace.overhead_ratio", traced_us / plain_us, "ratio"),
        ]);
        metrics
    } else {
        let mut metrics = recorder.metrics(elapsed_ns, &mut detail);
        metrics.push(peak_rss_metric(daemon_rss_kb));
        metrics.push(Metric::new("setup_s", median(setup), "s"));
        metrics
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        detail,
    })
}

/// Every tenant's request line per program, by in-process fingerprint.
fn request_lines(corpus: &Corpus) -> Vec<Vec<String>> {
    (0..TENANTS)
        .map(|c| {
            corpus
                .sources
                .iter()
                .zip(&corpus.arities)
                .map(|(source, &arity)| {
                    request_line(c, &hash_hex(program_fingerprint(source)), arity)
                })
                .collect()
        })
        .collect()
}
