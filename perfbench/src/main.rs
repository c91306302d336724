//! `perfbench` — the end-to-end benchmark of the served TurboHOM++ engine.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload point-lookup --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads (see README.md): `point-lookup` (constant-solution queries over
//! HTTP), `analytic-scan` (increasing-solution queries in process, 2 threads
//! per query) and `cold-boot` (open a snapshot, answer one query). With
//! `--trace 0` the run measures the end-to-end metrics; with `--trace 1` it
//! replays the same requests calling one layer at a time and reports the
//! per-layer metrics. The last line of standard output is the result as JSON;
//! a readable report goes to standard error.

mod affinity;
mod answer;
mod client;
mod oracle;
mod report;
mod templates;
mod trace;
mod workload;

use answer::{check, Expected};
use oracle::{Digest, Oracle};
use report::{median, metric, quantile, rss_mib, Failure, Metric, Ops};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use templates::{analytic_bgp, closed_form_count, Bgp, ANALYTIC_IDS};
use turbohom_datasets::lubm::{LubmConfig, LubmGenerator};
use turbohom_engine::Store;
use turbohom_service::{HttpServer, QueryOptions, QueryService};
use workload::{lubm_config, point_spaces, PointRequest, PointStream};

/// Set-up runs this many times; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Point-lookup rounds sent before timing starts (fills the plan cache).
const POINT_WARMUP_ROUNDS: usize = 100;
/// Worker threads per analytic query.
const ANALYTIC_THREADS: usize = 2;
/// Where the cold-boot snapshot is written, relative to the working
/// directory.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad(&"must be a positive number of seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["point-lookup", "analytic-scan", "cold-boot"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be point-lookup, analytic-scan or cold-boot (got {:?})",
            args.workload
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// Milliseconds in `d`.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in `d`.
fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// What set-up leaves behind, and how long its parts took.
pub struct Setup {
    cfg: LubmConfig,
    store: Option<Arc<Store>>,
    triples: usize,
    /// The oracle's answer for every point request, by template and
    /// constant (point-lookup and cold-boot only; empty elsewhere).
    point_answers: Vec<Vec<Digest>>,
    /// The analytic queries with their answers (analytic-scan only).
    analytic: Vec<AnalyticQuery>,
    snapshot: Option<PathBuf>,
    setup_s: Vec<f64>,
    generate_ms: Vec<f64>,
    build_ms: Vec<f64>,
    /// The one snapshot write (cold-boot only; 0 elsewhere).
    save_ms: f64,
    snapshot_bytes: u64,
}

/// The snapshot goes when the run ends, however it ends.
impl Drop for Setup {
    fn drop(&mut self) {
        if let Some(path) = &self.snapshot {
            let _ = std::fs::remove_file(path);
            let _ = std::fs::remove_dir(WORK_DIR);
        }
    }
}

impl Setup {
    fn store(&self) -> &Arc<Store> {
        self.store
            .as_ref()
            .expect("heap workloads keep their store")
    }
}

/// Generates and builds the store [`SETUP_REPS`] times, keeping the last
/// one; `setup_s` is the median of those repetitions. The oracle is built
/// from the first dataset, outside the clock, answers every request the
/// workload can send and is dropped before the store is built. For
/// cold-boot the kept store is then written to the snapshot once and
/// dropped: that write is timed on its own (`storage.save_ms`) and kept out
/// of `setup_s`, because its `fsync` on the working directory's disk varies
/// far more between runs than the program does (see README.md). Set-up ends
/// by handing the heap it freed back to the system, so the timed phase's
/// memory is the engine's and the client's.
fn setup(args: &Args) -> Result<Setup, String> {
    let cfg = lubm_config();
    let mut answers = None;
    let mut store = None;
    let (mut setup_s, mut generate_ms, mut build_ms) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        // The previous repetition's store goes first, outside the clock.
        drop(store.take());
        let t = Instant::now();
        let dataset = LubmGenerator::new(cfg).generate();
        let generate = t.elapsed();
        if answers.is_none() {
            let t = Instant::now();
            answers = Some(expected_answers(
                &args.workload,
                &cfg,
                &Oracle::new(&dataset),
            ));
            eprintln!(
                "perfbench: oracle answers in {:.2} s (outside set-up)",
                t.elapsed().as_secs_f64()
            );
        }
        let t = Instant::now();
        store = Some(Store::from_dataset(dataset));
        let build = t.elapsed();
        generate_ms.push(ms(generate));
        build_ms.push(ms(build));
        setup_s.push((generate + build).as_secs_f64());
    }
    let store = store.expect("at least one set-up repetition");
    let (triples, point_answers, analytic) = answers.expect("at least one set-up repetition");
    let mut s = Setup {
        cfg,
        store: None,
        triples,
        point_answers,
        analytic,
        snapshot: None,
        setup_s,
        generate_ms,
        build_ms,
        save_ms: 0.0,
        snapshot_bytes: 0,
    };
    if args.workload == "cold-boot" {
        std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("{WORK_DIR}: {e}"))?;
        let path = Path::new(WORK_DIR).join(format!("cold-boot-{}.snap", std::process::id()));
        let t = Instant::now();
        s.snapshot_bytes = store
            .save_snapshot(&path)
            .map_err(|e| format!("save_snapshot: {e}"))?;
        s.save_ms = ms(t.elapsed());
        s.snapshot = Some(path);
        drop(store);
    } else {
        s.store = Some(Arc::new(store));
    }
    report::release_free_heap();
    Ok(s)
}

/// The triple count and the expected answers `workload` needs: every point
/// request's, or the analytic queries'.
fn expected_answers(
    workload: &str,
    cfg: &LubmConfig,
    oracle: &Oracle,
) -> (usize, Vec<Vec<Digest>>, Vec<AnalyticQuery>) {
    if workload == "analytic-scan" {
        return (
            oracle.triple_count(),
            Vec::new(),
            analytic_queries(cfg, oracle),
        );
    }
    let point = templates::POINT_TEMPLATES
        .iter()
        .zip(point_spaces(cfg))
        .map(|(t, values)| values.iter().map(|v| oracle.digest(&t.bgp(v))).collect())
        .collect();
    (oracle.triple_count(), point, Vec::new())
}

/// Length of one measurement window; the timed phase is cut into windows
/// of whole rounds so that a burst of interference from outside the process
/// moves one window, not the run's figures.
const WINDOW: Duration = Duration::from_secs(2);

/// Timed samples of one run.
#[derive(Default)]
pub struct Timed {
    latency_ms: Vec<f64>,
    /// End (exclusive index into `latency_ms`) of each full window.
    window_ends: Vec<usize>,
    /// The largest resident set seen after a timed operation, in MiB.
    peak_rss_mib: f64,
}

impl Timed {
    /// Records one timed operation's latency and the resident set right
    /// after it, while its answer (and, on cold-boot, its store) is still
    /// held.
    fn push(&mut self, latency: Duration) {
        self.latency_ms.push(ms(latency));
        self.peak_rss_mib = self.peak_rss_mib.max(rss_mib());
    }

    /// The timed samples of each full window (all samples when the run was
    /// shorter than one window).
    fn windows(&self) -> Vec<&[f64]> {
        if self.window_ends.is_empty() {
            return vec![&self.latency_ms];
        }
        let mut start = 0;
        self.window_ends
            .iter()
            .map(|&end| {
                let w = &self.latency_ms[start..end];
                start = end;
                w
            })
            .collect()
    }

    /// `qps` is the median of the windows' completed operations per busy
    /// second, `latency_p95_ms` the median of their 95th percentiles.
    fn end_to_end(&self, setup: &Setup) -> Vec<Metric> {
        let windows = self.windows();
        let qps: Vec<f64> = windows
            .iter()
            .map(|w| w.len() as f64 / (w.iter().sum::<f64>() / 1e3))
            .collect();
        let p95: Vec<f64> = windows.iter().map(|w| quantile(w, 0.95)).collect();
        eprintln!(
            "perfbench: {} timed operations in {} windows; window qps {:?}",
            self.latency_ms.len(),
            windows.len(),
            qps.iter()
                .map(|q| (q * 10.0).round() / 10.0)
                .collect::<Vec<_>>()
        );
        vec![
            metric("qps", "1/s", median(&qps)),
            metric("latency_p50_ms", "ms", median(&self.latency_ms)),
            metric("latency_p95_ms", "ms", median(&p95)),
            metric("peak_rss_mb", "MiB", self.peak_rss_mib),
            metric("setup_s", "s", median(&setup.setup_s)),
        ]
    }
}

/// Drives a run in whole rounds: `warmup` untimed rounds, then timed
/// rounds until `seconds` have passed, cut into [`WINDOW`]s.
pub struct Rounds {
    warmup: usize,
    seconds: Duration,
    done: usize,
    start: Instant,
    window_start: Instant,
    /// Timed-sample count at the end of each full window.
    window_ends: Vec<usize>,
}

impl Rounds {
    pub fn new(warmup: usize, seconds: Duration) -> Rounds {
        Rounds {
            warmup,
            seconds,
            done: 0,
            start: Instant::now(),
            window_start: Instant::now(),
            window_ends: Vec::new(),
        }
    }

    /// Starts the next round: `None` when the run is over, otherwise
    /// whether the round is timed. `samples` counts the timed samples so
    /// far; a window that closes here ends after them.
    pub fn next(&mut self, samples: usize) -> Option<bool> {
        if self.done == self.warmup {
            self.start = Instant::now();
            self.window_start = self.start;
        } else if self.done > self.warmup {
            if self.window_start.elapsed() >= WINDOW {
                self.window_ends.push(samples);
                self.window_start = Instant::now();
            }
            if self.start.elapsed() >= self.seconds {
                return None;
            }
        }
        self.done += 1;
        Some(self.done > self.warmup)
    }
}

fn run(args: &Args) -> Result<(), String> {
    // Analytic-scan runs its queries on 2 threads each, so it keeps every
    // CPU; the single-threaded workloads are pinned (see README.md).
    if args.workload == "analytic-scan" {
        eprintln!("perfbench: running unpinned");
    } else {
        match affinity::pin_to_one_cpu() {
            Ok(cpu) => eprintln!("perfbench: pinned to CPU {cpu}"),
            Err(e) => eprintln!("perfbench: running unpinned ({e})"),
        }
    }
    let started = Instant::now();
    let setup = setup(args)?;
    eprintln!(
        "perfbench: {} seed {} — LUBM scale {} ({} triples), set-up {:.3} s (median of {SETUP_REPS}), {:.1} MiB resident after set-up",
        args.workload,
        args.seed,
        workload::SCALE,
        setup.triples,
        median(&setup.setup_s),
        rss_mib()
    );
    let seconds = Duration::from_secs_f64(args.seconds);
    let mut ops = Ops::default();
    let outcome = if args.trace {
        trace::run(args, &setup, seconds, &mut ops)
    } else {
        let timed = match args.workload.as_str() {
            "point-lookup" => point_lookup(args, &setup, seconds, &mut ops),
            "analytic-scan" => analytic_scan(&setup, seconds, &mut ops),
            _ => cold_boot(args, &setup, seconds, &mut ops),
        };
        timed.map(|t| t.end_to_end(&setup))
    };
    drop(setup);
    let metrics = outcome?;
    for m in &metrics {
        eprintln!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "perfbench: {} attempted, {} failed, {:.1} s wall",
        ops.attempted,
        ops.failed,
        started.elapsed().as_secs_f64()
    );
    for (reason, n) in ops.reasons() {
        eprintln!("  failed {n}x: {reason}");
    }
    println!("{}", report::result_json(&ops, &metrics));
    Ok(())
}

/// Checks a served SPARQL-JSON body for `req` against the oracle's answer.
pub fn check_point(setup: &Setup, req: &PointRequest, body: &[u8]) -> Result<(), Failure> {
    let expected = Expected::Rows(setup.point_answers[req.template_at][req.param]);
    check(body, &req.bgp.vars, &expected)
        .map_err(|e| Failure::Wrong(format!("{}: {e}", req.template.id)))
}

/// Checks an HTTP outcome: transport errors and non-200 statuses fail the
/// operation, a 200 body goes to the oracle.
pub fn check_http(
    response: std::io::Result<client::Response>,
    req: &PointRequest,
    setup: &Setup,
) -> Result<client::Response, Failure> {
    let response = response.map_err(|e| Failure::Error(format!("http: {e}")))?;
    if response.status != 200 {
        return Err(Failure::Error(format!("http status {}", response.status)));
    }
    check_point(setup, req, response.body())?;
    Ok(response)
}

/// `point-lookup`: one closed-loop client, one connection per request, to
/// an in-process `HttpServer` on loopback.
fn point_lookup(
    args: &Args,
    setup: &Setup,
    seconds: Duration,
    ops: &mut Ops,
) -> Result<Timed, String> {
    let service = Arc::new(QueryService::new(Arc::clone(setup.store())));
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service))
        .and_then(HttpServer::spawn)
        .map_err(|e| format!("http server: {e}"))?;
    let addr = server.addr();
    let mut stream = PointStream::new(args.seed, &setup.cfg);
    eprintln!(
        "perfbench: point parameter spaces {:?}",
        stream.space_sizes()
    );
    let mut timed = Timed::default();
    let mut rounds = Rounds::new(POINT_WARMUP_ROUNDS, seconds);
    while let Some(is_timed) = rounds.next(timed.latency_ms.len()) {
        for req in stream.next_round() {
            let t = Instant::now();
            let response = client::post_query(addr, &req.text);
            let latency = t.elapsed();
            if is_timed {
                timed.push(latency);
            }
            ops.record(check_http(response, &req, setup).map(drop));
        }
    }
    server.shutdown();
    timed.window_ends = rounds.window_ends;
    let stats = service.stats();
    eprintln!(
        "perfbench: plan cache {} hits, {} misses, {} evictions",
        stats.cache_hits, stats.cache_misses, stats.cache_evictions
    );
    Ok(timed)
}

/// One analytic query with its expected answer.
pub struct AnalyticQuery {
    pub id: &'static str,
    pub bgp: Bgp,
    pub text: String,
    pub expected: Expected,
}

/// The analytic queries; Q6 and Q14 are checked against closed-form counts,
/// the others against the oracle.
fn analytic_queries(cfg: &LubmConfig, oracle: &Oracle) -> Vec<AnalyticQuery> {
    ANALYTIC_IDS
        .iter()
        .map(|&id| {
            let bgp = analytic_bgp(id);
            let expected = match closed_form_count(id, cfg) {
                Some(n) => Expected::Count(n as u64),
                None => Expected::Rows(oracle.digest(&bgp)),
            };
            AnalyticQuery {
                id,
                text: bgp.to_sparql(),
                bgp,
                expected,
            }
        })
        .collect()
}

pub fn analytic_options() -> QueryOptions {
    QueryOptions {
        threads: Some(ANALYTIC_THREADS),
        ..QueryOptions::default()
    }
}

/// Checks one analytic answer.
pub fn check_analytic(q: &AnalyticQuery, body: &[u8]) -> Result<(), Failure> {
    check(body, &q.bgp.vars, &q.expected).map_err(|e| Failure::Wrong(format!("{}: {e}", q.id)))
}

/// `analytic-scan`: one closed-loop client calling `QueryService::query`
/// and `to_sparql_json` in process, Q2, Q6, Q9, Q13 and Q14 round-robin.
fn analytic_scan(setup: &Setup, seconds: Duration, ops: &mut Ops) -> Result<Timed, String> {
    let service = QueryService::new(Arc::clone(setup.store()));
    let queries = &setup.analytic;
    let mut timed = Timed::default();
    // The untimed first round prepares and caches every plan.
    let mut rounds = Rounds::new(1, seconds);
    while let Some(is_timed) = rounds.next(timed.latency_ms.len()) {
        for q in queries {
            let t = Instant::now();
            let answer = service.query(&q.text, analytic_options()).map(|response| {
                let body = response.results.to_sparql_json();
                (response, body)
            });
            let latency = t.elapsed();
            if is_timed {
                timed.push(latency);
            }
            ops.record(match answer {
                Ok((_response, body)) => check_analytic(q, body.as_bytes()),
                Err(e) => Err(Failure::Error(format!("{}: {e}", q.id))),
            });
        }
    }
    timed.window_ends = rounds.window_ends;
    // Samples cycle through the queries in order, so query `i` holds every
    // `queries.len()`-th sample.
    for (i, q) in queries.iter().enumerate() {
        let own: Vec<f64> = timed
            .latency_ms
            .iter()
            .skip(i)
            .step_by(queries.len())
            .copied()
            .collect();
        eprintln!(
            "perfbench: {} median {:.3} ms over {} runs",
            q.id,
            median(&own),
            own.len()
        );
    }
    Ok(timed)
}

/// `cold-boot`: each operation opens the snapshot, wraps it in a fresh
/// `QueryService` and answers one point query. Latency is open to first
/// answer.
fn cold_boot(
    args: &Args,
    setup: &Setup,
    seconds: Duration,
    ops: &mut Ops,
) -> Result<Timed, String> {
    let path = setup
        .snapshot
        .as_ref()
        .expect("cold-boot writes a snapshot");
    let mut stream = PointStream::new(args.seed, &setup.cfg);
    let mut timed = Timed::default();
    // The untimed first round boots from the freshly written file.
    let mut rounds = Rounds::new(1, seconds);
    while let Some(is_timed) = rounds.next(timed.latency_ms.len()) {
        for req in stream.next_round() {
            let t = Instant::now();
            let body = Store::from_snapshot(path).and_then(|store| {
                let service = QueryService::new(Arc::new(store));
                let response = service.query(&req.text, QueryOptions::default())?;
                Ok((service, response.results.to_sparql_json()))
            });
            let latency = t.elapsed();
            if is_timed {
                timed.push(latency);
            }
            ops.record(match body {
                Ok((_service, body)) => check_point(setup, &req, body.as_bytes()),
                Err(e) => Err(Failure::Error(format!("{}: {e}", req.template.id))),
            });
        }
    }
    timed.window_ends = rounds.window_ends;
    Ok(timed)
}
