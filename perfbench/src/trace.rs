//! The traced run: the same seeded requests as the timed run, with the
//! layers called one at a time from here so each can be timed on its own.
//!
//! Every request goes once through the workload's own path (HTTP round
//! trip, or `QueryService::query` plus serialization, or a snapshot boot)
//! and once through a *layer pass* that calls `fingerprint`, `parse_query`,
//! `plan_query` (plan-cache misses only), `run_plan_traced` with a detailed
//! trace and `to_sparql_json` in turn, behind a plan cache of the service's
//! capacity that sees the same request sequence. Per request the layer
//! times plus an explicit `unattributed` remainder add up to the traced
//! total (see README.md).

use crate::affinity;
use crate::report::{mean, median, metric, quantile, Failure, Metric, Ops};
use crate::workload::PointStream;
use crate::{
    analytic_options, check_analytic, check_http, check_point, client, ms, us, Args, Rounds, Setup,
    POINT_WARMUP_ROUNDS,
};
use std::sync::Arc;
use std::time::{Duration, Instant};
use turbohom_engine::{AnyPlan, EngineKind, MatchStats, QueryPlan, Store, Trace};
use turbohom_service::{
    HttpServer, PlanCache, PlanKey, QueryOptions, QueryService, ServiceConfig, StatsSnapshot,
};
use turbohom_sparql::{fingerprint, parse_query};

/// One request's layer pass, in microseconds.
#[derive(Default)]
struct Pass {
    total: f64,
    fingerprint: f64,
    parse: f64,
    plan: f64,
    run: f64,
    candidate_regions: f64,
    matching_order: f64,
    enumeration: f64,
    serialize: f64,
    miss: bool,
    stats: MatchStats,
    /// An untraced run of the same plan as the workload runs it, after the
    /// pass.
    run_untraced: f64,
    /// Untraced runs of the same plan at 1 and 2 threads on every CPU the
    /// process may use.
    run_1_thread: f64,
    run_2_threads: f64,
}

impl Pass {
    /// What a `QueryService::query` call took beyond the layers it calls:
    /// the call minus fingerprint, parse, plan and the untraced run.
    fn service_overhead(&self, call_us: f64) -> f64 {
        call_us - self.fingerprint - self.parse - self.plan - self.run_untraced
    }

    fn run_unattributed(&self) -> f64 {
        self.run - self.candidate_regions - self.matching_order - self.enumeration
    }

    fn unattributed(&self) -> f64 {
        self.total - self.fingerprint - self.parse - self.plan - self.run - self.serialize
    }
}

/// Calls the layers of one request in turn against `store`.
struct Layers<'s> {
    store: &'s Store,
    cache: PlanCache,
    threads: Option<usize>,
}

impl<'s> Layers<'s> {
    fn new(store: &'s Store, threads: Option<usize>) -> Self {
        Layers {
            store,
            cache: PlanCache::new(ServiceConfig::default().plan_cache_capacity),
            threads,
        }
    }

    /// Runs one request layer by layer, then checks the body with `check`
    /// and frees it before the untraced runs, so those start from the same
    /// memory state as the workload's own call did.
    fn pass(
        &mut self,
        text: &str,
        check: impl FnOnce(&[u8]) -> Result<(), Failure>,
    ) -> Result<Pass, Failure> {
        self.layers(text, check).map_err(|e| match e {
            Failure::Error(e) => Failure::Error(format!("layer pass: {e}")),
            wrong => wrong,
        })
    }

    fn layers(
        &mut self,
        text: &str,
        check: impl FnOnce(&[u8]) -> Result<(), Failure>,
    ) -> Result<Pass, Failure> {
        let mut p = Pass::default();
        let started = Instant::now();
        let t = Instant::now();
        let fp = fingerprint(text).map_err(|e| format!("fingerprint: {e}"))?;
        p.fingerprint = us(t.elapsed());
        let key = PlanKey {
            canonical: fp.canonical,
            kind: EngineKind::TurboHomPlusPlus,
        };
        let plan: Arc<QueryPlan> = match self.cache.get(&key) {
            Some(AnyPlan::Single(plan)) => plan,
            Some(AnyPlan::Sharded(_)) => {
                return Err(Failure::Error(
                    "sharded plan in a single-store cache".into(),
                ))
            }
            None => {
                p.miss = true;
                let t = Instant::now();
                let query = parse_query(text).map_err(|e| format!("parse: {e}"))?;
                p.parse = us(t.elapsed());
                let t = Instant::now();
                let plan = self
                    .store
                    .plan_query(&query, EngineKind::TurboHomPlusPlus)
                    .map_err(|e| format!("plan: {e}"))?;
                p.plan = us(t.elapsed());
                let plan = Arc::new(plan);
                self.cache.insert(key, AnyPlan::Single(Arc::clone(&plan)));
                plan
            }
        };
        let trace = Trace::detailed(1);
        let t = Instant::now();
        let results = self
            .store
            .run_plan_traced(&plan, self.threads, &trace)
            .map_err(|e| format!("run: {e}"))?;
        p.run = us(t.elapsed());
        let t = Instant::now();
        let body = results.to_sparql_json();
        p.serialize = us(t.elapsed());
        p.total = us(started.elapsed());
        let report = trace.finish();
        let span_us = |name: &str| report.span_total_ns(name) as f64 / 1e3;
        p.candidate_regions = span_us("candidate_regions");
        p.matching_order = span_us("matching_order");
        p.enumeration = span_us("enumeration");
        p.stats = results.stats;
        drop(results);
        check(body.as_bytes())?;
        drop(body);
        p.run_untraced = self.timed_run(&plan, self.threads)?;
        let (one, two) = affinity::with_all_cpus(|| {
            (
                self.timed_run(&plan, Some(1)),
                self.timed_run(&plan, Some(2)),
            )
        })
        .map_err(|e| format!("CPU affinity: {e}"))?;
        (p.run_1_thread, p.run_2_threads) = (one?, two?);
        Ok(p)
    }

    /// One untraced run of `plan`, in microseconds (freeing the results is
    /// not timed, as it is not in the service call either).
    fn timed_run(&self, plan: &QueryPlan, threads: Option<usize>) -> Result<f64, String> {
        let t = Instant::now();
        let results = self
            .store
            .run_plan_with(plan, threads)
            .map_err(|e| format!("untraced run: {e}"))?;
        let elapsed = us(t.elapsed());
        drop(results);
        Ok(elapsed)
    }
}

/// What the workload's own path measured around one request, in
/// microseconds (zero where the workload does not use that layer).
#[derive(Default)]
struct Outer {
    /// HTTP round trip minus the service call and serialization.
    http_overhead: f64,
    response_bytes: f64,
    /// `QueryService::query` minus fingerprint, parse, plan and the
    /// untraced run.
    service_overhead: f64,
    map_ms: f64,
    first_query: f64,
}

/// All traced requests of a run.
#[derive(Default)]
struct Samples {
    passes: Vec<Pass>,
    outer: Vec<Outer>,
    /// Per request, the traced total.
    totals: Vec<f64>,
}

impl Samples {
    fn push(&mut self, pass: Pass, outer: Outer) {
        // The traced total is what the workload's request costs with its
        // layers timed apart: the layer pass plus the transport (HTTP) or
        // the boot (snapshot map) around it.
        let total = outer.http_overhead + outer.map_ms * 1e3 + pass.total;
        let parts = outer.http_overhead
            + outer.map_ms * 1e3
            + pass.fingerprint
            + pass.parse
            + pass.plan
            + pass.candidate_regions
            + pass.matching_order
            + pass.enumeration
            + pass.run_unattributed()
            + pass.serialize
            + pass.unattributed();
        debug_assert!((parts - total).abs() <= 1e-6 * total.max(1.0));
        self.totals.push(total);
        self.passes.push(pass);
        self.outer.push(outer);
    }

    fn per_layer(&self, setup: &Setup, cache: CacheWindow) -> Vec<Metric> {
        let col = |f: &dyn Fn(&Pass) -> f64| self.passes.iter().map(f).collect::<Vec<_>>();
        let outer = |f: &dyn Fn(&Outer) -> f64| self.outer.iter().map(f).collect::<Vec<_>>();
        let misses: Vec<&Pass> = self.passes.iter().filter(|p| p.miss).collect();
        let miss_mean =
            |f: &dyn Fn(&Pass) -> f64| mean(&misses.iter().map(|p| f(p)).collect::<Vec<_>>());
        let sum = |f: &dyn Fn(&MatchStats) -> usize| {
            self.passes.iter().map(|p| f(&p.stats) as f64).sum::<f64>()
        };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let n = self.passes.len().max(1) as f64;
        let triples = setup.triples as f64;
        let snapshot = setup.snapshot_bytes as f64;
        vec![
            metric("datasets.generate_ms", "ms", median(&setup.generate_ms)),
            metric("engine.build_ms", "ms", median(&setup.build_ms)),
            metric("storage.save_ms", "ms", setup.save_ms),
            metric("storage.bytes_per_triple", "B", ratio(snapshot, triples)),
            metric("storage.snapshot_mb", "MiB", snapshot / (1024.0 * 1024.0)),
            metric(
                "sparql.fingerprint_us",
                "us",
                mean(&col(&|p| p.fingerprint)),
            ),
            metric("sparql.parse_us", "us", miss_mean(&|p| p.parse)),
            metric("engine.plan_us", "us", miss_mean(&|p| p.plan)),
            metric("service.plan_cache_hit_ratio", "ratio", cache.hit_ratio()),
            metric(
                "service.plan_cache_evictions",
                "count",
                cache.evictions_per_request(),
            ),
            metric("http.overhead_us", "us", mean(&outer(&|o| o.http_overhead))),
            metric(
                "http.response_bytes",
                "B",
                mean(&outer(&|o| o.response_bytes)),
            ),
            // A median: on analytic-scan the call and the untraced run
            // each take milliseconds on 2 threads, and their difference is
            // a few tens of microseconds under noise of both signs.
            metric(
                "service.overhead_us",
                "us",
                median(&outer(&|o| o.service_overhead)),
            ),
            metric("engine.run_p50_us", "us", median(&col(&|p| p.run))),
            metric("engine.run_p95_us", "us", quantile(&col(&|p| p.run), 0.95)),
            metric(
                "core.candidate_regions_us",
                "us",
                mean(&col(&|p| p.candidate_regions)),
            ),
            metric(
                "core.matching_order_us",
                "us",
                mean(&col(&|p| p.matching_order)),
            ),
            metric("core.enumeration_us", "us", mean(&col(&|p| p.enumeration))),
            metric(
                "engine.run_unattributed_us",
                "us",
                mean(&col(&Pass::run_unattributed)),
            ),
            metric("engine.serialize_us", "us", mean(&col(&|p| p.serialize))),
            metric(
                "core.explored_per_solution",
                "ratio",
                ratio(sum(&|s| s.explored_vertices), sum(&|s| s.solutions)),
            ),
            metric(
                "core.region_yield",
                "ratio",
                ratio(sum(&|s| s.nonempty_regions), sum(&|s| s.candidate_regions)),
            ),
            metric(
                "core.intersection_ops",
                "count",
                sum(&|s| s.intersection_ops) / n,
            ),
            metric(
                "core.search_recursions",
                "count",
                sum(&|s| s.search_recursions) / n,
            ),
            metric(
                "core.morsels_stolen",
                "count",
                sum(&|s| s.morsels_stolen) / n,
            ),
            metric(
                "engine.parallel_speedup",
                "ratio",
                ratio(
                    col(&|p| p.run_1_thread).iter().sum(),
                    col(&|p| p.run_2_threads).iter().sum(),
                ),
            ),
            metric("storage.map_ms", "ms", mean(&outer(&|o| o.map_ms))),
            metric(
                "engine.first_query_us",
                "us",
                mean(&outer(&|o| o.first_query)),
            ),
            metric("trace.total_p50_us", "us", median(&self.totals)),
            metric(
                "trace.unattributed_us",
                "us",
                mean(&col(&Pass::unattributed)),
            ),
            metric("trace.requests", "count", self.passes.len() as f64),
        ]
    }
}

/// The served plan cache's hits, misses and evictions over the timed
/// requests only: the difference between its counters when timing starts
/// and when the run ends.
#[derive(Default)]
struct CacheWindow {
    start: Option<StatsSnapshot>,
    hits: u64,
    misses: u64,
    evictions: u64,
    requests: u64,
}

impl CacheWindow {
    /// Notes one request of a round; `is_timed` as [`Rounds::next`] gave it.
    fn request(&mut self, is_timed: bool, service: &QueryService) {
        if is_timed {
            if self.start.is_none() {
                self.start = Some(service.stats());
            }
            self.requests += 1;
        }
    }

    fn finish(mut self, service: &QueryService) -> CacheWindow {
        if let Some(start) = self.start.take() {
            let end = service.stats();
            self.hits = end.cache_hits - start.cache_hits;
            self.misses = end.cache_misses - start.cache_misses;
            self.evictions = end.cache_evictions - start.cache_evictions;
        }
        self
    }

    fn hit_ratio(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }

    fn evictions_per_request(&self) -> f64 {
        self.evictions as f64 / self.requests.max(1) as f64
    }
}

/// Runs the traced replay of `args.workload` and returns its per-layer
/// metrics.
pub fn run(
    args: &Args,
    setup: &Setup,
    seconds: Duration,
    ops: &mut Ops,
) -> Result<Vec<Metric>, String> {
    match args.workload.as_str() {
        "point-lookup" => point_lookup(args, setup, seconds, ops),
        "analytic-scan" => analytic_scan(setup, seconds, ops),
        _ => cold_boot(args, setup, seconds, ops),
    }
}

/// Records a failed layer pass or service call.
fn fail(ops: &mut Ops, what: &str, e: impl std::fmt::Display) {
    ops.record(Err(Failure::Error(format!("{what}: {e}"))));
}

fn point_lookup(
    args: &Args,
    setup: &Setup,
    seconds: Duration,
    ops: &mut Ops,
) -> Result<Vec<Metric>, String> {
    let store = setup.store();
    let served = Arc::new(QueryService::new(Arc::clone(store)));
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&served))
        .and_then(HttpServer::spawn)
        .map_err(|e| format!("http server: {e}"))?;
    let addr = server.addr();
    // A second service with its own plan cache sees the same sequence, so
    // its call times match the served one's hits and misses.
    let in_process = QueryService::new(Arc::clone(store));
    let mut layers = Layers::new(store, None);
    let mut stream = PointStream::new(args.seed, &setup.cfg);
    let mut samples = Samples::default();
    let mut cache = CacheWindow::default();
    let mut rounds = Rounds::new(POINT_WARMUP_ROUNDS, seconds);
    while let Some(is_timed) = rounds.next(0) {
        for req in stream.next_round() {
            cache.request(is_timed, &served);
            let t = Instant::now();
            let response = client::post_query(addr, &req.text);
            let round_trip = us(t.elapsed());
            let response_bytes = match check_http(response, &req, setup) {
                Ok(response) => response.bytes.len() as f64,
                Err(failure) => {
                    ops.record(Err(failure));
                    continue;
                }
            };
            let t = Instant::now();
            let call = in_process.query(&req.text, QueryOptions::default());
            let service_us = us(t.elapsed());
            let t = Instant::now();
            let body = call.map(|r| r.results.to_sparql_json());
            let serialize_us = us(t.elapsed());
            if let Err(e) = body {
                fail(ops, "service", e);
                continue;
            }
            drop(body);
            let Some(pass) = record(
                ops,
                layers.pass(&req.text, |body| check_point(setup, &req, body)),
            ) else {
                continue;
            };
            if is_timed {
                let outer = Outer {
                    http_overhead: round_trip - service_us - serialize_us,
                    response_bytes,
                    service_overhead: pass.service_overhead(service_us),
                    ..Outer::default()
                };
                samples.push(pass, outer);
            }
        }
    }
    server.shutdown();
    Ok(samples.per_layer(setup, cache.finish(&served)))
}

/// Counts a finished layer pass as one operation; `None` when it failed.
fn record(ops: &mut Ops, pass: Result<Pass, Failure>) -> Option<Pass> {
    match pass {
        Ok(pass) => {
            ops.ok();
            Some(pass)
        }
        Err(failure) => {
            ops.record(Err(failure));
            None
        }
    }
}

fn analytic_scan(setup: &Setup, seconds: Duration, ops: &mut Ops) -> Result<Vec<Metric>, String> {
    let store = setup.store();
    let service = QueryService::new(Arc::clone(store));
    let mut layers = Layers::new(store, analytic_options().threads);
    let mut samples = Samples::default();
    let mut cache = CacheWindow::default();
    let mut rounds = Rounds::new(1, seconds);
    while let Some(is_timed) = rounds.next(0) {
        for q in &setup.analytic {
            cache.request(is_timed, &service);
            let t = Instant::now();
            let call = service.query(&q.text, analytic_options());
            let service_us = us(t.elapsed());
            let checked = match call {
                Ok(response) => check_analytic(q, response.results.to_sparql_json().as_bytes()),
                Err(e) => Err(Failure::Error(format!("{}: {e}", q.id))),
            };
            if let Err(failure) = checked {
                ops.record(Err(failure));
                continue;
            }
            let Some(pass) = record(ops, layers.pass(&q.text, |body| check_analytic(q, body)))
            else {
                continue;
            };
            if is_timed {
                let outer = Outer {
                    service_overhead: pass.service_overhead(service_us),
                    ..Outer::default()
                };
                samples.push(pass, outer);
            }
        }
    }
    Ok(samples.per_layer(setup, cache.finish(&service)))
}

fn cold_boot(
    args: &Args,
    setup: &Setup,
    seconds: Duration,
    ops: &mut Ops,
) -> Result<Vec<Metric>, String> {
    let path = setup
        .snapshot
        .as_ref()
        .expect("cold-boot writes a snapshot");
    let mut stream = PointStream::new(args.seed, &setup.cfg);
    let mut samples = Samples::default();
    let mut rounds = Rounds::new(1, seconds);
    while let Some(is_timed) = rounds.next(0) {
        for req in stream.next_round() {
            let t = Instant::now();
            let store = match Store::from_snapshot(path) {
                Ok(store) => Arc::new(store),
                Err(e) => {
                    fail(ops, "open snapshot", e);
                    continue;
                }
            };
            let map_ms = ms(t.elapsed());
            let t = Instant::now();
            let service = QueryService::new(Arc::clone(&store));
            let call = service.query(&req.text, QueryOptions::default());
            let service_us = us(t.elapsed());
            let t = Instant::now();
            let body = call.map(|r| r.results.to_sparql_json());
            let first_query = service_us + us(t.elapsed());
            let checked = match body {
                Ok(body) => check_point(setup, &req, body.as_bytes()),
                Err(e) => Err(Failure::Error(format!("{}: {e}", req.template.id))),
            };
            if let Err(failure) = checked {
                ops.record(Err(failure));
                continue;
            }
            let pass =
                Layers::new(&store, None).pass(&req.text, |body| check_point(setup, &req, body));
            let Some(pass) = record(ops, pass) else {
                continue;
            };
            if is_timed {
                let outer = Outer {
                    service_overhead: pass.service_overhead(service_us),
                    map_ms,
                    first_query,
                    ..Outer::default()
                };
                samples.push(pass, outer);
            }
        }
    }
    // Every boot starts a fresh service with an empty plan cache.
    Ok(samples.per_layer(setup, CacheWindow::default()))
}
