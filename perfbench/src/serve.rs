//! The read path: closed-loop capacity and open-loop latency through
//! `QueryService::serve`, and the traced replays that split a read's time
//! across shard, filter, refinement and kernel.

use crate::data::{IndexData, Read};
use crate::open_loop::{run_open_loop, BatchExecutor, OpenLoopRun};
use crate::oracle::Answer;
use crate::setup::{nanos_u64, nproc, Io, MAX_BATCH};
use crate::stats::{percentile, ratio, sorted};
use crate::trace::{SpanId, Trace};
use std::time::{Duration, Instant};
use uncertain_geom::Rect;
use uncertain_pdf::{MonteCarlo, PreparedPdf, RefineScratch};
use utree::{
    IndexCatalog, ProbIndex, QueryCtx, QueryService, QueryStats, ServiceReply, ServiceReport,
    ServiceRequest, UTree,
};

/// Feeds open-loop batches to `QueryService::serve`, keeping every
/// `ServiceReport` and wrapping each call in a `service.serve` span.
/// Replies are reduced to their checked [`Answer`]s as they arrive.
pub struct ServiceExec<'a> {
    /// The catalog served.
    pub catalog: &'a IndexCatalog<2>,
    /// The service (workers = cores).
    pub service: QueryService,
    /// Span recorder (may be disabled).
    pub trace: &'a mut Trace,
    /// One report per `serve` call.
    pub reports: Vec<ServiceReport>,
    next_seq: u64,
}

impl<'a> ServiceExec<'a> {
    /// A service with one worker per core over `catalog`.
    pub fn new(catalog: &'a IndexCatalog<2>, trace: &'a mut Trace) -> Self {
        Self {
            catalog,
            service: QueryService::new(nproc(), MAX_BATCH),
            trace,
            reports: Vec::new(),
            next_seq: 0,
        }
    }
}

impl BatchExecutor for ServiceExec<'_> {
    type Request = ServiceRequest<2>;
    type Reply = Answer;

    fn execute(&mut self, batch: Vec<ServiceRequest<2>>) -> Vec<Answer> {
        let n = batch.len() as u64;
        let span = self.trace.begin("service.serve", Some(self.next_seq));
        let (replies, report) = self.service.serve(self.catalog, batch);
        self.trace.end(span);
        self.next_seq += n;
        self.reports.push(report);
        replies.iter().map(Answer::from).collect()
    }
}

/// Every per-request latency a `ServiceReport` holds, recovered through
/// its nearest-rank percentiles (`p = 100·(i − ½)/n` selects rank `i`).
pub fn report_latencies(report: &ServiceReport) -> Vec<u64> {
    let n = report.served;
    (1..=n)
        .filter_map(|i| report.percentile_nanos(100.0 * (i as f64 - 0.5) / n as f64))
        .collect()
}

/// Closed-loop capacity: serves consecutive chunks of `chunk` reads from
/// position `*cursor` on (cycling, advancing the cursor) until `budget` has
/// passed, at least one call. Each call's answers go to `check` with the
/// position of their first read, between calls. Returns the requests
/// served per second of `serve` time.
pub fn closed_loop(
    catalog: &IndexCatalog<2>,
    reads: &[Read],
    cursor: &mut usize,
    chunk: usize,
    budget: Duration,
    mut check: impl FnMut(usize, &[Answer]),
) -> f64 {
    let service = QueryService::new(nproc(), MAX_BATCH);
    let start = Instant::now();
    let (mut served, mut busy_ns) = (0, 0);
    while served == 0 || start.elapsed() < budget {
        let first = *cursor;
        let requests = (first..first + chunk)
            .map(|i| reads[i % reads.len()].request.clone())
            .collect();
        *cursor = (first + chunk) % reads.len();
        let (replies, report) = service.serve(catalog, requests);
        served += report.served;
        busy_ns += report.wall_nanos;
        check(first, &replies.iter().map(Answer::from).collect::<Vec<_>>());
    }
    served as f64 * 1e9 / busy_ns.max(1) as f64
}

/// Open-loop phase: `count` arrivals at `rate` per second, serving
/// `reads` from position `first` on (cycling).
pub fn open_loop(
    exec: &mut ServiceExec<'_>,
    reads: &[Read],
    first: usize,
    count: usize,
    rate: f64,
) -> OpenLoopRun<Answer> {
    let interval = Duration::from_secs_f64(1.0 / rate);
    run_open_loop(exec, count, interval, |i| {
        reads[(first + i) % reads.len()].request.clone()
    })
}

/// Per-layer figures of the traced service phase.
#[derive(Debug, Clone, Default)]
pub struct ServiceLayer {
    /// `ServiceReport` latency (admission → completion) p50, ms.
    pub latency_ms_p50: f64,
    /// `ServiceReport` latency p99, ms.
    pub latency_ms_p99: f64,
    /// `serve` calls.
    pub calls: f64,
    /// Requests per `serve` call.
    pub batch_mean: f64,
    /// Driver lag (scheduled → submitted) p99, ms.
    pub lag_ms_p99: f64,
}

/// Summarises an open-loop service phase. `None` when a percentile would
/// rest on fewer than ten samples beyond it.
pub fn service_layer(run: &OpenLoopRun<Answer>, reports: &[ServiceReport]) -> Option<ServiceLayer> {
    let lat = sorted(
        reports
            .iter()
            .flat_map(report_latencies)
            .map(|n| n as f64 * 1e-6)
            .collect(),
    );
    let lag = sorted(run.lag_ns.iter().map(|&n| n as f64 * 1e-6).collect());
    Some(ServiceLayer {
        latency_ms_p50: percentile(&lat, 50.0)?,
        latency_ms_p99: percentile(&lat, 99.0)?,
        calls: run.batch_sizes.len() as f64,
        batch_mean: ratio(run.replies.len() as f64, run.batch_sizes.len() as f64),
        lag_ms_p99: percentile(&lag, 99.0)?,
    })
}

/// Executes one request against the sharded index directly (what a
/// service worker does).
pub fn execute(
    catalog: &IndexCatalog<2>,
    request: &ServiceRequest<2>,
    ctx: &mut QueryCtx,
) -> ServiceReply {
    let name = index_name(request);
    let Some(index) = catalog.get(name) else {
        return ServiceReply::Error(format!("no index named {name:?}"));
    };
    let result = match request {
        ServiceRequest::Range { query, .. } => {
            index.try_execute_with(query, ctx).map(ServiceReply::Range)
        }
        ServiceRequest::TopK { query, .. } => {
            index.try_rank_topk_with(query, ctx).map(ServiceReply::TopK)
        }
    };
    result.unwrap_or_else(|e| ServiceReply::Error(e.to_string()))
}

/// The cost counters of a reply (zero for errors).
pub fn reply_stats(reply: &ServiceReply) -> QueryStats {
    match reply {
        ServiceReply::Range(out) => out.stats,
        ServiceReply::TopK(out) => out.stats,
        ServiceReply::Error(_) => QueryStats::default(),
    }
}

fn tree_call(
    tree: &UTree<2, utree::DiskStore>,
    request: &ServiceRequest<2>,
    ctx: &mut QueryCtx,
) -> QueryStats {
    match request {
        ServiceRequest::Range { query, .. } => tree.try_execute_with(query, ctx).map(|o| o.stats),
        ServiceRequest::TopK { query, .. } => tree.try_rank_topk_with(query, ctx).map(|o| o.stats),
    }
    .unwrap_or_default()
}

/// Kernel-only cost of one Monte-Carlo sample for each index, timed by
/// calling `MonteCarlo::estimate_with` on the index's own objects against
/// its own query regions (pairs that partially overlap, so nothing
/// short-circuits). Indexes hold different pdf kinds, whose kernels cost
/// differently.
pub fn kernel_ns_per_sample(data: &[IndexData], reads: &[Read], n1: usize) -> Vec<f64> {
    (0..data.len())
        .map(|ix| {
            let objs = &data[ix].bulk;
            let mut pairs: Vec<(usize, Rect<2>)> = Vec::new();
            for r in reads.iter().filter(|r| r.index == ix).take(64) {
                let region = match &r.request {
                    ServiceRequest::Range { query, .. } => *query.region(),
                    ServiceRequest::TopK { query, .. } => *query.region(),
                };
                pairs.extend(
                    objs.iter()
                        .enumerate()
                        .filter(|(_, o)| {
                            let mbr = o.mbr();
                            mbr.intersects(&region) && !region.contains_rect(&mbr)
                        })
                        .take(4)
                        .map(|(j, _)| (j, region)),
                );
            }
            if pairs.is_empty() {
                return 0.0;
            }
            let mc = MonteCarlo::new(n1);
            let mut scratch = RefineScratch::new();
            let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(7);
            let mut pass = |scratch: &mut RefineScratch| {
                let mut acc = 0.0;
                for &(j, region) in &pairs {
                    let prepared = PreparedPdf::new(&objs[j].pdf);
                    acc += mc.estimate_with(&prepared, &region, &mut rng, scratch);
                }
                std::hint::black_box(acc);
            };
            // One untimed pass warms caches; the median of nine timed
            // passes is robust to interference on a shared machine.
            pass(&mut scratch);
            let mut per_sample: Vec<f64> = (0..9)
                .map(|_| {
                    scratch.reset_samples();
                    let start = Instant::now();
                    pass(&mut scratch);
                    start.elapsed().as_nanos() as f64 / scratch.samples().max(1) as f64
                })
                .collect();
            per_sample.sort_by(f64::total_cmp);
            per_sample[per_sample.len() / 2]
        })
        .collect()
}

/// What the traced replays measured.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Requests replayed per pass.
    pub queries: usize,
    /// Range requests among them.
    pub ranges: usize,
    /// Top-k requests among them.
    pub topks: usize,
    /// Sum of k over the top-k requests.
    pub sum_k: usize,
    /// Summed counters of the range requests (traced sharded pass).
    pub range_stats: QueryStats,
    /// Summed counters of the top-k requests (traced sharded pass).
    pub topk_stats: QueryStats,
    /// Summed sharded call time of the traced sharded pass.
    pub exec_ns: u64,
    /// Estimated kernel time of the traced sharded pass.
    pub sampling_ns: u64,
    /// Samples of the traced sharded pass (weights the kernel cost).
    pub samples: u64,
    /// Pool and backend counter growth over the traced sharded pass.
    pub io: Io,
    /// Wall time of the untraced pass.
    pub untraced_wall_ns: u64,
    /// Wall time of the traced sharded pass.
    pub traced_wall_ns: u64,
    /// Sharded call duration per request (per-shard pass).
    pub scatter_ns: Vec<u64>,
    /// Per-shard `UTree` call durations per request (per-shard pass).
    pub shard_ns: Vec<Vec<u64>>,
    /// Answers of the untraced, then of the traced sharded pass (to check).
    pub replies: Vec<Answer>,
}

/// Adds the program-measured parts of a query call as derived spans:
/// filter and refinement, and within refinement the estimated sampling.
fn derive_query(trace: &mut Trace, call: SpanId, st: &QueryStats, sampling_ns: u64) {
    let parts = trace.derive(
        call,
        &[
            ("filter", nanos_u64(st.filter_nanos)),
            ("refine", nanos_u64(st.refine_nanos)),
        ],
    );
    trace.derive(parts[1], &[("sampling", sampling_ns)]);
}

fn index_name(request: &ServiceRequest<2>) -> &str {
    match request {
        ServiceRequest::Range { index, .. } | ServiceRequest::TopK { index, .. } => index,
    }
}

/// Replays `reads` single-threaded on the driver thread, three times:
/// untraced through the sharded index (the tracing-overhead baseline);
/// traced through the sharded index (the per-layer counters and times);
/// and traced calling, per request, the sharded index and each shard's
/// `UTree` directly, alternating which goes first so neither gains from
/// the pages the other just loaded — shard merge time is the sharded call
/// minus the per-shard calls. `kernel_ns[i]` is index `i`'s cost per
/// sample.
pub fn replay(
    catalog: &IndexCatalog<2>,
    reads: &[Read],
    trace: &mut Trace,
    kernel_ns: &[f64],
) -> Replay {
    let mut out = Replay {
        queries: reads.len(),
        ..Replay::default()
    };
    let mut ctx = QueryCtx::new();
    let sampling =
        |r: &Read, st: &QueryStats| (st.refined_samples as f64 * kernel_ns[r.index]) as u64;

    let t0 = Instant::now();
    for r in reads {
        out.replies
            .push(Answer::from(&execute(catalog, &r.request, &mut ctx)));
    }
    out.untraced_wall_ns = nanos_u64(t0.elapsed().as_nanos());

    let pass = trace.begin("replay", None);
    let io0 = Io::snapshot(catalog);
    let t0 = Instant::now();
    for (i, r) in reads.iter().enumerate() {
        let call = trace.begin("shard.scatter", Some(i as u64));
        let t = Instant::now();
        let reply = execute(catalog, &r.request, &mut ctx);
        out.exec_ns += nanos_u64(t.elapsed().as_nanos());
        trace.end(call);
        let st = reply_stats(&reply);
        derive_query(trace, call, &st, sampling(r, &st));
        out.sampling_ns += sampling(r, &st);
        out.samples += st.refined_samples;
        match &r.request {
            ServiceRequest::Range { .. } => {
                out.ranges += 1;
                out.range_stats += &st;
            }
            ServiceRequest::TopK { query, .. } => {
                out.topks += 1;
                out.sum_k += query.k();
                out.topk_stats += &st;
            }
        }
        out.replies.push(Answer::from(&reply));
    }
    out.traced_wall_ns = nanos_u64(t0.elapsed().as_nanos());
    out.io = Io::snapshot(catalog).since(&io0);
    trace.end(pass);

    let pass = trace.begin("replay.shards", None);
    for (i, r) in reads.iter().enumerate() {
        let Some(index) = catalog.get(index_name(&r.request)) else {
            continue;
        };
        let req = trace.begin("request", Some(i as u64));
        let mut per_shard = Vec::with_capacity(index.shard_count());
        let mut shards = |trace: &mut Trace, ctx: &mut QueryCtx| {
            for tree in index.shards() {
                let call = trace.begin("tree.call", Some(i as u64));
                let t = Instant::now();
                let st = tree_call(tree, &r.request, ctx);
                per_shard.push(nanos_u64(t.elapsed().as_nanos()));
                trace.end(call);
                derive_query(trace, call, &st, sampling(r, &st));
            }
        };
        if i % 2 == 1 {
            shards(trace, &mut ctx);
        }
        let call = trace.begin("shard.scatter", Some(i as u64));
        let t = Instant::now();
        let st = reply_stats(&execute(catalog, &r.request, &mut ctx));
        out.scatter_ns.push(nanos_u64(t.elapsed().as_nanos()));
        trace.end(call);
        derive_query(trace, call, &st, sampling(r, &st));
        if i % 2 == 0 {
            shards(trace, &mut ctx);
        }
        trace.end(req);
        out.shard_ns.push(per_shard);
    }
    trace.end(pass);
    out
}
