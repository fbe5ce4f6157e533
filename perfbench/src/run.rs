//! One run of one workload: the untraced run measures the end-to-end
//! metrics, the traced run the per-layer ones. Both check every answer.

use crate::args::{Args, Inject};
use crate::data::{self, oracle_answer, IndexData, Read};
use crate::ingest::{self, Op, Stream, Writer};
use crate::open_loop::{run_open_loop, BatchExecutor, OpenLoopRun};
use crate::oracle::{check, corrupt, Answer, ExactCache};
use crate::report::Outcome;
use crate::serve::{self, closed_loop, execute, open_loop, replay, Replay, ServiceExec};
use crate::setup::{self, build_catalog, nproc, secs, Io, Res, SetupTimes};
use crate::spec::{Kind, WorkloadSpec, GROUP};
use crate::stats::{mean, median, percentile, ratio, samples_needed, sorted};
use crate::trace::Trace;
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use utree::{IndexCatalog, QueryCtx, UTree};

/// Share of `--seconds` given to the closed-loop slices of an untraced run
/// (the rest goes to the open-loop slices).
const CLOSED_SHARE: f64 = 0.3;
/// An untraced run alternates this many rounds of a closed-loop and an
/// open-loop slice. Throughput and p50 are medians over the rounds' own
/// figures, so a burst of interference that spans less than half of the
/// rounds does not move them (the shared machine's speed drifts over
/// seconds).
const ROUNDS: usize = 10;
/// Closed-loop write throughput is the median over windows of this many
/// commit groups.
const WINDOW_GROUPS: usize = 4;
/// Reads checked against the oracle after the final reopen.
const VERIFY_READS: usize = 64;
/// Writes of the traced write probe on serve workloads (one commit each,
/// so commit percentiles have enough samples).
const PROBE_WRITES: usize = 1_010;

/// A scratch directory removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only when no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Seeded inputs of one run.
struct Inputs {
    data: Vec<IndexData>,
    reads: Vec<Read>,
    answers: Vec<Answer>,
    exact: RefCell<ExactCache>,
}

impl Inputs {
    fn new(spec: &WorkloadSpec, seed: u64, pool: usize) -> Inputs {
        let data: Vec<IndexData> = spec
            .indexes
            .iter()
            .enumerate()
            .map(|(k, ix)| IndexData::generate(*ix, k, seed, if k == 0 { pool } else { 0 }))
            .collect();
        let reads = data::reads(spec, &data, seed);
        let trees: Vec<UTree<2>> = data.iter().map(|d| data::oracle_tree(&d.bulk)).collect();
        let answers = data::oracle_answers(&trees, &reads, nproc());
        Inputs {
            data,
            reads,
            answers,
            exact: RefCell::new(ExactCache::new()),
        }
    }

    /// Checks replies to reads `start, start+1, …` (cycling through the
    /// read list) against the precomputed oracle answers.
    fn check_cycle(&self, out: &mut Outcome, start: usize, replies: &[Answer], what: &str) {
        let n = self.reads.len();
        let exact = &mut self.exact.borrow_mut();
        let errors = replies
            .iter()
            .enumerate()
            .filter_map(|(j, reply)| {
                let i = (start + j) % n;
                let read = &self.reads[i];
                check(
                    i,
                    &read.request,
                    reply,
                    &self.answers[i],
                    &self.data[read.index],
                    exact,
                )
                .err()
                .map(|e| format!("{what} read {i}: {e}"))
            })
            .collect();
        out.count(replies.len() as u64, errors);
    }
}

/// Runs `args` (already validated) on `spec`.
pub fn run(args: &Args, spec: &WorkloadSpec) -> Res<Outcome> {
    let dir = args.work_dir.join(format!(
        "{}-{}-{}",
        spec.name,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir)?;
    let work = WorkDir(dir);
    let mut out = Outcome::default();
    record_meta(&mut out, args, spec);
    match (args.trace, spec.kind) {
        (false, Kind::Serve) => serve_untraced(args, spec, &work.0, &mut out)?,
        (false, Kind::Ingest) => ingest_untraced(args, spec, &work.0, &mut out)?,
        (true, _) => traced(args, spec, &work.0, &mut out)?,
    }
    Ok(out)
}

fn record_meta(out: &mut Outcome, args: &Args, spec: &WorkloadSpec) {
    out.meta("workload", spec.name);
    out.meta("seed", args.seed);
    out.meta("seconds", args.seconds);
    out.meta("trace", u8::from(args.trace));
    out.meta("nproc", nproc());
    out.meta("service_workers", nproc());
    out.meta("driver_threads", 1);
    out.meta("source_digest", &args.source_digest);
    out.meta(
        "build_profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    for ix in spec.indexes {
        out.meta(
            &format!("index.{}", ix.name),
            format!(
                "{:?} {} objects, {} shards",
                ix.dataset, ix.objects, ix.shards
            ),
        );
    }
    out.meta("frames_per_segment_pool", spec.frames);
    out.meta("qs", spec.qs);
    out.meta("n1", spec.n1);
    out.meta("read_rate_per_s", spec.read_rate);
    out.meta("write_rate_per_s", spec.write_rate);
    out.meta(
        "flush_policy",
        format!(
            "set_group_commit(1): every IndexCatalog::commit is fsynced; closed loop commits every {g} writes, open loop commits what is due, at most {g} writes",
            g = GROUP
        ),
    );
    if let Some(inject) = args.inject {
        out.meta("inject", format!("{inject:?}"));
    }
}

/// Runs `spec.setup_reps` full set-ups, keeping the last catalog open.
fn setups(
    spec: &WorkloadSpec,
    inputs: &Inputs,
    work: &Path,
    out: &mut Outcome,
    inject: Option<Inject>,
) -> Res<(IndexCatalog<2>, PathBuf, Vec<SetupTimes>)> {
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..spec.setup_reps {
        let dir = work.join(format!("setup{rep}"));
        let (cat, mut warm, t) = build_catalog(
            &dir,
            spec,
            &inputs.data,
            &inputs.reads,
            &mut Trace::new(false),
        )?;
        if inject == Some(Inject::WrongAnswer) && rep == 0 {
            corrupt(&mut warm);
        }
        inputs.check_cycle(out, 0, &warm, "warm-up");
        times.push(t);
        if rep + 1 == spec.setup_reps {
            kept = Some((cat, dir));
        } else {
            drop(cat);
            std::fs::remove_dir_all(&dir)?;
        }
    }
    let (cat, dir) = kept.ok_or("setup_reps must be at least 1")?;
    Ok((cat, dir, times))
}

fn record_layout(out: &mut Outcome, spec: &WorkloadSpec, cat: &IndexCatalog<2>) {
    let (node, heap) = setup::pages(cat);
    let pools = setup::pools(cat);
    out.meta("live_objects", setup::live_objects(cat));
    out.meta("index_pages", node);
    out.meta("heap_pages", heap);
    out.meta("segment_pools", pools);
    out.meta("pool_frames_total", pools * spec.frames);
}

/// Notes the share of machine CPU time the hypervisor stole while the
/// measured phases ran — the main source of run-to-run noise on a shared
/// virtual machine.
fn record_steal(out: &mut Outcome, before: Option<setup::CpuTicks>) {
    if let (Some(before), Some(now)) = (before, setup::CpuTicks::now()) {
        let pct = now.steal_pct_since(&before);
        out.meta("cpu_steal_pct_while_measuring", format!("{pct:.2}"));
        out.notes.push(format!(
            "cpu steal while measuring: {pct:.2}% of machine CPU time"
        ));
    }
}

fn ms_sorted(ns: impl Iterator<Item = u64>) -> Vec<f64> {
    sorted(ns.map(|n| n as f64 * 1e-6).collect())
}

fn pct(values: &[f64], p: f64, what: &str) -> Res<f64> {
    percentile(values, p).ok_or_else(|| {
        format!(
            "{what}: {} samples cannot support p{p} (needs {}); raise --seconds",
            values.len(),
            samples_needed(p)
        )
        .into()
    })
}

/// The end-to-end metrics, which every workload reports. The open-loop p99
/// is printed with them (see the run's notes) but is not one of them: on
/// `ingest`, fsync tails and CPU steal spread it between runs far wider
/// than any bound that would still catch a regression.
fn end_to_end(
    out: &mut Outcome,
    setup_s: f64,
    throughput: f64,
    p50: f64,
    disk_per_obj: f64,
) -> Res<()> {
    out.metric("setup_s", setup_s, "s");
    out.metric("throughput_ops_s", throughput, "1/s");
    out.metric("latency_p50_ms", p50, "ms");
    out.metric("disk_bytes_per_obj", disk_per_obj, "B");
    out.metric("peak_rss_mb", setup::peak_rss_mb()?, "MB");
    Ok(())
}

fn open_count(rate: f64, seconds: f64, what: &str) -> Res<usize> {
    let count = (rate * seconds).round() as usize;
    let needed = samples_needed(99.0);
    if count < needed {
        return Err(format!(
            "{what}: {count} arrivals at {rate}/s in {seconds:.1} s; p99 needs {needed} — raise --seconds"
        )
        .into());
    }
    Ok(count)
}

fn serve_untraced(args: &Args, spec: &WorkloadSpec, work: &Path, out: &mut Outcome) -> Res<()> {
    let s = args.seconds as f64;
    let inputs = Inputs::new(spec, args.seed, 0);
    let (cat, dir, times) = setups(spec, &inputs, work, out, args.inject)?;
    record_layout(out, spec, &cat);
    let disk_per_obj = setup::dir_bytes(&dir)? as f64 / setup::live_objects(&cat).max(1) as f64;

    let per_round =
        open_count(spec.read_rate, (1.0 - CLOSED_SHARE) * s, "open-loop reads")? / ROUNDS;
    let closed_budget = Duration::from_secs_f64(CLOSED_SHARE * s / ROUNDS as f64);
    let (mut round_qps, mut round_p50) = (Vec::new(), Vec::new());
    let (mut lat, mut lag, mut calls) = (Vec::new(), Vec::new(), 0);
    let mut off = Trace::new(false);
    // Closed-loop calls walk through the whole read list, so throughput
    // reflects the workload's request mix rather than one fixed sample.
    let mut cursor = 0;
    let ticks0 = setup::CpuTicks::now();
    for round in 0..ROUNDS {
        round_qps.push(closed_loop(
            &cat,
            &inputs.reads,
            &mut cursor,
            spec.closed_batch,
            closed_budget,
            |first, answers| inputs.check_cycle(out, first, answers, "closed-loop"),
        ));
        let first = round * per_round;
        let mut exec = ServiceExec::new(&cat, &mut off);
        let run = open_loop(&mut exec, &inputs.reads, first, per_round, spec.read_rate);
        drop(exec);
        inputs.check_cycle(out, first, &run.replies, "open-loop");
        let slice = ms_sorted(run.latency_ns.iter().copied());
        round_p50.push(pct(&slice, 50.0, "read latency of one round")?);
        lat.extend(run.latency_ns);
        lag.extend(run.lag_ns);
        calls += run.batch_sizes.len();
    }
    record_steal(out, ticks0);

    let lat = ms_sorted(lat.into_iter());
    let lag = ms_sorted(lag.into_iter());
    let setup_s = median(&times.iter().map(|t| t.total_s).collect::<Vec<_>>());
    let p50 = median(&round_p50);
    let p99 = pct(&lat, 99.0, "read latency")?;
    end_to_end(out, setup_s, median(&round_qps), p50, disk_per_obj)?;
    out.notes.push(format!(
        "{}: read_qps {:.1} 1/s (median over {ROUNDS} rounds of closed-loop serve calls of {} requests) | \
         open loop {} requests at {}/s: read_p50_ms {:.3} (median over rounds; pooled {:.3}), \
         read_p99_ms {:.3} (pooled), driver lag p99 {:.3} ms, {} serve calls",
        spec.name,
        median(&round_qps),
        spec.closed_batch,
        lat.len(),
        spec.read_rate,
        p50,
        pct(&lat, 50.0, "read latency")?,
        p99,
        pct(&lag, 99.0, "driver lag")?,
        calls
    ));
    out.meta("open_loop_requests", lat.len());
    Ok(())
}

/// Ingest pool: enough fresh objects for a closed loop running at up to
/// 3,000 operations a second plus the open-loop phase.
fn ingest_pool(spec: &WorkloadSpec, closed_s: f64, open_ops: usize) -> usize {
    ((3_000.0 * closed_s + open_ops as f64) * spec.insert_share).ceil() as usize + 64
}

/// Write and read latencies (ms, sorted) of an open-loop write phase.
fn stream_latencies(run: &OpenLoopRun<ingest::Done>, interval: Duration) -> (Vec<f64>, Vec<f64>) {
    let mut writes = Vec::new();
    let mut reads = Vec::new();
    for (i, d) in run.replies.iter().enumerate() {
        let due = run.start + interval * u32::try_from(i).unwrap_or(u32::MAX);
        let ms = d.at.saturating_duration_since(due).as_secs_f64() * 1e3;
        if d.write {
            writes.push(ms);
        } else {
            reads.push(ms);
        }
    }
    (sorted(writes), sorted(reads))
}

/// Reopens the catalog, checks that exactly the acknowledged writes
/// survived, replays the oracle over the logged stream and checks reads
/// against it. Returns the reopen time.
fn verify_after_reopen(
    spec: &WorkloadSpec,
    inputs: &Inputs,
    dir: &Path,
    log: &[ingest::Logged],
    trace: &mut Trace,
    out: &mut Outcome,
) -> Res<f64> {
    let data0 = &inputs.data[0];
    let span = trace.begin("catalog.open", None);
    let t0 = Instant::now();
    let cat = IndexCatalog::<2>::open(dir, spec.frames)?;
    let open_s = secs(t0);
    trace.end(span);

    let expected = ingest::expected_ids(data0, log);
    let stored = ingest::stored_ids(&cat, data0.spec.name);
    let (wrong, errors) = ingest::check_ids(&stored, &expected);
    out.failed += wrong as u64;
    out.note_failures(errors);

    let exact = &mut inputs.exact.borrow_mut();
    let (oracle, errors) = ingest::replay_oracle(data0, &inputs.reads, log, exact);
    let stream_reads = log.iter().filter(|l| l.reply.is_some()).count() as u64;
    out.count(stream_reads, errors);

    let mut ctx = QueryCtx::new();
    let mut errors = Vec::new();
    let verify: Vec<(usize, &Read)> = inputs
        .reads
        .iter()
        .enumerate()
        .filter(|(_, r)| r.index == 0)
        .take(VERIFY_READS)
        .collect();
    for &(i, r) in &verify {
        let got = Answer::from(&execute(&cat, &r.request, &mut ctx));
        let want = oracle_answer(&oracle, &r.request, &mut ctx);
        if let Err(e) = check(i, &r.request, &got, &want, data0, exact) {
            errors.push(format!("read after reopen: {e}"));
        }
    }
    out.count(verify.len() as u64, errors);
    Ok(open_s)
}

fn ingest_untraced(args: &Args, spec: &WorkloadSpec, work: &Path, out: &mut Outcome) -> Res<()> {
    let s = args.seconds as f64;
    let closed_s = CLOSED_SHARE * s;
    let per_round = open_count(
        spec.write_rate,
        (1.0 - CLOSED_SHARE) * s,
        "open-loop writes",
    )? / ROUNDS;
    let inputs = Inputs::new(
        spec,
        args.seed,
        ingest_pool(spec, closed_s, per_round * ROUNDS),
    );
    let (mut cat, dir, times) = setups(spec, &inputs, work, out, args.inject)?;
    record_layout(out, spec, &cat);
    let data0 = &inputs.data[0];
    let mut stream = Stream::new(
        data0,
        inputs.reads.len(),
        spec.read_share,
        spec.insert_share,
        args.seed,
    );
    let mut off = Trace::new(false);
    let mut writer = Writer::new(&mut cat, data0, &inputs.reads, GROUP, &mut off);
    let interval = Duration::from_secs_f64(1.0 / spec.write_rate);
    let (mut rates, mut round_rates, mut round_p50) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wlat, mut rlat) = (Vec::new(), Vec::new());
    let (mut closed_commits, mut open_commits) = (0, 0);
    let ticks0 = setup::CpuTicks::now();
    for _ in 0..ROUNDS {
        // Closed loop: batches of exactly `group` writes (reads ride along).
        let commits0 = writer.commit_ns.len();
        let windows0 = rates.len();
        let start = Instant::now();
        while (rates.len() == windows0 || start.elapsed().as_secs_f64() < closed_s / ROUNDS as f64)
            && stream.pool_left() >= WINDOW_GROUPS * GROUP
        {
            let window = Instant::now();
            for _ in 0..WINDOW_GROUPS {
                let mut batch = Vec::new();
                while batch.iter().filter(|o: &&Op| o.is_write()).count() < GROUP {
                    batch.push(stream.next_op());
                }
                writer.execute(batch);
            }
            rates.push((WINDOW_GROUPS * GROUP) as f64 / secs(window));
        }
        round_rates.push(median(&rates[windows0..]));
        closed_commits += writer.commit_ns.len() - commits0;
        // Folds the log into the segments outside any timed region, so
        // the log holds at most one open-loop slice of writes.
        writer.checkpoint()?;

        // Open loop at the fixed rate.
        let commits0 = writer.commit_ns.len();
        let run = run_open_loop(&mut writer, per_round, interval, |_| stream.next_op());
        let (w, r) = stream_latencies(&run, interval);
        round_p50.push(pct(&w, 50.0, "write latency of one round")?);
        wlat.extend(w);
        rlat.extend(r);
        open_commits += writer.commit_ns.len() - commits0;
    }
    record_steal(out, ticks0);
    if rates.len() < 3 {
        return Err(format!(
            "closed-loop writes: only {} windows of {WINDOW_GROUPS} commits; raise --seconds",
            rates.len()
        )
        .into());
    }
    if args.inject == Some(Inject::LostWrite) {
        let op = stream.next_insert().ok_or("no pool object left to lose")?;
        writer.inject_lost_write(op);
    }
    let log = std::mem::take(&mut writer.log);
    let write_errors = std::mem::take(&mut writer.failures);
    drop(writer);
    let writes = log.iter().filter(|l| l.op.is_write()).count() as u64;
    out.count(writes, write_errors);
    let disk_per_obj = setup::dir_bytes(&dir)? as f64 / setup::live_objects(&cat).max(1) as f64;
    drop(cat);

    let reopen_s = verify_after_reopen(spec, &inputs, &dir, &log, &mut off, out)?;

    let wlat = sorted(wlat);
    let rlat = sorted(rlat);
    let setup_s = median(&times.iter().map(|t| t.total_s).collect::<Vec<_>>());
    let p50 = median(&round_p50);
    let p99 = pct(&wlat, 99.0, "write latency")?;
    end_to_end(out, setup_s, median(&round_rates), p50, disk_per_obj)?;
    out.notes.push(format!(
        "{}: write_ops_s {:.1} 1/s (median over {ROUNDS} rounds of {} windows of {WINDOW_GROUPS} commits of {} writes; \
         {} commits) | open loop {} ops at {}/s: write_p50_ms {:.3} (median over rounds; pooled {:.3}), \
         write_p99_ms {:.3} (pooled), read p50 {:.3} ms over {} reads, {} commits | reopen {:.3} s",
        spec.name,
        median(&round_rates),
        rates.len(),
        GROUP,
        closed_commits,
        per_round * ROUNDS,
        spec.write_rate,
        p50,
        pct(&wlat, 50.0, "write latency")?,
        p99,
        percentile(&rlat, 50.0).unwrap_or(f64::NAN),
        rlat.len(),
        open_commits,
        reopen_s
    ));
    out.meta("open_loop_ops", per_round * ROUNDS);
    out.meta("closed_loop_windows", rates.len());
    Ok(())
}

fn replay_metrics(out: &mut Outcome, rp: &Replay) {
    let q = rp.queries as f64;
    let mut all = rp.range_stats;
    all += &rp.topk_stats;
    let exec_ns = rp.exec_ns as f64;
    let shard_calls: Vec<f64> = rp.shard_ns.iter().flatten().map(|&n| n as f64).collect();
    let merge: Vec<f64> = rp
        .scatter_ns
        .iter()
        .zip(&rp.shard_ns)
        .map(|(&s, parts)| s as f64 - parts.iter().map(|&p| p as f64).sum::<f64>())
        .collect();
    let skew: Vec<f64> = rp
        .shard_ns
        .iter()
        .filter(|p| !p.is_empty())
        .map(|p| {
            let v: Vec<f64> = p.iter().map(|&x| x as f64).collect();
            ratio(v.iter().copied().fold(0.0, f64::max), mean(&v))
        })
        .collect();
    out.metric("shard.exec_us_mean", mean(&shard_calls) * 1e-3, "us");
    out.metric("shard.merge_us_mean", mean(&merge) * 1e-3, "us");
    out.metric("shard.skew", mean(&skew), "ratio");
    out.metric(
        "filter.us_per_query",
        all.filter_nanos as f64 * 1e-3 / q,
        "us",
    );
    out.metric(
        "filter.node_reads_per_query",
        all.node_reads as f64 / q,
        "count",
    );
    out.metric("filter.visited_per_query", all.visited as f64 / q, "count");
    out.metric(
        "filter.candidates_per_query",
        all.candidates as f64 / q,
        "count",
    );
    out.metric(
        "filter.decided_ratio",
        ratio((all.pruned + all.validated) as f64, all.visited as f64),
        "ratio",
    );
    out.metric(
        "rank.prob_computations_per_query",
        ratio(rp.topk_stats.prob_computations as f64, rp.topks as f64),
        "count",
    );
    out.metric(
        "rank.probes_per_k",
        ratio(rp.topk_stats.prob_computations as f64, rp.sum_k as f64),
        "count",
    );
    out.metric(
        "refine.us_per_query",
        all.refine_nanos as f64 * 1e-3 / q,
        "us",
    );
    out.metric(
        "refine.samples_per_query",
        all.refined_samples as f64 / q,
        "count",
    );
    out.metric(
        "refine.ns_per_sample",
        ratio(all.refine_nanos as f64, all.refined_samples as f64),
        "ns",
    );
    let r = &rp.range_stats;
    out.metric(
        "refine.qualify_ratio",
        ratio(
            r.results.saturating_sub(r.validated) as f64,
            r.candidates as f64,
        ),
        "ratio",
    );
    out.metric(
        "refine.exec_share",
        ratio(all.refine_nanos as f64, exec_ns),
        "ratio",
    );
    out.metric(
        "kernel.ns_per_sample",
        ratio(rp.sampling_ns as f64, rp.samples as f64),
        "ns",
    );
    out.metric(
        "refine.sampling_share",
        ratio(rp.sampling_ns as f64, exec_ns),
        "ratio",
    );
    out.metric(
        "query.filter_fetch_over_sampling",
        ratio(
            all.filter_nanos as f64 + all.refine_nanos as f64 - rp.sampling_ns as f64,
            rp.sampling_ns as f64,
        ),
        "ratio",
    );
    let io = &rp.io;
    out.metric(
        "buffer.node_hit_rate",
        ratio(io.node_hits as f64, (io.node_hits + io.node_misses) as f64),
        "ratio",
    );
    out.metric(
        "buffer.heap_hit_rate",
        ratio(io.heap_hits as f64, (io.heap_hits + io.heap_misses) as f64),
        "ratio",
    );
    out.metric(
        "buffer.misses_per_query",
        (io.node_misses + io.heap_misses) as f64 / q,
        "count",
    );
    out.metric("disk.reads_per_query", io.backend_reads as f64 / q, "count");
    out.metric("heap.reads_per_query", all.heap_reads as f64 / q, "count");
    out.metric(
        "trace.overhead_pct",
        100.0
            * ratio(
                rp.traced_wall_ns as f64 - rp.untraced_wall_ns as f64,
                rp.untraced_wall_ns as f64,
            ),
        "%",
    );
}

fn traced(args: &Args, spec: &WorkloadSpec, work: &Path, out: &mut Outcome) -> Res<()> {
    let s = args.seconds as f64;
    let ingest = spec.kind == Kind::Ingest;
    let write_ops = if ingest {
        // Enough writes (and commits) for the p99s below.
        ((spec.write_rate * 0.35 * s).round() as usize).max(1_600)
    } else {
        PROBE_WRITES
    };
    let inputs = Inputs::new(spec, args.seed, write_ops);
    let dir = work.join("traced");
    let mut trace = Trace::new(true);

    let (mut cat, mut warm, t) =
        build_catalog(&dir, spec, &inputs.data, &inputs.reads, &mut trace)?;
    if args.inject == Some(Inject::WrongAnswer) {
        corrupt(&mut warm);
    }
    inputs.check_cycle(out, 0, &warm, "warm-up");
    record_layout(out, spec, &cat);
    let (node_pages, heap_pages) = setup::pages(&cat);
    out.metric("build.pcr_s", t.pcr_s, "s");
    out.metric("build.cfb_fit_s", t.cfb_s, "s");
    out.metric("build.rest_s", t.bulk_s - t.pcr_s - t.cfb_s, "s");
    out.metric("build.flush_s", t.flush_s, "s");
    out.metric("build.open_s", t.open_s, "s");
    out.metric("build.warmup_s", t.warmup_s, "s");
    out.metric("build.pages", (node_pages + heap_pages) as f64, "pages");

    // Service phase: open loop through QueryService::serve.
    let count = (spec.read_rate * 0.25 * s)
        .round()
        .max(samples_needed(99.0) as f64) as usize;
    let phase = trace.begin("phase.service", None);
    let (run, reports) = {
        let mut exec = ServiceExec::new(&cat, &mut trace);
        let run = open_loop(&mut exec, &inputs.reads, 0, count, spec.read_rate);
        (run, std::mem::take(&mut exec.reports))
    };
    trace.end(phase);
    inputs.check_cycle(out, 0, &run.replies, "service-phase");
    let layer = serve::service_layer(&run, &reports)
        .ok_or("service phase too short for its percentiles; raise --seconds")?;
    out.metric("service.latency_ms_p50", layer.latency_ms_p50, "ms");
    out.metric("service.latency_ms_p99", layer.latency_ms_p99, "ms");
    out.metric("service.calls", layer.calls, "count");
    out.metric("service.batch_mean", layer.batch_mean, "count");
    out.metric("driver.lag_ms_p99", layer.lag_ms_p99, "ms");
    let lat = ms_sorted(run.latency_ns.iter().copied());
    out.metric(
        "driver.read_latency_ms_p99",
        pct(&lat, 99.0, "read latency")?,
        "ms",
    );

    // Replays: untraced baseline, traced sharded calls, traced per-shard calls.
    let kernel_ns = serve::kernel_ns_per_sample(&inputs.data, &inputs.reads, spec.n1);
    let n = ((spec.read_rate * 0.15 * s).round() as usize).clamp(200, inputs.reads.len());
    let rp = replay(&cat, &inputs.reads[..n], &mut trace, &kernel_ns);
    inputs.check_cycle(out, 0, &rp.replies[..n], "untraced replay");
    inputs.check_cycle(out, 0, &rp.replies[n..], "traced replay");
    replay_metrics(out, &rp);

    // Writes: the ingest stream (ingest) or a one-commit-per-write probe.
    let data0 = &inputs.data[0];
    let (group, reads_in_stream, read_share) = if ingest {
        (GROUP, inputs.reads.len(), spec.read_share)
    } else {
        (1, 0, 0.0)
    };
    let mut stream = Stream::new(
        data0,
        reads_in_stream,
        read_share,
        spec.insert_share,
        args.seed,
    );
    let wal = dir.join("wal.log");
    let wal0 = std::fs::metadata(&wal)?.len();
    let io0 = Io::snapshot(&cat);
    let interval = Duration::from_secs_f64(1.0 / spec.write_rate);
    let phase = trace.begin("phase.writes", None);
    let mut writer = Writer::new(&mut cat, data0, &inputs.reads, group, &mut trace);
    let run = run_open_loop(&mut writer, write_ops, interval, |_| stream.next_op());
    let (write_lat, _) = stream_latencies(&run, interval);
    if args.inject == Some(Inject::LostWrite) {
        let op = stream.next_insert().ok_or("no pool object left to lose")?;
        writer.inject_lost_write(op);
    }
    let log = std::mem::take(&mut writer.log);
    let write_errors = std::mem::take(&mut writer.failures);
    let commit_ms = ms_sorted(writer.commit_ns.iter().copied());
    let insert_us: Vec<f64> = writer.insert_ns.iter().map(|&n| n as f64 * 1e-3).collect();
    let delete_us: Vec<f64> = writer.delete_ns.iter().map(|&n| n as f64 * 1e-3).collect();
    let st = writer.insert_stats;
    let parts_ns: u64 = writer.insert_ns.iter().sum::<u64>()
        + writer.delete_ns.iter().sum::<u64>()
        + writer.read_ns.iter().sum::<u64>()
        + writer.commit_ns.iter().sum::<u64>();
    let busy_ns = writer.busy_ns;
    drop(writer);
    trace.end(phase);
    let writes = log.iter().filter(|l| l.op.is_write()).count();
    out.count(writes as u64, write_errors);
    let io = Io::snapshot(&cat).since(&io0);
    let wal_growth = std::fs::metadata(&wal)?.len().saturating_sub(wal0);
    let inserts = insert_us.len() as f64;
    let pcr_us = ratio(st.pcr_nanos as f64 * 1e-3, inserts);
    let cfb_us = ratio(st.lp_nanos as f64 * 1e-3, inserts);
    out.metric("insert.us_mean", mean(&insert_us), "us");
    out.metric("insert.pcr_us", pcr_us, "us");
    out.metric("insert.cfb_fit_us", cfb_us, "us");
    out.metric("insert.rest_us", mean(&insert_us) - pcr_us - cfb_us, "us");
    out.metric(
        "insert.node_reads",
        ratio(st.io_reads as f64, inserts),
        "count",
    );
    out.metric(
        "insert.node_writes",
        ratio(st.io_writes as f64, inserts),
        "count",
    );
    out.metric("delete.us_mean", mean(&delete_us), "us");
    out.metric(
        "driver.write_latency_ms_p99",
        pct(&write_lat, 99.0, "write latency")?,
        "ms",
    );
    out.metric(
        "commit.ms_p50",
        pct(&commit_ms, 50.0, "commit latency")?,
        "ms",
    );
    out.metric(
        "commit.ms_p99",
        pct(&commit_ms, 99.0, "commit latency")?,
        "ms",
    );
    out.metric(
        "commit.writes_per_commit",
        ratio(writes as f64, commit_ms.len() as f64),
        "count",
    );
    out.metric(
        "wal.bytes_per_write",
        ratio(wal_growth as f64, writes as f64),
        "B",
    );
    out.metric(
        "disk.writes_per_write",
        ratio(io.backend_writes as f64, writes as f64),
        "count",
    );
    out.metric(
        "write.parts_residual_pct",
        100.0 * ratio((busy_ns as f64 - parts_ns as f64).abs(), busy_ns as f64),
        "%",
    );
    drop(cat);

    let reopen_s = verify_after_reopen(spec, &inputs, &dir, &log, &mut trace, out)?;
    out.metric("recovery.open_s", reopen_s, "s");

    // Self times: every span's self time, summed, must equal the traced
    // wall time (the top-level spans' durations).
    let self_total: u64 = trace.self_times().iter().sum();
    let wall: u64 = trace
        .spans()
        .iter()
        .filter(|sp| sp.parent.is_none())
        .map(|sp| sp.dur_ns())
        .sum();
    out.metric(
        "trace.self_residual_pct",
        100.0 * ratio((wall as f64 - self_total as f64).abs(), wall as f64),
        "%",
    );
    out.metric("trace.spans", trace.spans().len() as f64, "count");
    out.notes.push(format!(
        "{}: traced wall {:.3} s over {} spans; self time by layer:",
        spec.name,
        wall as f64 * 1e-9,
        trace.spans().len()
    ));
    for (layer, ns) in trace.self_by_layer() {
        out.notes.push(format!(
            "  {:<48} {:>10.3} ms  {:>5.1}%",
            layer,
            ns as f64 * 1e-6,
            100.0 * ratio(ns as f64, wall as f64)
        ));
    }
    let spans_path = args
        .out_dir
        .join(format!("spans-{}-{}.jsonl", spec.name, args.seed));
    trace.write_jsonl(&spans_path)?;
    out.meta("spans_file", spans_path.display());
    out.meta("service_phase_requests", count);
    out.meta("replay_requests", n);
    out.meta("write_phase_ops", write_ops);
    out.meta("write_phase_group", group);
    Ok(())
}
