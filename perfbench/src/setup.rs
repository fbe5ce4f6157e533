//! Catalog set-up through the public path — create, bulk-load, flush,
//! reopen with recovery, warm up — plus the storage-side probes (I/O
//! counters, bytes on disk, peak memory).

use crate::data::{ucatalog, IndexData, Read};
use crate::oracle::Answer;
use crate::spec::WorkloadSpec;
use crate::trace::Trace;
use page_store::PageStore;
use rstar_base::TreeConfig;
use std::error::Error;
use std::path::Path;
use std::time::Instant;
use utree::{IndexCatalog, InsertStats, ProbIndex, QueryService};

/// Result alias of the benchmark's fallible steps.
pub type Res<T> = Result<T, Box<dyn Error>>;

/// Admission batch cap of every `QueryService` the benchmark builds.
pub const MAX_BATCH: usize = 16;

/// Worker threads: one per core the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Where one set-up spent its time.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// The whole set-up, warm-up included.
    pub total_s: f64,
    /// Bulk loads (all indexes).
    pub bulk_s: f64,
    /// PCR computation inside the bulk loads (`InsertStats`).
    pub pcr_s: f64,
    /// CFB fitting inside the bulk loads (`InsertStats`).
    pub cfb_s: f64,
    /// `IndexCatalog::flush`.
    pub flush_s: f64,
    /// `IndexCatalog::open` (replays the log).
    pub open_s: f64,
    /// The warm-up pass.
    pub warmup_s: f64,
}

/// Creates, bulk-loads, flushes and reopens a catalog in `dir`, then serves
/// the first `spec.warmup` reads once. Returns the open catalog, the
/// warm-up replies and the timings.
pub fn build_catalog(
    dir: &Path,
    spec: &WorkloadSpec,
    data: &[IndexData],
    reads: &[Read],
    trace: &mut Trace,
) -> Res<(IndexCatalog<2>, Vec<Answer>, SetupTimes)> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let mut t = SetupTimes::default();
    let start = Instant::now();
    let root = trace.begin("setup", None);

    let s = trace.begin("catalog.create", None);
    let mut cat = IndexCatalog::<2>::create(dir, spec.frames)?;
    for ix in data {
        cat.create_index(
            ix.spec.name,
            ucatalog(),
            TreeConfig::default(),
            ix.spec.shards,
        )?;
    }
    trace.end(s);

    for ix in data {
        let s = trace.begin("catalog.bulk_load", None);
        let t0 = Instant::now();
        let index = cat
            .get_mut(ix.spec.name)
            .ok_or("index vanished after create_index")?;
        let st: InsertStats = index.bulk_load(&ix.bulk);
        t.bulk_s += secs(t0);
        trace.end(s);
        trace.derive(
            s,
            &[
                ("build.pcr", nanos_u64(st.pcr_nanos)),
                ("build.cfb_fit", nanos_u64(st.lp_nanos)),
            ],
        );
        t.pcr_s += st.pcr_nanos as f64 * 1e-9;
        t.cfb_s += st.lp_nanos as f64 * 1e-9;
    }

    let s = trace.begin("catalog.flush", None);
    let t0 = Instant::now();
    cat.flush()?;
    t.flush_s = secs(t0);
    trace.end(s);
    drop(cat);

    let s = trace.begin("catalog.open", None);
    let t0 = Instant::now();
    let mut cat = IndexCatalog::<2>::open(dir, spec.frames)?;
    // Every commit is fsynced: the durable default, stated explicitly.
    cat.set_group_commit(1);
    t.open_s = secs(t0);
    trace.end(s);

    let s = trace.begin("service.serve", None);
    let t0 = Instant::now();
    let warm: Vec<_> = reads[..spec.warmup.min(reads.len())]
        .iter()
        .map(|r| r.request.clone())
        .collect();
    let (replies, _) = QueryService::new(nproc(), MAX_BATCH).serve(&cat, warm);
    t.warmup_s = secs(t0);
    trace.end(s);

    t.total_s = secs(start);
    trace.end(root);
    Ok((cat, replies.iter().map(Answer::from).collect(), t))
}

/// Saturating `u128` → `u64` nanoseconds.
pub fn nanos_u64(n: u128) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Summed I/O counters of every segment pool of a catalog.
#[derive(Debug, Clone, Copy, Default)]
pub struct Io {
    /// Logical index-page reads (pool level).
    pub node_reads: u64,
    /// Index-page pool hits.
    pub node_hits: u64,
    /// Index-page pool misses.
    pub node_misses: u64,
    /// Logical heap-page reads (pool level).
    pub heap_reads: u64,
    /// Heap-page pool hits.
    pub heap_hits: u64,
    /// Heap-page pool misses.
    pub heap_misses: u64,
    /// Physical reads that reached the pools' backends.
    pub backend_reads: u64,
    /// Physical writes that reached the pools' backends.
    pub backend_writes: u64,
}

impl Io {
    /// Counter snapshot over all indexes and shards.
    pub fn snapshot(cat: &IndexCatalog<2>) -> Io {
        let mut io = Io::default();
        for name in cat.names() {
            let Some(index) = cat.get(name) else { continue };
            for tree in index.shards() {
                let node = tree.node_store();
                let heap = tree.heap().file();
                io.node_reads += node.stats().reads();
                io.node_hits += node.stats().cache_hits();
                io.node_misses += node.stats().cache_misses();
                io.heap_reads += heap.stats().reads();
                io.heap_hits += heap.stats().cache_hits();
                io.heap_misses += heap.stats().cache_misses();
                for pool in [node, heap] {
                    io.backend_reads += pool.backend_stats().reads();
                    io.backend_writes += pool.backend_stats().writes();
                }
            }
        }
        io
    }

    /// Counter growth from `before` to `self`.
    pub fn since(&self, before: &Io) -> Io {
        Io {
            node_reads: self.node_reads - before.node_reads,
            node_hits: self.node_hits - before.node_hits,
            node_misses: self.node_misses - before.node_misses,
            heap_reads: self.heap_reads - before.heap_reads,
            heap_hits: self.heap_hits - before.heap_hits,
            heap_misses: self.heap_misses - before.heap_misses,
            backend_reads: self.backend_reads - before.backend_reads,
            backend_writes: self.backend_writes - before.backend_writes,
        }
    }
}

/// `(index pages, heap pages)` live across all segments of a catalog.
pub fn pages(cat: &IndexCatalog<2>) -> (usize, usize) {
    let mut node = 0;
    let mut heap = 0;
    for name in cat.names() {
        if let Some(index) = cat.get(name) {
            for tree in index.shards() {
                node += tree.node_store().live_pages();
                heap += tree.heap().file().live_pages();
            }
        }
    }
    (node, heap)
}

/// Segment pools of a catalog (two per shard) — with `frames` each, the
/// catalog can cache `pools × frames` pages.
pub fn pools(cat: &IndexCatalog<2>) -> usize {
    cat.defs().map(|d| 2 * d.shard_count).sum()
}

/// Live objects across all indexes.
pub fn live_objects(cat: &IndexCatalog<2>) -> usize {
    cat.names()
        .iter()
        .filter_map(|n| cat.get(n))
        .map(|i| i.len())
        .sum()
}

/// Bytes of all regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> Res<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_dir() {
            total += dir_bytes(&entry.path())?;
        } else {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Machine-wide CPU tick counters from `/proc/stat` (`None` where the
/// file is unavailable), to report how much CPU the hypervisor took away
/// while a run measured.
#[derive(Debug, Clone, Copy)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Current counters.
    pub fn now() -> Option<CpuTicks> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        Some(CpuTicks {
            steal: *fields.get(7)?,
            total: fields.iter().sum(),
        })
    }

    /// Percentage of CPU time stolen since `before`.
    pub fn steal_pct_since(&self, before: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(before.total).max(1);
        100.0 * self.steal.saturating_sub(before.steal) as f64 / total as f64
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()?;
    Ok(kb / 1024.0)
}
