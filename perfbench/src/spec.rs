//! The fixed workload definitions. Rates are absolute and never derived
//! from a run's own measurements, so a faster program shows as lower
//! latency at the same offered load.

/// Which generator an index's objects come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// LB-like clustered points, uniform-disk pdfs (radius 250).
    Lb,
    /// CA-like coastal points, constrained-Gaussian pdfs (radius 250, σ 125).
    Ca,
}

/// One named index of a workload's catalog.
#[derive(Debug, Clone, Copy)]
pub struct IndexSpec {
    /// Catalog name.
    pub name: &'static str,
    /// Object generator.
    pub dataset: Dataset,
    /// Objects bulk-loaded at setup.
    pub objects: usize,
    /// Hash shards.
    pub shards: usize,
    /// First object id (keeps ids unique across the catalog).
    pub id_base: u64,
}

/// Whether the measured phases serve reads or apply writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed-loop read capacity, then open-loop read latency.
    Serve,
    /// Closed-loop write capacity, then open-loop write latency.
    Ingest,
}

/// A workload: catalog shape, request mix and offered load.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name given on the command line.
    pub name: &'static str,
    /// What the measured phases do.
    pub kind: Kind,
    /// Indexes of the catalog (writes go to the first).
    pub indexes: &'static [IndexSpec],
    /// Buffer-pool frames of every segment pool (index and heap, per shard).
    pub frames: usize,
    /// Side of every square query region.
    pub qs: f64,
    /// Monte-Carlo samples per appearance probability.
    pub n1: usize,
    /// Interleave top-k (k 1–10) requests with range requests.
    pub topk: bool,
    /// Distinct read requests generated per run.
    pub distinct_reads: usize,
    /// Requests per closed-loop `QueryService::serve` call.
    pub closed_batch: usize,
    /// Requests of the warm-up pass that ends setup.
    pub warmup: usize,
    /// Open-loop read arrivals per second (serve workloads, and the
    /// service phase of every traced run).
    pub read_rate: f64,
    /// Open-loop write-stream arrivals per second (ingest; traced write
    /// phase of every workload).
    pub write_rate: f64,
    /// Share of the ingest stream that is range reads.
    pub read_share: f64,
    /// Share of the ingest stream's writes that are inserts (rest delete).
    pub insert_share: f64,
    /// Full setups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

/// Writes per `IndexCatalog::commit` in a closed loop, and the most per
/// commit in an open loop.
pub const GROUP: usize = 16;

/// `serve_warm`: every page resident, refinement-bound.
pub const SERVE_WARM: WorkloadSpec = WorkloadSpec {
    name: "serve_warm",
    kind: Kind::Serve,
    indexes: &[
        IndexSpec {
            name: "lb",
            dataset: Dataset::Lb,
            objects: 5_300,
            shards: 4,
            id_base: 0,
        },
        IndexSpec {
            name: "ca",
            dataset: Dataset::Ca,
            objects: 5_300,
            shards: 2,
            id_base: 1_000_000,
        },
    ],
    frames: 4_096,
    qs: 1_200.0,
    n1: 2_000,
    topk: true,
    distinct_reads: 1_200,
    closed_batch: 150,
    warmup: 200,
    read_rate: 75.0,
    write_rate: 400.0,
    read_share: 0.0,
    insert_share: 0.5,
    setup_reps: 5,
};

/// `serve_cold`: working set far larger than the pools, filter- and
/// fetch-bound.
pub const SERVE_COLD: WorkloadSpec = WorkloadSpec {
    name: "serve_cold",
    kind: Kind::Serve,
    indexes: &[IndexSpec {
        name: "cold",
        dataset: Dataset::Lb,
        objects: 20_000,
        shards: 2,
        id_base: 0,
    }],
    frames: 32,
    qs: 1_200.0,
    n1: 64,
    topk: false,
    distinct_reads: 4_000,
    closed_batch: 800,
    warmup: 200,
    read_rate: 250.0,
    write_rate: 400.0,
    read_share: 0.0,
    insert_share: 0.5,
    setup_reps: 5,
};

/// `ingest`: durable single-writer inserts and deletes with a minority of
/// reads.
pub const INGEST: WorkloadSpec = WorkloadSpec {
    name: "ingest",
    kind: Kind::Ingest,
    indexes: &[IndexSpec {
        name: "ing",
        dataset: Dataset::Lb,
        objects: 10_000,
        shards: 2,
        id_base: 0,
    }],
    frames: 256,
    qs: 1_200.0,
    n1: 500,
    topk: false,
    distinct_reads: 600,
    closed_batch: 300,
    warmup: 100,
    read_rate: 250.0,
    write_rate: 200.0,
    read_share: 0.15,
    insert_share: 0.6,
    setup_reps: 5,
};

/// `smoke`: a miniature of `serve_warm` that runs in seconds, even in a
/// debug build — for the package's own tests, not for measurement.
pub const SMOKE: WorkloadSpec = WorkloadSpec {
    name: "smoke",
    kind: Kind::Serve,
    indexes: &[
        IndexSpec {
            name: "lb",
            dataset: Dataset::Lb,
            objects: 500,
            shards: 2,
            id_base: 0,
        },
        IndexSpec {
            name: "ca",
            dataset: Dataset::Ca,
            objects: 500,
            shards: 1,
            id_base: 1_000_000,
        },
    ],
    frames: 64,
    qs: 1_200.0,
    n1: 100,
    topk: true,
    distinct_reads: 300,
    closed_batch: 100,
    warmup: 50,
    read_rate: 1_000.0,
    write_rate: 1_000.0,
    read_share: 0.0,
    insert_share: 0.5,
    setup_reps: 1,
};

/// The measured workloads, in command-line order.
pub const ALL: [WorkloadSpec; 3] = [SERVE_WARM, SERVE_COLD, INGEST];

/// Looks a workload (or `smoke`) up by name.
pub fn by_name(name: &str) -> Option<WorkloadSpec> {
    ALL.iter().chain([&SMOKE]).copied().find(|w| w.name == name)
}
