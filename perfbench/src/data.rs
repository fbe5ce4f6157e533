//! Seeded inputs: objects, read requests, and the single-tree oracle.

use crate::oracle::Answer;
use crate::spec::{Dataset, IndexSpec, WorkloadSpec};
use datagen::{mixture_points, ClusterSpec, CA_SIGMA, DOMAIN, LB_CA_RADIUS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rstar_base::TreeConfig;
use uncertain_geom::Rect;
use uncertain_pdf::UncertainObject;
use utree::{Query, QueryCtx, Refine, ServiceReply, ServiceRequest, UCatalog, UTree};

/// Catalog values every index (and its oracle) is built with.
pub fn ucatalog() -> UCatalog {
    UCatalog::uniform(10)
}

/// Derives an independent stream seed from the run seed and a purpose tag
/// (SplitMix64 finalizer).
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The map every run of a dataset shares: cluster centres, spreads and
/// weights follow `datagen`'s LB and CA recipes (`lb_points`/`ca_points`
/// with seeds 1 and 2), drawn from a fixed seed. The run seed then picks
/// the objects and queries but not how dense the map is, so runs with
/// different seeds measure the same workload.
fn layout(dataset: Dataset) -> Vec<ClusterSpec> {
    let range = |rng: &mut SmallRng, lo: f64, hi: f64| rng.gen_range(lo..hi);
    let mut clusters = Vec::new();
    match dataset {
        Dataset::Lb => {
            let rng = &mut SmallRng::seed_from_u64(1 ^ 0x4C42);
            for _ in 0..45 {
                clusters.push(ClusterSpec {
                    center: [range(rng, 0.0, DOMAIN), range(rng, 0.0, DOMAIN)],
                    sigma: [range(rng, 120.0, 450.0), range(rng, 120.0, 450.0)],
                    weight: range(rng, 0.5, 3.0),
                });
            }
            let urban: f64 = clusters.iter().map(|c| c.weight).sum();
            clusters.push(ClusterSpec {
                center: [DOMAIN / 2.0, DOMAIN / 2.0],
                sigma: [DOMAIN / 2.5, DOMAIN / 2.5],
                weight: urban / 9.0,
            });
        }
        Dataset::Ca => {
            let rng = &mut SmallRng::seed_from_u64(2 ^ 0x4341);
            for k in 0..30 {
                let along = k as f64 / 29.0 * DOMAIN;
                let off = range(rng, -600.0, 600.0);
                clusters.push(ClusterSpec {
                    center: [
                        (along + off).clamp(0.0, DOMAIN),
                        (DOMAIN - along + off).clamp(0.0, DOMAIN),
                    ],
                    sigma: [range(rng, 150.0, 500.0), range(rng, 150.0, 500.0)],
                    weight: range(rng, 1.0, 4.0),
                });
            }
            for _ in 0..15 {
                clusters.push(ClusterSpec {
                    center: [range(rng, 0.0, DOMAIN), range(rng, 0.0, DOMAIN)],
                    sigma: [range(rng, 200.0, 700.0), range(rng, 200.0, 700.0)],
                    weight: range(rng, 0.3, 1.2),
                });
            }
        }
    }
    clusters
}

/// `n` objects of the index's dataset with ids from `first_id`: points
/// drawn from the dataset's fixed [`layout`] with `seed`, converted as the
/// paper converts LB (uniform disks) and CA (constrained Gaussians).
fn generate(ix: &IndexSpec, n: usize, seed: u64, first_id: u64) -> Vec<UncertainObject<2>> {
    let points = mixture_points(n, &layout(ix.dataset), &mut SmallRng::seed_from_u64(seed));
    let raw = match ix.dataset {
        Dataset::Lb => datagen::to_uniform_objects(&points, LB_CA_RADIUS),
        Dataset::Ca => datagen::to_congau_objects(&points, LB_CA_RADIUS, CA_SIGMA),
    };
    raw.into_iter()
        .enumerate()
        .map(|(i, o)| UncertainObject::new(first_id + i as u64, o.pdf))
        .collect()
}

/// One index's objects: the bulk-loaded set and a pool of fresh objects
/// for inserts (generated from a separate stream, so the bulk set does not
/// depend on how many inserts a run may need).
#[derive(Debug, Clone)]
pub struct IndexData {
    /// The index definition.
    pub spec: IndexSpec,
    /// Objects bulk-loaded at setup.
    pub bulk: Vec<UncertainObject<2>>,
    /// Objects never loaded; inserts draw from here in order.
    pub pool: Vec<UncertainObject<2>>,
}

impl IndexData {
    /// Generates the index's objects for run seed `seed`.
    pub fn generate(spec: IndexSpec, k: usize, seed: u64, pool: usize) -> Self {
        let bulk = generate(&spec, spec.objects, mix(seed, 10 + k as u64), spec.id_base);
        let pool = generate(
            &spec,
            pool,
            mix(seed, 20 + k as u64),
            spec.id_base + spec.objects as u64,
        );
        Self { spec, bulk, pool }
    }

    /// The object with `id`, if it belongs to this index.
    pub fn object(&self, id: u64) -> Option<&UncertainObject<2>> {
        let off = id.checked_sub(self.spec.id_base)? as usize;
        if off < self.bulk.len() {
            self.bulk.get(off)
        } else {
            self.pool.get(off - self.bulk.len())
        }
    }
}

/// A read request plus the index (position in the spec) it targets.
#[derive(Debug, Clone)]
pub struct Read {
    /// Position of the target index in the workload spec.
    pub index: usize,
    /// The request as the service receives it.
    pub request: ServiceRequest<2>,
}

/// `count` read requests: query squares of side `qs` centred on objects of
/// the target index, thresholds uniform in [0.05, 0.95], k uniform in
/// 1..=10; indexes alternate, and (when the workload has top-k) kinds
/// alternate per index.
pub fn reads(spec: &WorkloadSpec, data: &[IndexData], seed: u64) -> Vec<Read> {
    let mut rng = SmallRng::seed_from_u64(mix(seed, 1));
    let n_idx = data.len();
    (0..spec.distinct_reads)
        .map(|i| {
            let index = i % n_idx;
            let objs = &data[index].bulk;
            let center = objs[rng.gen_range(0..objs.len())].mbr().center();
            let region = Rect::cube(&center, spec.qs);
            let mc_seed = mix(seed, 1_100_000 + i as u64);
            let name = data[index].spec.name.to_string();
            let topk = spec.topk && (i / n_idx) % 2 == 1;
            let request = if topk {
                let k = rng.gen_range(1..=10usize);
                ServiceRequest::TopK {
                    index: name,
                    query: Query::range(region)
                        .top(k)
                        .refine(Refine::monte_carlo(spec.n1, mc_seed))
                        .build()
                        .expect("k >= 1 and n1 >= 1 make a valid ranking query"),
                }
            } else {
                let pq = 0.05 + 0.9 * rng.gen::<f64>();
                ServiceRequest::Range {
                    index: name,
                    query: Query::range(region)
                        .threshold(pq)
                        .refine(Refine::monte_carlo(spec.n1, mc_seed))
                        .build()
                        .expect("thresholds in [0.05, 0.95] make a valid query"),
                }
            };
            Read { index, request }
        })
        .collect()
}

/// An in-memory single-tree oracle over one index's objects.
pub fn oracle_tree(objs: &[UncertainObject<2>]) -> UTree<2> {
    let mut tree = UTree::with_config(ucatalog(), TreeConfig::default());
    tree.bulk_load(objs);
    tree
}

/// The oracle's answer to `request`.
pub fn oracle_answer(tree: &UTree<2>, request: &ServiceRequest<2>, ctx: &mut QueryCtx) -> Answer {
    let reply = match request {
        ServiceRequest::Range { query, .. } => {
            tree.try_execute_with(query, ctx).map(ServiceReply::Range)
        }
        ServiceRequest::TopK { query, .. } => {
            tree.try_rank_topk_with(query, ctx).map(ServiceReply::TopK)
        }
    };
    Answer::from(&reply.unwrap_or_else(|e| ServiceReply::Error(e.to_string())))
}

/// Oracle answers for every read, computed on `threads` threads (outside
/// any timed region).
pub fn oracle_answers(trees: &[UTree<2>], reads: &[Read], threads: usize) -> Vec<Answer> {
    let threads = threads.max(1);
    let chunk = reads.len().div_ceil(threads).max(1);
    let mut out: Vec<Answer> = Vec::with_capacity(reads.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = reads
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut ctx = QueryCtx::new();
                    part.iter()
                        .map(|r| oracle_answer(&trees[r.index], &r.request, &mut ctx))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("oracle threads do not panic"));
        }
    });
    out
}
