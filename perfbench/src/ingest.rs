//! The write path: a seeded stream of inserts, deletes and reads applied
//! by one writer through `ShardedIndex` and made durable by
//! `IndexCatalog::commit`, plus the post-run checks that every
//! acknowledged write survived a reopen.

use crate::data::{mix, oracle_answer, oracle_tree, IndexData, Read};
use crate::open_loop::BatchExecutor;
use crate::oracle::{check, Answer, ExactCache};
use crate::serve::{execute, reply_stats};
use crate::setup::nanos_u64;
use crate::trace::Trace;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::Instant;
use utree::{IndexCatalog, InsertStats, ProbIndex, QueryCtx};

/// One operation of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Insert the pool object with this id.
    Insert(u64),
    /// Delete the live object with this id.
    Delete(u64),
    /// Serve the read with this position in the read list.
    Read(usize),
}

impl Op {
    /// Inserts and deletes are writes.
    pub fn is_write(&self) -> bool {
        !matches!(self, Op::Read(_))
    }
}

/// The seeded operation generator. Delete targets are drawn from the
/// objects live at that point of the stream, so the sequence depends only
/// on the seed and on how many operations came before.
pub struct Stream {
    rng: SmallRng,
    live: Vec<u64>,
    pool: Vec<u64>,
    next_new: usize,
    reads: usize,
    next_read: usize,
    read_share: f64,
    insert_share: f64,
}

impl Stream {
    /// A stream over `data` (bulk objects live, pool objects insertable)
    /// whose reads cycle through `reads` read positions.
    pub fn new(
        data: &IndexData,
        reads: usize,
        read_share: f64,
        insert_share: f64,
        seed: u64,
    ) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(mix(seed, 77)),
            live: data.bulk.iter().map(|o| o.id).collect(),
            pool: data.pool.iter().map(|o| o.id).collect(),
            next_new: 0,
            reads,
            next_read: 0,
            read_share,
            insert_share,
        }
    }

    /// Pool objects not yet inserted.
    pub fn pool_left(&self) -> usize {
        self.pool.len() - self.next_new
    }

    /// The next insert, if the pool has an object left.
    pub fn next_insert(&mut self) -> Option<Op> {
        let id = *self.pool.get(self.next_new)?;
        self.next_new += 1;
        self.live.push(id);
        Some(Op::Insert(id))
    }

    /// The next operation. Inserts fall back to deletes once the pool is
    /// used up (the phases size the pool so that never happens).
    pub fn next_op(&mut self) -> Op {
        if self.reads > 0 && self.rng.gen_bool(self.read_share) {
            let r = self.next_read % self.reads;
            self.next_read += 1;
            return Op::Read(r);
        }
        let insert = self.rng.gen_bool(self.insert_share) || self.live.is_empty();
        match insert.then(|| self.next_insert()).flatten() {
            Some(op) => op,
            None => {
                let at = self.rng.gen_range(0..self.live.len());
                Op::Delete(self.live.swap_remove(at))
            }
        }
    }
}

/// An executed operation, kept for the post-run oracle replay.
#[derive(Debug, Clone)]
pub struct Logged {
    /// The operation.
    pub op: Op,
    /// The read's answer.
    pub reply: Option<Answer>,
    /// The write was covered by a successful commit.
    pub acked: bool,
}

/// When an operation finished: a read when its reply was held, a write
/// when the commit covering it returned.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    /// Completion instant.
    pub at: Instant,
    /// Whether the operation was a write.
    pub write: bool,
}

/// The single writer. Applies a batch in order and commits after every
/// `group` writes and at the end of the batch, so a closed loop that
/// hands it batches of exactly `group` writes commits in fixed groups and
/// an open loop commits whatever was due, at most `group` at a time.
pub struct Writer<'a> {
    cat: &'a mut IndexCatalog<2>,
    data: &'a IndexData,
    reads: &'a [Read],
    trace: &'a mut Trace,
    group: usize,
    ctx: QueryCtx,
    pending: Vec<usize>,
    /// Executed operations in order.
    pub log: Vec<Logged>,
    /// Failures seen while writing (failed deletes, commit errors).
    pub failures: Vec<String>,
    /// Duration of every commit.
    pub commit_ns: Vec<u64>,
    /// Duration of every insert.
    pub insert_ns: Vec<u64>,
    /// Duration of every delete.
    pub delete_ns: Vec<u64>,
    /// Duration of every read.
    pub read_ns: Vec<u64>,
    /// Summed `InsertStats` of the inserts.
    pub insert_stats: InsertStats,
    /// Time spent inside `execute` calls.
    pub busy_ns: u64,
}

impl<'a> Writer<'a> {
    /// A writer over the index `data.spec.name` of `cat`.
    pub fn new(
        cat: &'a mut IndexCatalog<2>,
        data: &'a IndexData,
        reads: &'a [Read],
        group: usize,
        trace: &'a mut Trace,
    ) -> Self {
        Self {
            cat,
            data,
            reads,
            trace,
            group,
            ctx: QueryCtx::new(),
            pending: Vec::new(),
            log: Vec::new(),
            failures: Vec::new(),
            commit_ns: Vec::new(),
            insert_ns: Vec::new(),
            delete_ns: Vec::new(),
            read_ns: Vec::new(),
            insert_stats: InsertStats::default(),
            busy_ns: 0,
        }
    }

    fn apply(&mut self, op: Op) {
        let name = self.data.spec.name;
        let mut reply = None;
        match op {
            Op::Insert(id) | Op::Delete(id) => {
                let Some(obj) = self.data.object(id) else {
                    self.failures
                        .push(format!("stream names unknown object {id}"));
                    return;
                };
                let Some(index) = self.cat.get_mut(name) else {
                    self.failures.push(format!("index {name} missing"));
                    return;
                };
                if let Op::Insert(_) = op {
                    let span = self.trace.begin("index.insert", Some(id));
                    let t = Instant::now();
                    let st = index.insert(obj);
                    self.insert_ns.push(nanos_u64(t.elapsed().as_nanos()));
                    self.trace.end(span);
                    self.trace.derive(
                        span,
                        &[
                            ("insert.pcr", nanos_u64(st.pcr_nanos)),
                            ("insert.cfb_fit", nanos_u64(st.lp_nanos)),
                        ],
                    );
                    self.insert_stats += &st;
                } else {
                    let span = self.trace.begin("index.delete", Some(id));
                    let t = Instant::now();
                    let found = index.delete(obj);
                    self.delete_ns.push(nanos_u64(t.elapsed().as_nanos()));
                    self.trace.end(span);
                    if !found {
                        self.failures
                            .push(format!("delete of live object {id} found nothing"));
                    }
                }
                self.pending.push(self.log.len());
            }
            Op::Read(r) => {
                let span = self.trace.begin("shard.scatter", Some(r as u64));
                let t = Instant::now();
                let out = execute(self.cat, &self.reads[r].request, &mut self.ctx);
                self.read_ns.push(nanos_u64(t.elapsed().as_nanos()));
                self.trace.end(span);
                let st = reply_stats(&out);
                self.trace.derive(
                    span,
                    &[
                        ("filter", nanos_u64(st.filter_nanos)),
                        ("refine", nanos_u64(st.refine_nanos)),
                    ],
                );
                reply = Some(Answer::from(&out));
            }
        }
        self.log.push(Logged {
            op,
            reply,
            acked: false,
        });
    }

    /// Commits the pending writes; on success they become acknowledged.
    pub fn commit(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let span = self.trace.begin("catalog.commit", None);
        let t = Instant::now();
        let result = self.cat.commit();
        self.commit_ns.push(nanos_u64(t.elapsed().as_nanos()));
        self.trace.end(span);
        match result {
            Ok(_) => {
                for &i in &self.pending {
                    self.log[i].acked = true;
                }
            }
            Err(e) => self.failures.push(format!(
                "commit of {} writes failed: {e}",
                self.pending.len()
            )),
        }
        self.pending.clear();
    }

    /// Commits what is pending, then checkpoints the catalog (folds the
    /// log into the segment files and truncates it).
    pub fn checkpoint(&mut self) -> std::io::Result<()> {
        self.commit();
        self.cat.checkpoint()
    }

    /// Applies `op` and marks it acknowledged without committing it, so
    /// the write is lost at the next reopen (the `--inject lost-write`
    /// self-test).
    pub fn inject_lost_write(&mut self, op: Op) {
        self.apply(op);
        if let Some(last) = self.log.last_mut() {
            last.acked = op.is_write();
        }
        self.pending.clear();
    }
}

impl BatchExecutor for Writer<'_> {
    type Request = Op;
    type Reply = Done;

    fn execute(&mut self, batch: Vec<Op>) -> Vec<Done> {
        let t0 = Instant::now();
        let mut done = Vec::with_capacity(batch.len());
        let mut waiting: Vec<usize> = Vec::new();
        for op in batch {
            self.apply(op);
            done.push(Done {
                at: Instant::now(),
                write: op.is_write(),
            });
            if op.is_write() {
                waiting.push(done.len() - 1);
            }
            if self.pending.len() >= self.group {
                self.commit();
                let at = Instant::now();
                for &w in &waiting {
                    done[w].at = at;
                }
                waiting.clear();
            }
        }
        self.commit();
        let at = Instant::now();
        for &w in &waiting {
            done[w].at = at;
        }
        self.busy_ns += nanos_u64(t0.elapsed().as_nanos());
        done
    }
}

/// Replays the log on an in-memory single-tree oracle (bulk objects
/// first) and checks every read reply against it at the point it was
/// served. Returns the oracle in its final state and the mismatches.
pub fn replay_oracle(
    data: &IndexData,
    reads: &[Read],
    log: &[Logged],
    exact: &mut ExactCache,
) -> (utree::UTree<2>, Vec<String>) {
    let mut oracle = oracle_tree(&data.bulk);
    let mut ctx = QueryCtx::new();
    let mut failures = Vec::new();
    for entry in log {
        match entry.op {
            Op::Insert(id) => {
                if let Some(obj) = data.object(id) {
                    oracle.insert(obj);
                }
            }
            Op::Delete(id) => {
                if let Some(obj) = data.object(id) {
                    oracle.delete(obj);
                }
            }
            Op::Read(r) => {
                let want = oracle_answer(&oracle, &reads[r].request, &mut ctx);
                if let Some(got) = &entry.reply {
                    if let Err(e) = check(r, &reads[r].request, got, &want, data, exact) {
                        failures.push(format!("ingest read {r}: {e}"));
                    }
                }
            }
        }
    }
    (oracle, failures)
}

/// The ids a reopened index holds.
pub fn stored_ids(cat: &IndexCatalog<2>, name: &str) -> BTreeSet<u64> {
    let mut ids = BTreeSet::new();
    if let Some(index) = cat.get(name) {
        for tree in index.shards() {
            tree.for_each_entry(|e| {
                ids.insert(e.id);
            });
        }
    }
    ids
}

/// The ids that must be present after all acknowledged writes.
pub fn expected_ids(data: &IndexData, log: &[Logged]) -> BTreeSet<u64> {
    let mut ids: BTreeSet<u64> = data.bulk.iter().map(|o| o.id).collect();
    for entry in log.iter().filter(|l| l.acked) {
        match entry.op {
            Op::Insert(id) => {
                ids.insert(id);
            }
            Op::Delete(id) => {
                ids.remove(&id);
            }
            Op::Read(_) => {}
        }
    }
    ids
}

/// Compares stored ids with the expected ones: every acknowledged insert
/// present, every acknowledged delete absent, nothing else. Returns the
/// number of wrong ids and a description.
pub fn check_ids(stored: &BTreeSet<u64>, expected: &BTreeSet<u64>) -> (usize, Vec<String>) {
    let lost: Vec<u64> = expected.difference(stored).copied().collect();
    let extra: Vec<u64> = stored.difference(expected).copied().collect();
    let mut out = Vec::new();
    if !lost.is_empty() {
        out.push(format!(
            "{} acknowledged objects missing after reopen, e.g. {:?}",
            lost.len(),
            &lost[..lost.len().min(5)]
        ));
    }
    if !extra.is_empty() {
        out.push(format!(
            "{} deleted or unknown objects present after reopen, e.g. {:?}",
            extra.len(),
            &extra[..extra.len().min(5)]
        ));
    }
    (lost.len() + extra.len(), out)
}
