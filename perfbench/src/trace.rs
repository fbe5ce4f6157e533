//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's calls into each layer's public functions;
//! nothing inside the program is instrumented. Where the program itself
//! measures a phase inside one call (`QueryStats::filter_nanos`,
//! `InsertStats::lp_nanos`, …) the recorder adds a *derived* child span of
//! that length, laid end to end from the parent's start, so the parent's
//! self time becomes "the call minus the parts the program accounted
//! for". Spans are recorded on the driver thread only, so children never
//! overlap and self times sum to the root's wall time.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name; [`layer_of`] maps it to a layer.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request (or write) the span belongs to.
    pub request: Option<u64>,
    /// `true` when the length comes from a program counter, not a clock
    /// read around a call.
    pub derived: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// The recorder. A disabled recorder ignores every call.
#[derive(Debug)]
pub struct Trace {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    /// A recorder that records (`on`) or ignores everything.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: Option<u64>) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
            derived: false,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    /// Closes `id` (and anything left open inside it).
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Adds derived children to the closed span `parent`: each
    /// `(name, nanos)` part is laid after the previous one from the
    /// parent's start and clipped to the parent's end. Returns the ids of
    /// the children in order.
    pub fn derive(&mut self, parent: SpanId, parts: &[(&'static str, u64)]) -> Vec<SpanId> {
        let Some(parent) = parent else {
            return vec![None; parts.len()];
        };
        let (mut at, end, request) = {
            let p = &self.spans[parent];
            (p.start_ns, p.end_ns, p.request)
        };
        let mut ids = Vec::with_capacity(parts.len());
        for &(name, nanos) in parts {
            let stop = at.saturating_add(nanos).min(end);
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: stop,
                parent: Some(parent),
                request,
                derived: true,
            });
            ids.push(Some(self.spans.len() - 1));
            at = stop;
        }
        ids
    }

    /// Duration of a closed span.
    pub fn dur_ns(&self, id: SpanId) -> u64 {
        id.map_or(0, |i| self.spans[i].dur_ns())
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (clipped to it).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut iv: Vec<(u64, u64)> = children[i]
                    .iter()
                    .map(|&c| {
                        let c = &self.spans[c];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                iv.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (a, b) in iv {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Self time summed per layer (see [`layer_of`]), in nanoseconds.
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(layer_of(s.name)).or_insert(0) += t;
        }
        out
    }

    /// Writes one JSON object per span (`id`, `name`, `layer`, `parent`,
    /// `request`, `start_ns`, `end_ns`, `self_ns`, `derived`).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","layer":"{}","parent":{},"request":{},"start_ns":{},"end_ns":{},"self_ns":{self_ns},"derived":{}}}"#,
                s.name,
                layer_of(s.name),
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
                s.start_ns,
                s.end_ns,
                s.derived
            )?;
        }
        out.flush()
    }
}

/// The layer (module) a span name charges its self time to.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "catalog.create" => "core::catalog_store",
        "catalog.flush" | "catalog.commit" => "core::catalog_store+store::wal",
        "catalog.open" => "core::catalog_store+store::wal(recovery)",
        "build.pcr" | "insert.pcr" => "core::pcr",
        "build.cfb_fit" | "insert.cfb_fit" => "core::cfb+lp",
        "catalog.bulk_load" => "rstar::bulk+store(pages)",
        "index.insert" | "index.delete" => "core::tree+rstar(insert/delete)",
        "service.serve" => "core::service",
        "shard.scatter" => "core::shard",
        "tree.call" => "core::tree(per-shard call)",
        "filter" => "core::filter+tree+store::buffer",
        "refine" => "core::query+store::heap",
        "sampling" => "pdf::kernel",
        "idle" => "bench(idle until due)",
        _ => "bench",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let mut t = Trace::new(true);
        let root = t.begin("run", None);
        let a = t.begin("shard.scatter", Some(1));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        t.derive(a, &[("filter", 500_000), ("refine", 700_000)]);
        let b = t.begin("catalog.commit", None);
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.end(b);
        t.end(root);
        let total: u64 = t.self_times().iter().sum();
        assert_eq!(total, t.dur_ns(root));
        let by_layer = t.self_by_layer();
        assert_eq!(by_layer["core::filter+tree+store::buffer"], 500_000);
        assert_eq!(by_layer["core::query+store::heap"], 700_000);
    }

    #[test]
    fn derived_parts_are_clipped_to_the_parent() {
        let mut t = Trace::new(true);
        let a = t.begin("tree.call", None);
        t.end(a);
        let dur = t.dur_ns(a);
        let ids = t.derive(a, &[("filter", dur + 1_000_000)]);
        assert_eq!(t.dur_ns(ids[0]), dur);
        assert_eq!(t.self_times()[0], 0);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut t = Trace::new(false);
        let a = t.begin("run", None);
        t.end(a);
        assert!(t.derive(a, &[("filter", 5)]).iter().all(Option::is_none));
        assert!(t.spans().is_empty());
    }
}
