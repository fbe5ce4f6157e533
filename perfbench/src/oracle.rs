//! Checking replies against the single-tree oracle.
//!
//! Range answers must agree exactly on the validated matches (those
//! decisions are entry-local). Monte-Carlo range refinement, however,
//! consumes one generator per refinement pass in heap-page order, so a
//! shard and the oracle draw different samples for the same object, and
//! near the threshold they may legitimately disagree. A refined match on
//! which the two disagree is accepted only when the object's exact
//! appearance probability `p` (reference quadrature) makes an estimate on
//! the other side of the threshold `p_q` plausible: by the Chernoff bound
//! an n-sample estimate crosses `p_q` with probability at most
//! `exp(−n·KL(p_q‖p))`, and a disagreement is refused when that bound is
//! below 1e-12.
//!
//! Top-k refinement draws from a per-`(seed, id)` stream, so an object
//! both answers rank carries bit-identical probabilities. The *sets* can
//! still differ at the k-th place: best-first ranking prunes with exact
//! filter bounds while ranking by estimates, and an estimate may exceed
//! its object's exact upper bound, so which borderline object survives
//! depends on the order a traversal meets them — one tree or several
//! shards. An object in only one answer is accepted under the same
//! Chernoff rule, with the k-th probability in place of `p_q`.

use crate::data::IndexData;
use std::collections::HashMap;
use uncertain_pdf::{appearance_reference, ObjectPdf};
use utree::{Provenance, RefineMode, ServiceReply, ServiceRequest};

/// `−ln` of the largest crossing probability that is still refused.
pub const LN_FALSE_ALARM: f64 = 27.631; // ln(1e12)

/// The part of a reply the oracle checks, kept compactly so a run can
/// hold thousands of them.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Range answer: validated and refined ids, each ascending.
    Range {
        /// Ids certified by the filter rules.
        validated: Vec<u64>,
        /// Ids that qualified in refinement.
        refined: Vec<u64>,
    },
    /// Top-k answer: `(id, probability bits)`, best first.
    TopK(Vec<(u64, u64)>),
    /// The request failed.
    Error(String),
}

impl From<&ServiceReply> for Answer {
    fn from(reply: &ServiceReply) -> Self {
        match reply {
            ServiceReply::Range(out) => {
                let mut validated = Vec::new();
                let mut refined = Vec::new();
                for m in &out.matches {
                    match m.provenance {
                        Provenance::Validated => validated.push(m.id),
                        Provenance::Refined { .. } => refined.push(m.id),
                    }
                }
                validated.sort_unstable();
                refined.sort_unstable();
                Answer::Range { validated, refined }
            }
            ServiceReply::TopK(out) => {
                Answer::TopK(out.matches.iter().map(|m| (m.id, m.p.to_bits())).collect())
            }
            ServiceReply::Error(e) => Answer::Error(e.clone()),
        }
    }
}

/// Samples an estimate is worth for the Chernoff bound. Uniform pdfs give
/// a plain binomial proportion. The constrained Gaussian weights samples
/// by density; with weights within a factor `e^{r²/2σ²}` of each other
/// (7.4 at r = 2σ), each sample counts for at least 1/8 of one.
fn effective_samples(pdf: &ObjectPdf<2>, n1: f64) -> f64 {
    match pdf {
        ObjectPdf::ConGauBall { radius, sigma, .. } => {
            n1 / (radius * radius / (2.0 * sigma * sigma)).exp().ceil()
        }
        ObjectPdf::Histogram(_) => n1 / 8.0,
        _ => n1,
    }
}

/// Bernoulli Kullback–Leibler divergence `KL(q ‖ p)`.
fn kl(q: f64, p: f64) -> f64 {
    let p = p.clamp(1e-15, 1.0 - 1e-15);
    let term = |a: f64, b: f64| if a <= 0.0 { 0.0 } else { a * (a / b).ln() };
    term(q, p) + term(1.0 - q, 1.0 - p)
}

/// Whether an `n`-sample estimate of an object with exact probability `p`
/// can plausibly land on the other side of `pq` (see the module docs).
pub fn plausible_disagreement(p: f64, pq: f64, n: f64) -> bool {
    n * kl(pq, p) <= LN_FALSE_ALARM
}

/// Samples behind one estimate (unbounded for exact quadrature).
fn samples(mode: RefineMode) -> f64 {
    match mode {
        RefineMode::MonteCarlo { n1, .. } => n1 as f64,
        RefineMode::Reference { .. } => f64::INFINITY,
    }
}

fn sorted_ids(v: &[(u64, u64)]) -> Vec<u64> {
    let mut ids: Vec<u64> = v.iter().map(|m| m.0).collect();
    ids.sort_unstable();
    ids
}

fn symmetric_difference(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out: Vec<u64> = a
        .iter()
        .filter(|x| b.binary_search(x).is_err())
        .copied()
        .collect();
    out.extend(b.iter().filter(|x| a.binary_search(x).is_err()));
    out
}

/// Exact appearance probabilities already computed, keyed by
/// `(read position, object id)` — reads repeat, so each is integrated once.
pub type ExactCache = HashMap<(usize, u64), f64>;

/// Checks the answer to read `read` against the oracle's; `Err` describes
/// the first mismatch.
pub fn check(
    read: usize,
    request: &ServiceRequest<2>,
    got: &Answer,
    want: &Answer,
    data: &IndexData,
    exact: &mut ExactCache,
) -> Result<(), String> {
    match (request, got, want) {
        (_, Answer::Error(e), _) => Err(format!("error reply: {e}")),
        (_, _, Answer::Error(e)) => Err(format!("oracle failed: {e}")),
        (ServiceRequest::TopK { query, .. }, Answer::TopK(g), Answer::TopK(w)) => {
            if g == w {
                return Ok(());
            }
            let ids = |v: &[(u64, u64)]| v.iter().map(|m| m.0).collect::<Vec<_>>();
            let differs = || format!("top-k differs: got {:?}, oracle {:?}", ids(g), ids(w));
            if g.len() != w.len() {
                return Err(differs());
            }
            // Shared objects carry identical estimates.
            for (id, p) in g {
                if w.iter().any(|(wid, wp)| wid == id && wp != p) {
                    return Err(differs());
                }
            }
            let kth = g
                .iter()
                .chain(w)
                .map(|&(_, bits)| f64::from_bits(bits))
                .fold(1.0, f64::min);
            let (gs, ws) = (sorted_ids(g), sorted_ids(w));
            for id in symmetric_difference(&gs, &ws) {
                let obj = data
                    .object(id)
                    .ok_or_else(|| format!("reply names unknown object {id}"))?;
                let p = *exact
                    .entry((read, id))
                    .or_insert_with(|| appearance_reference(&obj.pdf, query.region(), 1e-6));
                let n1 = samples(query.refine_mode());
                if !plausible_disagreement(p, kth, effective_samples(&obj.pdf, n1)) {
                    return Err(format!(
                        "{}; object {id} has exact probability {p:.4}",
                        differs()
                    ));
                }
            }
            Ok(())
        }
        (
            ServiceRequest::Range { query, .. },
            Answer::Range {
                validated: gv,
                refined: gr,
            },
            Answer::Range {
                validated: wv,
                refined: wr,
            },
        ) => {
            if gv.windows(2).any(|w| w[0] == w[1]) || gr.windows(2).any(|w| w[0] == w[1]) {
                return Err("duplicate match in reply".to_string());
            }
            if gv != wv {
                return Err(format!(
                    "validated matches differ: got {gv:?}, oracle {wv:?}"
                ));
            }
            let n1 = samples(query.refine_mode());
            let pq = query.threshold();
            for id in symmetric_difference(gr, wr) {
                let obj = data
                    .object(id)
                    .ok_or_else(|| format!("reply names unknown object {id}"))?;
                let p = *exact
                    .entry((read, id))
                    .or_insert_with(|| appearance_reference(&obj.pdf, query.region(), 1e-6));
                if !plausible_disagreement(p, pq, effective_samples(&obj.pdf, n1)) {
                    return Err(format!(
                        "object {id}: exact probability {p:.4} vs threshold {pq:.4} \
                         (n1 {n1}) yet reply and oracle disagree"
                    ));
                }
            }
            Ok(())
        }
        _ => Err("reply kind does not match the request".to_string()),
    }
}

/// Drops one match the oracle checks exactly — a top-k match or a
/// validated range match — from the first answer that has one (the
/// `--inject wrong-answer` self-test). Returns `true` when it found one.
pub fn corrupt(answers: &mut [Answer]) -> bool {
    for answer in answers.iter_mut() {
        match answer {
            Answer::TopK(m) if !m.is_empty() => {
                m.pop();
                return true;
            }
            Answer::Range { validated, .. } if !validated.is_empty() => {
                validated.pop();
                return true;
            }
            _ => {}
        }
    }
    false
}
