//! The open-loop load generator.
//!
//! Arrivals are evenly spaced at a fixed absolute rate and never depend
//! on completions. One driver thread owns the schedule: when the next
//! arrival is due it hands *every* request whose arrival time has passed
//! to the executor as one batch and blocks until the batch is answered.
//! Latency runs from each request's **scheduled** arrival until the
//! driver holds its reply, so a stall delays — and is charged to — every
//! request scheduled behind it (no coordinated omission). How late the
//! driver submitted each request relative to its schedule is recorded as
//! lag.

use std::time::{Duration, Instant};

/// Something that answers a batch of requests, replies in request order.
pub trait BatchExecutor {
    /// One request.
    type Request;
    /// One reply.
    type Reply;
    /// Answers `batch`, returning exactly one reply per request, in order.
    fn execute(&mut self, batch: Vec<Self::Request>) -> Vec<Self::Reply>;
}

/// What one open-loop phase measured.
#[derive(Debug)]
pub struct OpenLoopRun<R> {
    /// Replies in schedule order.
    pub replies: Vec<R>,
    /// Scheduled arrival → reply held by the driver, per request.
    pub latency_ns: Vec<u64>,
    /// Scheduled arrival → handed to the executor, per request.
    pub lag_ns: Vec<u64>,
    /// Size of each executor call.
    pub batch_sizes: Vec<usize>,
    /// Wall time of the whole phase.
    pub wall_ns: u64,
    /// Scheduled arrival of request 0; request `i` is due at
    /// `start + i · interval`.
    pub start: Instant,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `count` requests at one arrival every `interval`; `make(i)` builds
/// request `i`. See the module docs for the timing rules.
pub fn run_open_loop<E: BatchExecutor>(
    exec: &mut E,
    count: usize,
    interval: Duration,
    mut make: impl FnMut(usize) -> E::Request,
) -> OpenLoopRun<E::Reply> {
    let start = Instant::now();
    let due = |i: usize| start + interval * u32::try_from(i).unwrap_or(u32::MAX);
    let mut run = OpenLoopRun {
        replies: Vec::with_capacity(count),
        latency_ns: Vec::with_capacity(count),
        lag_ns: Vec::with_capacity(count),
        batch_sizes: Vec::new(),
        wall_ns: 0,
        start,
    };
    let mut next = 0;
    while next < count {
        let now = Instant::now();
        if due(next) > now {
            std::thread::sleep(due(next) - now);
        }
        let submit = Instant::now();
        let first = next;
        while next < count && due(next) <= submit {
            next += 1;
        }
        let batch: Vec<E::Request> = (first..next).map(&mut make).collect();
        for i in first..next {
            run.lag_ns.push(nanos(submit - due(i)));
        }
        run.batch_sizes.push(next - first);
        let replies = exec.execute(batch);
        let held = Instant::now();
        assert_eq!(replies.len(), next - first, "executor lost replies");
        for i in first..next {
            run.latency_ns.push(nanos(held - due(i)));
        }
        run.replies.extend(replies);
    }
    run.wall_ns = nanos(start.elapsed());
    run
}
