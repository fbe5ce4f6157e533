//! The open-loop driver times every request from its scheduled arrival,
//! so a stall is charged to the requests scheduled behind it.

use perfbench::open_loop::{run_open_loop, BatchExecutor};
use std::time::Duration;

/// Answers instantly, except that its first call stalls for `stall`.
struct Stalled {
    stall: Duration,
    calls: usize,
}

impl BatchExecutor for Stalled {
    type Request = usize;
    type Reply = usize;

    fn execute(&mut self, batch: Vec<usize>) -> Vec<usize> {
        if self.calls == 0 {
            std::thread::sleep(self.stall);
        }
        self.calls += 1;
        batch
    }
}

const MS: u64 = 1_000_000;

#[test]
fn a_stall_shows_in_the_latency_of_every_request_scheduled_behind_it() {
    let mut exec = Stalled {
        stall: Duration::from_millis(200),
        calls: 0,
    };
    let run = run_open_loop(&mut exec, 40, Duration::from_millis(10), |i| i);
    assert_eq!(run.replies, (0..40).collect::<Vec<_>>());
    assert_eq!(run.latency_ns.len(), 40);
    // Request i is due at 10·i ms; the executor is busy until ~200 ms, so
    // every request due before then waits for the stall to end.
    for i in 0..20 {
        let floor = (200 - 10 * i as u64) * MS;
        assert!(
            run.latency_ns[i] + MS >= floor,
            "request {i}: latency {} ns hides the stall (floor {floor} ns)",
            run.latency_ns[i]
        );
        // The same wait shows as driver lag for every request but the
        // first, which was handed over on time and then stalled.
        let lag_floor = if i == 0 { 0 } else { floor };
        assert!(
            run.lag_ns[i] + MS >= lag_floor,
            "request {i}: lag {}",
            run.lag_ns[i]
        );
    }
    // Timing from submission instead would have hidden it: those requests
    // were answered almost at once after being handed over.
    let from_submission = run.latency_ns[10] - run.lag_ns[10];
    assert!(
        from_submission < 20 * MS,
        "executor was instant after the stall"
    );
    // The requests were handed over together once the stall ended.
    assert!(run.batch_sizes[1] >= 15, "batches {:?}", run.batch_sizes);
    // Requests due well after the stall are on time again.
    assert!(
        run.latency_ns[39] < 20 * MS,
        "late tail {}",
        run.latency_ns[39]
    );
}

#[test]
fn an_idle_executor_sees_on_time_submissions() {
    let mut exec = Stalled {
        stall: Duration::ZERO,
        calls: 0,
    };
    let run = run_open_loop(&mut exec, 20, Duration::from_millis(5), |i| i);
    assert_eq!(run.batch_sizes.iter().sum::<usize>(), 20);
    let max_lag = run.lag_ns.iter().copied().max().unwrap();
    assert!(
        max_lag < 20 * MS,
        "driver lagged {max_lag} ns with nothing to do"
    );
}
