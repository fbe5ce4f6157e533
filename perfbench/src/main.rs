//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Exit codes: 0 when every answer was correct, 1 when a check failed or
//! the run could not complete, 2 when the arguments were refused.

use perfbench::{args, run, spec};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = spec::by_name(&args.workload) else {
        let known: Vec<_> = spec::ALL.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (known: {})",
            args.workload,
            known.join(", ")
        );
        return ExitCode::from(2);
    };
    match run::run(&args, &spec) {
        Ok(outcome) => {
            outcome.print();
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} of {} operations failed",
                    outcome.failed, outcome.attempted
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} run failed: {e}", spec.name);
            ExitCode::from(1)
        }
    }
}
