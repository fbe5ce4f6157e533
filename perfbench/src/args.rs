//! Strict command-line parsing: every flag is known, every value parses,
//! nothing falls back to a default silently.

use std::fmt;
use std::path::PathBuf;

/// A fault the benchmark injects into its own bookkeeping to prove that
/// its correctness checks bite (used by the self-tests, never by a
/// measured run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Corrupt one read reply before it is checked against the oracle.
    WrongAnswer,
    /// Acknowledge one insert that is never committed.
    LostWrite,
}

/// Parsed and validated arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name (validated against the known set by the caller).
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds the measured phases of one run last.
    pub seconds: u64,
    /// `true` for the traced (per-layer) run.
    pub trace: bool,
    /// Optional self-test fault.
    pub inject: Option<Inject>,
    /// Scratch directory for catalogs (relative to the working directory).
    pub work_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
    /// Fingerprint of the source tree being measured (recorded only).
    pub source_digest: String,
}

/// Why the arguments were refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// Longest run accepted.
pub const MAX_SECONDS: u64 = 600;

fn err(msg: impl Into<String>) -> ArgError {
    ArgError(msg.into())
}

/// Parses `--flag value` pairs (program name already stripped). Unknown
/// flags, repeated flags, missing values, unparseable numbers and missing
/// required flags are all errors.
pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, ArgError> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut inject = None;
    let mut work_dir = None;
    let mut out_dir = None;
    let mut source_digest = None;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| err(format!("{flag} needs a value")))?;
        let slot_taken = |taken: bool| {
            if taken {
                Err(err(format!("{flag} given twice")))
            } else {
                Ok(())
            }
        };
        match flag.as_str() {
            "--workload" => {
                slot_taken(workload.is_some())?;
                workload = Some(value);
            }
            "--seed" => {
                slot_taken(seed.is_some())?;
                seed =
                    Some(value.parse::<u64>().map_err(|_| {
                        err(format!("--seed {value:?} is not an unsigned integer"))
                    })?);
            }
            "--seconds" => {
                slot_taken(seconds.is_some())?;
                let s = value
                    .parse::<u64>()
                    .map_err(|_| err(format!("--seconds {value:?} is not an unsigned integer")))?;
                if !(1..=MAX_SECONDS).contains(&s) {
                    return Err(err(format!("--seconds {s} outside 1..={MAX_SECONDS}")));
                }
                seconds = Some(s);
            }
            "--trace" => {
                slot_taken(trace.is_some())?;
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(err(format!("--trace {value:?} must be 0 or 1"))),
                });
            }
            "--inject" => {
                slot_taken(inject.is_some())?;
                inject = Some(match value.as_str() {
                    "wrong-answer" => Inject::WrongAnswer,
                    "lost-write" => Inject::LostWrite,
                    _ => {
                        return Err(err(format!(
                            "--inject {value:?} must be wrong-answer or lost-write"
                        )))
                    }
                });
            }
            "--work-dir" => {
                slot_taken(work_dir.is_some())?;
                work_dir = Some(PathBuf::from(value));
            }
            "--out-dir" => {
                slot_taken(out_dir.is_some())?;
                out_dir = Some(PathBuf::from(value));
            }
            "--source-digest" => {
                slot_taken(source_digest.is_some())?;
                source_digest = Some(value);
            }
            _ => return Err(err(format!("unknown argument {flag:?}"))),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| err("--workload is required"))?,
        seed: seed.ok_or_else(|| err("--seed is required"))?,
        seconds: seconds.ok_or_else(|| err("--seconds is required"))?,
        trace: trace.ok_or_else(|| err("--trace is required"))?,
        inject,
        work_dir: work_dir.unwrap_or_else(|| PathBuf::from(".bench_work")),
        out_dir: out_dir.unwrap_or_else(|| PathBuf::from(".bench_out")),
        source_digest: source_digest.unwrap_or_else(|| "unknown".to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn accepts_the_driver_form() {
        let a = parse(argv("--workload ingest --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, "ingest");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert_eq!(a.inject, None);
    }

    #[test]
    fn refuses_unknown_unparseable_repeated_and_missing() {
        for bad in [
            "--workload x --seed 1 --seconds 5 --trace 0 --turbo 1",
            "--workload x --seed -1 --seconds 5 --trace 0",
            "--workload x --seed 1 --seconds 5s --trace 0",
            "--workload x --seed 1 --seconds 0 --trace 0",
            "--workload x --seed 1 --seconds 5 --trace 2",
            "--workload x --seed 1 --seed 2 --seconds 5 --trace 0",
            "--workload x --seconds 5 --trace 0",
            "--workload x --seed 1 --seconds 5 --trace",
            "--workload x --seed 1 --seconds 5 --trace 0 --inject everything",
        ] {
            assert!(parse(argv(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
