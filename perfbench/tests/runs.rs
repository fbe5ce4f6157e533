//! Whole runs of the `smoke` workload through the binary: every metric
//! `BENCHMARK.json` names is reported, self times add up to the traced
//! wall time, and the correctness checks fail the run when an answer is
//! wrong or an acknowledged write is lost.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfbench-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(name: &str, extra: &[&str]) -> (Output, PathBuf) {
    let dir = scratch(name);
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "smoke", "--seed", "3", "--seconds", "2"])
        .args(extra)
        .arg("--work-dir")
        .arg(dir.join("work"))
        .arg("--out-dir")
        .arg(dir.join("out"))
        .output()
        .expect("the benchmark binary runs");
    (out, dir)
}

fn result_line(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout.lines().last().unwrap_or_default().to_string()
}

/// The metric names listed under `key` in the repository's BENCHMARK.json.
fn listed(key: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = text
        .split(&format!("\"{key}\""))
        .nth(1)
        .expect("section present");
    let section = &section[..section.find(']').expect("section closes")];
    section
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

/// `"name": {"value": <number>` of one metric in a result line.
fn value(line: &str, name: &str) -> Option<f64> {
    let rest = line.split(&format!("\"{name}\": {{\"value\": ")).nth(1)?;
    rest.split(',').next()?.parse().ok()
}

#[test]
fn the_untraced_run_reports_every_end_to_end_metric() {
    let (out, dir) = run("e2e", &["--trace", "0"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = result_line(&out);
    assert!(
        line.starts_with(r#"{"correct": true, "attempted": "#),
        "{line}"
    );
    assert!(line.contains(r#""failed": 0,"#), "{line}");
    for name in listed("end_to_end") {
        let v = value(&line, &name).unwrap_or_else(|| panic!("{name} missing: {line}"));
        assert!(v.is_finite() && v > 0.0, "{name} = {v}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn the_traced_run_reports_every_layer_and_its_self_times_add_up() {
    let (out, dir) = run("trace", &["--trace", "1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = result_line(&out);
    assert!(line.starts_with(r#"{"correct": true"#), "{line}");
    for name in listed("per_layer") {
        let v = value(&line, &name).unwrap_or_else(|| panic!("{name} missing: {line}"));
        assert!(v.is_finite(), "{name} = {v}");
    }
    let lag = value(&line, "driver.lag_ms_p99").expect("driver lag reported");
    assert!(lag >= 0.0);

    // Self times partition the traced wall time: their sum equals the
    // top-level spans' durations within 1%.
    let spans =
        std::fs::read_to_string(dir.join("out/spans-smoke-3.jsonl")).expect("spans written");
    let field = |l: &str, k: &str| -> String {
        l.split(&format!("\"{k}\":"))
            .nth(1)
            .unwrap()
            .split([',', '}'])
            .next()
            .unwrap()
            .to_string()
    };
    let (mut self_total, mut wall) = (0u64, 0u64);
    for l in spans.lines() {
        self_total += field(l, "self_ns").parse::<u64>().unwrap();
        if field(l, "parent") == "null" {
            let start: u64 = field(l, "start_ns").parse().unwrap();
            let end: u64 = field(l, "end_ns").parse().unwrap();
            wall += end - start;
        }
    }
    assert!(wall > 0);
    let residual = (wall as f64 - self_total as f64).abs() / wall as f64;
    assert!(residual <= 0.01, "self {self_total} vs wall {wall}");
    assert!(value(&line, "trace.self_residual_pct").unwrap() <= 1.0);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_wrong_answer_fails_the_run() {
    let (out, dir) = run("wrong", &["--trace", "0", "--inject", "wrong-answer"]);
    assert_eq!(out.status.code(), Some(1));
    let line = result_line(&out);
    assert!(line.starts_with(r#"{"correct": false"#), "{line}");
    assert!(!line.contains(r#""failed": 0,"#), "{line}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_lost_acknowledged_write_fails_the_run() {
    let (out, dir) = run("lost", &["--trace", "1", "--inject", "lost-write"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("acknowledged objects missing after reopen"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn unknown_or_unparseable_arguments_are_refused() {
    for extra in [
        &["--trace", "0", "--turbo", "1"][..],
        &["--trace", "yes"][..],
        &["--trace", "0", "--seed", "4"][..],
    ] {
        let (out, dir) = run("args", extra);
        assert_eq!(out.status.code(), Some(2), "{extra:?}");
        assert!(out.stdout.is_empty(), "printed a result for {extra:?}");
        let _ = std::fs::remove_dir_all(dir);
    }
}
