#!/usr/bin/env python3
"""Build and run the serving-engine benchmark for one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 20 --trace 0

The script builds the `perfbench` package (its own Cargo workspace, which
depends on the repository's crates by path) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs one workload in
one process of its own. The last line of standard output is the result
as one JSON object. `--trace 0` reports the end-to-end metrics and
`--trace 1` the per-layer ones; `--inject wrong-answer|lost-write` breaks
the benchmark's own bookkeeping to show that its checks fail the run.

Exit codes: 0 on a correct run, 1 when a check failed or the run could
not finish, 2 for refused arguments, 3 when the repository's sources are
missing or do not build.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

# `smoke` is a seconds-long miniature for the package's own tests.
WORKLOADS = ("serve_warm", "serve_cold", "ingest", "smoke")
MAX_SECONDS = 600
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def non_negative_int(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    value = int(text)
    if value >= 2**64:
        raise argparse.ArgumentTypeError(f"{text!r} does not fit in 64 bits")
    return value


def seconds(text):
    value = non_negative_int(text)
    if not 1 <= value <= MAX_SECONDS:
        raise argparse.ArgumentTypeError(f"{value} outside 1..{MAX_SECONDS}")
    return value


def parse(argv):
    p = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0], allow_abbrev=False
    )
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=non_negative_int)
    p.add_argument("--seconds", required=True, type=seconds)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--inject", choices=("wrong-answer", "lost-write"))
    return p.parse_args(argv)


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result names
    the code it measured even where no git metadata exists."""
    h = hashlib.sha256()
    files = []
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", ".bench_build"))
            files += [os.path.join(dirpath, f) for f in filenames]
    files += [os.path.join(ROOT, f) for f in ("Cargo.toml", "Cargo.lock")]
    for path in sorted(f for f in files if os.path.isfile(f)):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def run_child(cmd, timeout, **kw):
    """Runs `cmd`, killing it on timeout or interruption; always waits."""
    child = subprocess.Popen(cmd, **kw)
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {cmd[0]} exceeded {timeout} s", file=sys.stderr)
        return None
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def main(argv):
    args = parse(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print(f"perfbench: no repository sources under {ROOT}", file=sys.stderr)
        return 3
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Build output goes to stderr: stdout ends with the result line.
    if run_child(build, BUILD_TIMEOUT_S, cwd=ROOT, env=env, stdout=sys.stderr) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work-dir", ".bench_work",
        "--out-dir", ".bench_out",
        "--source-digest", source_digest(),
    ]
    if args.inject:
        cmd += ["--inject", args.inject]
    sys.stdout.flush()
    code = run_child(cmd, RUN_TIMEOUT_S, cwd=ROOT)
    return code if code is not None and code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
