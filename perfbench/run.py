#!/usr/bin/env python3
"""Build and run the Horse benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the `horse-perfbench` package
(this directory) in release mode against the repository's crates, into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs one workload.
The last line of standard output is the result object; the line before
it records the run's metadata (commit, cores, workers, compiler, units).
Exits non-zero, without a result, when the build fails, and non-zero
with a result when a correctness check failed.
"""

import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main() -> int:
    here = Path(__file__).resolve().parent
    root = here.parent
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env["CARGO_TARGET_DIR"] = str(target)

    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(here / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=root, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: build did not finish: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("error: the benchmark does not build here", file=sys.stderr)
        return 2

    env["PERFBENCH_COMMIT"] = commit_of(root)
    env["PERFBENCH_RUSTC"] = first_line(["rustc", "-V"], root)
    binary = target / "release" / "horse-perfbench"
    try:
        run = subprocess.run([str(binary), *sys.argv[1:]], cwd=root, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return run.returncode


def first_line(cmd, cwd, env=None) -> str:
    try:
        out = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def commit_of(root: Path) -> str:
    """The checkout's commit, or "unknown" when it is not a git work
    tree of its own (git is kept from looking above the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    if first_line(["git", "rev-parse", "--show-toplevel"], root, env) != str(root):
        return "unknown"
    return first_line(["git", "rev-parse", "HEAD"], root, env)


if __name__ == "__main__":
    sys.exit(main())
