#!/usr/bin/env python3
"""Build and run the repository benchmark (schema mermaid-bench-v1).

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `mermaid-perfbench` package (its own Cargo workspace, with path
dependencies on the repository's crates) in release mode into
$CARGO_TARGET_DIR (default: .bench_build in the current directory), runs
it with the given arguments, and relays its standard output. The last line
is the result object; before it come a human-readable summary and the full
mermaid-bench-v1 record. See perfbench/README.md.

Exit codes: 0 after a completed run (the result says whether every check
passed), 2 when the build fails, otherwise the benchmark's own failure
code. No result line is printed unless the run completed and its metric
names match BENCHMARK.json.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BINARY = "mermaid-perfbench"


def expected_metrics(argv):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    spec_path = Path.cwd() / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    i = argv.index("--trace") if "--trace" in argv else len(argv)
    traced = argv[i + 1 : i + 2] == ["1"]
    return {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}


def main(argv):
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    env["CARGO_TARGET_DIR"] = str(target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    run = subprocess.run(
        [str(target / "release" / BINARY), *argv],
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        print(f"perfbench: benchmark exited with {run.returncode}", file=sys.stderr)
        return run.returncode or 1

    result = json.loads(lines[-1])
    names = expected_metrics(argv)
    if names is not None and set(result["metrics"]) != names:
        print("\n".join(lines[:-1]))
        print(
            f"perfbench: result metrics {sorted(result['metrics'])} do not match "
            f"BENCHMARK.json {sorted(names)}",
            file=sys.stderr,
        )
        return 3
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
