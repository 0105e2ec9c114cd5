#!/usr/bin/env python3
"""Build the HOG host-time benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <paper_100|pool_10k|churn_adaptive_300> \
        --seed N --seconds S --trace 0|1

Cargo builds the `hog-perfbench` binary (offline, release profile) into
`$CARGO_TARGET_DIR`, or `perfbench/target` when that is unset, then runs it
with the same arguments in place of this process. Build messages go to
stderr; the binary's last stdout line is the JSON report. The exit code
is the build's when the build fails, else the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(os.path.abspath(target), "release", "hog-perfbench")
    # Become the benchmark, so no child process outlives this one.
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
