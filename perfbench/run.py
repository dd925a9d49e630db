#!/usr/bin/env python3
"""Build the timego benchmark and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The benchmark is a cargo package of
its own (perfbench/Cargo.toml) that builds against the repository's
crates by path; it is built in release mode into $CARGO_TARGET_DIR
(default: .bench_build at the root). The last line of standard output is
the run's JSON result. A detailed record of the run (environment, sample
counts, quartiles, spans) is written under perfbench/out/.

Exits with a non-zero code, without a result, if the build or the run
fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def arg(argv, flag, default):
    if flag in argv:
        i = argv.index(flag)
        if i + 1 < len(argv):
            return argv[i + 1]
    return default


def main(argv):
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    name = "{}-seed{}-trace{}.json".format(
        arg(argv, "--workload", "none"), arg(argv, "--seed", "1"), arg(argv, "--trace", "0"))
    binary = target / "release" / "timego-perfbench"
    run = subprocess.run([str(binary), *argv, "--record", str(out / name)], cwd=ROOT, check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
