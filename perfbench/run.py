#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-live --seed 1 --seconds 20 --trace 0

The binary, the Go build cache and the span files of traced runs go to
$CARGO_TARGET_DIR (default .bench_build) inside the checkout. The program's
standard output is passed through; its last line is the JSON result. The
exit code is the program's: 0 only when every output check passed.
"""

import argparse
import os
import shutil
import subprocess
import sys


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true", help="small inputs for smoke tests")
    args = ap.parse_args()

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    os.makedirs(out, exist_ok=True)

    go = shutil.which("go")
    if go is None:
        print("run.py: no go toolchain on PATH", file=sys.stderr)
        return 1
    # Keep every file the toolchain writes inside the checkout, and never
    # let it fetch a toolchain or module.
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=bench_dir, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    # The revision is only known when the checkout is itself a git work
    # tree (not merely inside one).
    rev = "unknown"
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], root):
            rev = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    env["PERFBENCH_REVISION"] = rev

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace), "-out", out]
    if args.short:
        cmd.append("-short")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
