#!/usr/bin/env python3
"""Run one workload of the seeded z-order engine benchmark.

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  Builds the `sqp` binary and
perfbench/zbench.exe with dune, then runs zbench.exe, whose last stdout
line is the JSON result.  Logs, the Chrome trace and server dumps go to
perfbench/_out/.  See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["serve_read", "serve_ingest", "cluster_read", "embedded_range"]
NEEDED = ["dune-project", "bin/main.ml", "bin/dune", "lib", "perfbench/dune", "perfbench/zbench.ml"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("dune not found on PATH")


def source_rev():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ["dune-project", "bin", "lib", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) if "_out" not in d for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def run_group(cmd, timeout, stdout, env=None):
    """Run cmd in its own process group; on timeout stop the whole group
    (the server processes zbench.exe started included) and wait for it."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, start_new_session=True,
                            env=env)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        for sig, grace in [(signal.SIGTERM, 10), (signal.SIGKILL, 30)]:
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                pass
            try:
                proc.wait(timeout=grace)
                break
            except subprocess.TimeoutExpired:
                continue
        fail("%s timed out after %d s" % (cmd[0], timeout), 3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    missing = [p for p in NEEDED if not os.path.exists(p)]
    if missing:
        fail("not at the root of a source checkout (missing %s)" % ", ".join(missing))

    # No shared build cache: the build reads and writes inside the checkout only.
    rc = run_group(dune_command() + ["build", "--root", ".", "--display", "quiet",
                                     "./bin/main.exe", "./perfbench/zbench.exe"],
                   BUILD_TIMEOUT_S, sys.stderr, dict(os.environ, DUNE_CACHE="disabled"))
    if rc != 0:
        fail("build failed (exit %d)" % rc)

    out = os.path.join("perfbench", "_out", "%s-s%d-t%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    sys.stdout.flush()
    rc = run_group([os.path.join("_build", "default", "perfbench", "zbench.exe"),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--sqp", os.path.join("_build", "default", "bin", "main.exe"),
                    "--out", out, "--rev", source_rev()],
                   RUN_TIMEOUT_S, sys.stdout)
    sys.exit(rc)


if __name__ == "__main__":
    main()
