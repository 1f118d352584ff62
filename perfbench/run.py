#!/usr/bin/env python3
"""Build and run the perfbench host-time benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark executable is
built from source with dune into the directory named by
CARGO_TARGET_DIR (default: .bench_build) inside the checkout, then run
once with the same arguments.  Its standard output is passed through;
the last line is the JSON result.  Nothing is read or written outside
the checkout: dune's shared cache is disabled for the build.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ["crash_campaign", "table1_steady", "serve_crash", "recover_1m"]
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def revision(root):
    """The checked-out commit when there is a .git here, else a digest
    of the simulator's sources (a checkout without history)."""
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as f:
                    return f.read().strip()
        return ref
    h = hashlib.sha1()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli", "dune")):
                    p = os.path.join(d, name)
                    h.update(os.path.relpath(p, root).encode())
                    with open(p, "rb") as f:
                        h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def run_group(cmd, what, timeout, **kw):
    """Run [cmd] in its own process group and return its exit code.  The
    benchmark forks one process per repetition, and dune its compilers:
    on a timeout, or when this script is told to stop, the whole group is
    killed and waited for."""
    try:
        proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    except OSError as e:
        fail(f"{what} failed: {e}")

    def stop(*_):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()

    def on_signal(signum, _frame):
        stop()
        sys.exit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, on_signal)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop()
        fail(f"{what} exceeded {timeout} s")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("dune-project", os.path.join("lib", "workload", "dune")):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"{need} not found: run from the root of a source checkout")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = run_group(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "--display", "quiet", "./perfbench/main.exe"],
        "build", BUILD_TIMEOUT_S, cwd=root, env=env, stdout=sys.stderr)
    if code != 0:
        fail(f"build failed with exit code {code}")

    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--revision", revision(root)]
    sys.exit(run_group(cmd, "benchmark run", RUN_TIMEOUT_S, cwd=root))


if __name__ == "__main__":
    main()
