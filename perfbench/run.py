#!/usr/bin/env python3
"""Caller-side benchmark of the systec kernel service.

Builds the benchmark driver (perfbench/CMakeLists.txt, which compiles the
library from the repository's sources) into the build directory, then runs
one workload and relays its output. The last line of stdout is the JSON
result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build directory is $CARGO_TARGET_DIR
when set, else .bench_build; nothing is written outside the checkout (the
build and the driver get TMPDIR inside the build directory, and SYSTEC_*
variables are removed from the driver's environment so the JIT uses only
the private cache each run creates).

--selftest shows that a corrupted output is counted as failed, and that the
kernel.* and plancache.* counts repeat exactly across two runs with the
same seed on every deterministic workload (concurrent_mix's hit ratio
depends on scheduling; both runs' values are printed as its spread).
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["ssymv_solver", "ssyrk_update", "concurrent_mix", "cold_shapes"]
DETERMINISTIC = ["ssymv_solver", "ssyrk_update", "cold_shapes"]
# The first run in a checkout builds; every later run must end in 180 s.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(d)


def build(bdir):
    """Configures (once) and builds the driver; returns its path or None."""
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    cmake_dir = os.path.join(bdir, "cmake")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target",
                  "systec_perfbench", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(cmake_dir, "systec_perfbench")


def driver_env(bdir):
    env = {k: v for k, v in os.environ.items() if not k.startswith("SYSTEC_")}
    env["TMPDIR"] = os.path.join(bdir, "tmp")
    return env


def run_driver(exe, bdir, args, timeout):
    """Runs the driver to completion (killed at the timeout); returns
    (exit code, stdout)."""
    p = subprocess.Popen([exe] + args + ["--scratch", bdir],
                         env=driver_env(bdir), stdout=subprocess.PIPE,
                         text=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        log("driver timed out after %d s" % timeout)
        return 1, ""
    return p.returncode, out


def result_of(out):
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def selftest(exe, bdir):
    ok = True
    code, out = run_driver(exe, bdir, ["--selftest"], RUN_TIMEOUT_S)
    print(out, end="")
    ok &= code == 0
    for w in WORKLOADS:
        runs = []
        for _ in range(2):
            code, out = run_driver(
                exe, bdir, ["--workload", w, "--seed", "7", "--seconds", "2",
                            "--trace", "1"],
                RUN_TIMEOUT_S)
            res = result_of(out) if code == 0 else None
            if not res or not res["correct"]:
                print("selftest %s: traced run failed" % w)
                ok = False
                break
            runs.append(res["metrics"])
        if len(runs) < 2:
            continue
        names = sorted(n for n in runs[0]
                       if n.startswith("kernel.") or n.startswith("plancache."))
        if w not in DETERMINISTIC:
            spread = [r["plancache.hit_ratio"]["value"] for r in runs]
            names = [n for n in names if n.startswith("kernel.")]
            print("selftest %s: plancache.hit_ratio %s (scheduling-dependent)"
                  % (w, spread))
        diff = [n for n in names
                if runs[0][n]["value"] != runs[1][n]["value"]]
        print("selftest %s: %d counts repeat exactly across two same-seed "
              "runs%s" % (w, len(names) - len(diff),
                          ": ok" if not diff else "; DIFFER: " + ", ".join(diff)))
        ok &= not diff
    print("selftest: " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and not a.workload:
        ap.error("--workload is required")

    bdir = build_dir()
    exe = build(bdir)
    if not exe:
        return 1
    if a.selftest:
        return selftest(exe, bdir)
    started = time.monotonic()
    code, out = run_driver(
        exe, bdir, ["--workload", a.workload, "--seed", str(a.seed),
                    "--seconds", str(a.seconds), "--trace", str(a.trace)],
        RUN_TIMEOUT_S)
    if code != 0:
        # Relay the diagnostics, never a result line.
        log(out)
        log("driver exited with %d" % code)
        return code or 1
    sys.stdout.write(out)
    log("run took %.1f s" % (time.monotonic() - started))
    return 0


if __name__ == "__main__":
    sys.exit(main())
