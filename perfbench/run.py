"""qnshape benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.

Workloads (closed loop, one client, one process at a time):

* ``cli-flow``: fresh-process ``qnshape`` commands at README sizes, on
  inputs generated from the seed: ``shape`` (wireline, 256 bins), ``shape``
  on a ``file:`` channel (CSV read path), ``partition`` (equal power, n=4,
  from ``--config``), ``capacity --sq`` and ``simulate --samples 32768
  --save-trace`` (CSV write path).  This is what a CLI user pays; package
  import is most of every command.  Set-up writes the input files and runs
  one untimed command.
* ``compute``: in-process library work, no import in the timed passes.  A
  pass runs four 2^18-sample modulator runs on the test suite's delta-sigma
  fixture (order 4 at -20 and -6 dBFS and order 5 at -6 dBFS, dithered, each
  followed by ``measured_vs_predicted``; order 4 at -6 dBFS undithered),
  then the solver work: ``design_ntf`` at orders 4-6, integer-ratio
  partitions at n=5 and n=6, numerical shaping on both 256-bin fixtures, an
  equal-power plan with per-band shaping, and closed-form shaping with
  ``verify_shaping``.  The pure-Python modulator kernel, the order-6 design
  and the n=6 partition search are most of a pass.  Set-up imports the
  package, builds the fixtures and designs the modulators' NTFs.

With ``--trace 0`` the last stdout line reports ``setup_s`` (median of three
set-ups, each in a fresh process), ``wall_ref`` (the cost of one pass in
units of a fixed reference block timed around every operation; see
report.pass_ref), ``peak_rss_mb`` (the workload process, or for cli-flow its
CLI children) and ``success_ratio`` (operations whose output passed its
check, over those attempted).  With ``--trace 1`` it reports the per-layer
metrics described in report.py.  The line before it records the pass's
median wall time in seconds (``wall_s``), the reference block's median time
(``ref_block_s``) and the environment: versions, the kernel backend and
nproc.  Results from different backends are not comparable.  The workload
process and its children run on one CPU.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "workloads.py")
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0


def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def run_worker(args, env, timeout):
    """Run the workload process; returns its JSON result or exits non-zero.
    The worker gets its own process group, so a timeout also stops the CLI
    commands it started."""
    with subprocess.Popen([sys.executable, WORKER, *args], env=env, stdout=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            sys.exit(f"error: workload process exceeded {timeout:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: workload process failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description="qnshape benchmark")
    ap.add_argument("--workload", required=True, choices=["cli-flow", "compute"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "qnshape", "__init__.py")):
        sys.exit(f"error: no qnshape package under {SRC}")
    start = time.perf_counter()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(run_worker(common + ["--setup-only"], env, RUN_LIMIT_S)["setup_s"])
    res = run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                               "--git-commit", git_commit() or ""],
                     env, RUN_LIMIT_S - (time.perf_counter() - start))
    metrics = res["metrics"]
    if not args.trace:
        setups.append(res["setup_s"])
        metrics["setup_s"]["value"] = float(statistics.median(setups))

    for problem in res["problems"]:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "passes": res["passes"], "wall_s": res["wall_s"],
                      "ref_block_s": res["ref_block_s"], "setup_runs_s": setups,
                      "env": res["env"]}))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
