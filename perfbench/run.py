"""simal's benchmark: one run of one workload, from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads and metrics are listed in ``BENCHMARK.json``; why each was
chosen, how each metric is computed, and which layer metric should move
which end-to-end metric are in ``perfbench/NOTE.md``.  The run:

1. starts ``worker.py``, which builds the workload's inputs from the seed
   and runs passes for S seconds, checking every answer against
   ``perfbench/expected.json`` outside the timed regions;
2. with ``--trace 0``, starts ``worker.py --setup-only`` SETUP_PROBES more
   times, half before and half after the first, each a fresh process that
   only imports simal and builds the inputs; ``setup_s`` is the median of
   the nine set-ups;
3. prints the run context, one line per metric, and, as its last line,
   ``{"correct", "attempted", "failed", "metrics"}`` as JSON.  With
   ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
   the per-layer ones, from traced passes alternated with untraced ones.

Every process runs simal from ``src``, single-threaded, one at a time.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 8
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args, timeout):
    cmd = [sys.executable, str(WORKER)] + args
    # A session of its own, so that a worker that overruns is killed together
    # with the case processes it forked.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                         f"{stderr[-4000:]}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run(workload, seed, seconds, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {workload!r}")
    if not (ROOT / "src" / "simal" / "__init__.py").is_file():
        raise BenchError(f"no simal sources under {ROOT / 'src'}")
    began = time.monotonic()
    load_at_start = os.getloadavg()
    base = ["--workload", workload, "--seed", str(seed)]

    def left():
        return RUN_LIMIT_S - (time.monotonic() - began)

    # Set-up probes serve only the end-to-end metrics.  Half run before the
    # measured worker and half after, so that their median spans the host's
    # fast and slow spells.
    probes = 0 if trace else SETUP_PROBES
    setups = []
    for _ in range(probes // 2):
        setups.append(_worker(base + ["--setup-only"], min(30.0, left())))

    measured = base + ["--seconds", str(seconds), "--trace", str(trace)]
    result = _worker(measured, left() - 30.0)
    setups.append(result)
    for _ in range(probes - probes // 2):
        setups.append(_worker(base + ["--setup-only"], min(30.0, left())))

    if trace:
        values = result["layers"]
        wanted = spec["per_layer"]
    else:
        values = dict(result)
        values["setup_s"] = statistics.median(s["setup_ref_s"] for s in setups)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"worker did not report {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    context = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": result["python"],
        "numpy": result["numpy"],
        "machine": platform.machine(),
        "loadavg_at_start": list(load_at_start),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "ml_deadline_s": result["ml_deadline_s"],
        "setup_samples_s": [s["setup_s"] for s in setups],
        "rss_after_setup_mb": result["rss_after_setup_mb"],
        "rss_after_kernel_mb": result["rss_after_kernel_mb"],
        "wall_s": result["wall_s"],
        "pass_s": result["pass_s"],
        "pass_ref_s": result["pass_ref_s"],
        "traced_pass_s": result.get("traced_pass_s"),
        "fail_frac": result["failed"] / result["attempted"],
        "undecided": result["undecided"],
        "failures": result["failures"],
    }
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    return context, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        context, summary = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("context " + json.dumps(context))
    # fail_frac is printed here, not among the metrics, because it is 0 when
    # the program is right and a metric must never read 0.
    print(f"fail_frac = {context['fail_frac']:.6g} frac")
    for name, metric in summary["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
