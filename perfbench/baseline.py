"""Measure a baseline of the benchmark and write it as JSON.

    python3 perfbench/baseline.py

For every workload, runs ``run.py`` untraced once per seed 1..RUNS and
traced once on seed 1, each for ``run_seconds`` of ``BENCHMARK.json``.
It records each end-to-end metric's values, median, quartiles and spread
(the distance between the quartiles as a share of the median) next to its
bound, the traced per-layer numbers with each self time's share of the
traced pass, and the run context of every run, in ``baseline.json`` next
to this file.  It exits 1 if any run fails, reports a wrong answer, or
shows a spread wider than a third of its bound.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
OUT = Path(__file__).resolve().parent / "baseline.json"
RUNS = 10


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    context = json.loads(lines[0].removeprefix("context "))
    return context, json.loads(lines[-1])


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def measure(spec, seconds):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out, problems = {}, []
    for workload in [w["name"] for w in spec["workloads"]]:
        contexts, values = [], {}
        for seed in range(1, RUNS + 1):
            context, result = _run(workload, seed, seconds, 0)
            if not result["correct"]:
                problems.append(f"{workload} seed {seed}: {context['failures']}")
            contexts.append(context)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  flush=True)
        end_to_end = {}
        for name, series in values.items():
            end_to_end[name] = dict(_spread(series), bound=bounds[name])
            if name != "setup_s" and end_to_end[name]["spread"] > bounds[name] / 3:
                problems.append(f"{workload} {name}: spread "
                                f"{end_to_end[name]['spread']:.4f} over a third "
                                f"of its bound {bounds[name]}")
        trace_context, traced = _run(workload, 1, seconds, 1)
        if not traced["correct"]:
            problems.append(f"{workload} traced: {trace_context['failures']}")
        layers = {name: m["value"] for name, m in traced["metrics"].items()}
        shares = {name: value / layers["trace.wall_s"]
                  for name, value in layers.items()
                  if name.endswith("self_s") or name == "algebra.materialize_s"}
        out[workload] = {
            "end_to_end": end_to_end,
            "per_layer": layers,
            "self_share_of_traced_pass": shares,
            "runs": contexts,
            "traced_run": trace_context,
        }
        print(workload, {k: round(v["spread"], 4) for k, v in end_to_end.items()},
              flush=True)
    return out, problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads, problems = measure(spec, seconds)
    OUT.write_text(json.dumps(
        {"runs_per_workload": RUNS, "run_seconds": seconds,
         "workloads": workloads}, indent=1) + "\n")
    for problem in problems:
        print("problem:", problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
