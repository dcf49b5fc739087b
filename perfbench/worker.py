"""One benchmark run of one workload, in a process of its own.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

``run.py`` starts this with ``src`` on ``PYTHONPATH``.  It prints one JSON
object: the set-up time, and unless ``--setup-only``, the pass times, the
per-case outcomes counted against the frozen answers, and with
``--trace 1`` the per-layer numbers of the traced passes.
"""

import argparse
import json
import random
import resource
import statistics
import sys
import time

import tracing

# Modules that import numpy or simal (reference, workloads) are imported
# inside the functions, so that the set-up timer covers their import.


def _summary_metrics(summary):
    spans, counts = summary["spans"], summary["counts"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def incl_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    initial = counts.get("closure_initial_calls", 0)
    out = {
        "congruences.closure_useful_ratio":
            counts.get("closure_useful_calls", 0) / initial if initial else 0.0,
        "limits.tuples_enumerated": counts.get("tuples_enumerated", 0),
        "algebra.tables_materialized": counts.get("tables_materialized", 0),
        "algebra.table_cells": counts.get("table_cells", 0),
        "algebra.materialize_s": self_s("algebra.materialize"),
        "commutator.pair_algebra_size": counts.get("pair_algebra_size", 0),
        "cli.run.self_s": self_s("cli.run"),
    }
    for name in ("congruences.congruence_generated", "congruences.join",
                 "congruences.image", "congruences.meet",
                 "limits.compatible_tuples"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    for name in ("simplicial.simplicial_congruence_generated",
                 "simplicial.horn", "simplicial.kan_fibration_check",
                 "simplicial.simplicial_pullback",
                 "commutator.tc_commutator", "reflection.pi1",
                 "reflection.homotopy_congruence",
                 "galois.classify_extension", "galois.em_factorization",
                 "galois.ml_factorization"):
        out[f"{name}.self_s"] = self_s(name)
    for cid in range(1, 11):
        out[f"suite.crit{cid}_s"] = incl_s(f"suite.crit{cid}")
    return out


def _median_by_key(rows):
    keys = {key for row in rows for key in row}
    return {key: statistics.median(row[key] for row in rows if key in row)
            for key in keys}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import simal  # noqa: F401  (import time is part of set-up)
    import workloads

    rng = random.Random(args.seed)
    workload = workloads.WORKLOADS[args.workload]()
    state = workload.setup(rng)
    setup_s = time.perf_counter() - start
    rss_after_setup_mb = _maxrss_mb()

    import reference

    ref = reference.Reference()
    setup = {
        "setup_s": setup_s,
        "setup_ref_s": reference.rescale(
            setup_s, statistics.median(ref() for _ in range(5))
        ),
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    # The peak RSS before the first pass, so that the harness's share of
    # peak_rss_mb can be seen: the interpreter, numpy, simal and the inputs,
    # then with the reference kernel built and run five times.
    rss = {"rss_after_setup_mb": rss_after_setup_mb,
           "rss_after_kernel_mb": _maxrss_mb()}
    out = measure(workload, state, rng, args.seconds, args.trace, ref=ref)
    out.update(setup, **rss)
    print(json.dumps(out))
    return 0


def measure(workload, state, rng, seconds, trace, expected=None, ref=None):
    """Run passes for ``seconds`` (at least one; with tracing, at least one
    untraced and one traced, alternating) and check every answer."""
    import reference

    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer) if trace else None
    try:
        return _measure(workload, state, rng, seconds, trace, tracer,
                        expected, ref or reference.Reference())
    finally:
        if restore is not None:
            restore()


def _measure(workload, state, rng, seconds, trace, tracer, expected, ref):
    import numpy
    import reference
    import workloads

    if expected is None:
        expected = workloads.load_expected()
    plain_s, traced_s, layers, rung_rows = [], [], [], []
    # Cases that run in the worker share costs within a pass: in suite-desk
    # the criteria share one context and its lazy tables, and whichever
    # runs first pays for them.  So such a workload is charged the median
    # over passes of a pass's rescaled total.  Forked cases all start from
    # the same state and share nothing, so each is charged the median of
    # its own rescaled times, which is steadier.
    pass_ref_s, case_s = [], {}
    attempted = failed = undecided = 0
    failures = []
    stop = time.perf_counter() + seconds
    while True:
        traced = trace and len(traced_s) < len(plain_s)
        tracer.reset()
        tracer.active = bool(traced)
        pass_s, results = workload.run_pass(state, rng, tracer,
                                            None if traced else ref)
        summary = tracer.finish()
        (traced_s if traced else plain_s).append(pass_s)
        if traced:
            parts = [summary] + [r["trace"] for r in results if "trace" in r]
            layers.append(_summary_metrics(tracing.merge_summaries(parts)))
        else:
            timed = [r for r in results if "ref_s" in r or r.get("undecided")]
            for res in timed:
                case_s.setdefault(res["case"], []).append(_rescaled(res))
            refs = [r["ref_s"] for r in timed if "ref_s" in r]
            rest = pass_s - sum(r["seconds"] for r in timed)
            pass_ref_s.append(
                sum(_rescaled(r) for r in timed)
                + (reference.rescale(rest, statistics.median(refs)) if refs else rest)
            )
            if any("rung_rss_mb" in r for r in results):
                rung_rows.append(_rung_metrics(results))
        for res in results:
            attempted += 1
            if "error" in res:
                problem = res["error"]
            elif res.get("undecided"):
                undecided += 1
                continue
            else:
                problem = workload.check(res, expected)
            if problem is not None:
                failed += 1
                if len(failures) < 20:
                    failures.append(f"{res['case']}: {problem}")
        done = time.perf_counter() >= stop
        if done and (not trace or traced_s):
            break

    rss_mb = max(_maxrss_mb(),
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    out = {
        "attempted": attempted,
        "failed": failed,
        "undecided": undecided,
        "failures": failures,
        "wall_ref_s": (
            sum(statistics.median(times) for times in case_s.values())
            if workload.forked else statistics.median(pass_ref_s)
        ),
        "wall_s": statistics.median(plain_s),
        "pass_s": plain_s,
        "pass_ref_s": pass_ref_s,
        "peak_rss_mb": rss_mb,
        "decided_frac": (attempted - undecided) / attempted,
        "ml_deadline_s": workloads.ML_DEADLINE_S,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    if trace:
        layer = _median_by_key(layers)
        layer.update(_median_by_key(rung_rows) if rung_rows else {})
        for name in workloads.LADDER:
            layer.setdefault(f"commutator.{name}_s", 0.0)
            layer.setdefault(f"commutator.{name}_rss_mb", 0.0)
        layer["trace.wall_s"] = statistics.median(traced_s)
        # Each traced pass against the untraced pass just before it.
        layer["trace.overhead_frac"] = statistics.median(
            t / u for t, u in zip(traced_s, plain_s)
        ) - 1.0
        out["traced_pass_s"] = traced_s
        out["layers"] = layer
    return out


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rescaled(res):
    """A case's seconds at reference speed; a missed deadline is charged
    as it stands."""
    import reference

    if res.get("undecided"):
        return res["seconds"]
    return reference.rescale(res["seconds"], res["ref_s"])


def _rung_metrics(results):
    out = {}
    for res in results:
        if "ref_s" in res:
            out[f"commutator.{res['case']}_s"] = _rescaled(res)
        if "rung_rss_mb" in res:
            out[f"commutator.{res['case']}_rss_mb"] = res["rung_rss_mb"]
    return out


if __name__ == "__main__":
    raise SystemExit(main())
