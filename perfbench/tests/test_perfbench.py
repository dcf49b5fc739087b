"""Checks on the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests

They take about a minute: several exercise real passes of the workloads
on trimmed case lists.
"""

import ast
import json
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import reference
import tracing
import worker
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _trimmed(workload, key, names, seed=0):
    state = workload.setup(random.Random(seed))
    state[key] = names
    return state


def test_metric_and_workload_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_exactly_the_declared_metrics(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "extensions-deep",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in last["metrics"].values())


def test_hand_frozen_galois_verdicts_agree_with_expected_answers():
    tree = ast.parse((ROOT / "tests" / "test_galois.py").read_text())
    frozen = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "EXPECTED" for t in node.targets)
    )
    expected = workloads.load_expected()["extensions-deep"]
    assert len(frozen) == 9
    for name, verdict in frozen.items():
        assert expected[name]["verdict"] == list(verdict), name


def test_traced_and_untraced_passes_give_identical_answers():
    for wl, key, names in (
        (workloads.ExtensionsDeep(), "names",
         list(workloads.load_expected()["extensions-deep"])),
        (workloads.MlDeep(), "names",
         ["congC4-discC2", "unit-cosk-loops", "pairC4-pairC2"]),
    ):
        answers = []
        for trace in (0, 1):
            tracer = tracing.Tracer()
            restore = tracing.instrument(tracer) if trace else (lambda: None)
            try:
                state = _trimmed(wl, key, names)
                tracer.active = bool(trace)
                _, results = wl.run_pass(state, random.Random(1), tracer, reference.Reference())
                tracer.finish()
            finally:
                restore()
            answers.append({
                r["case"]: r.get("answer", r.get("undecided")) for r in results
            })
        assert answers[0] == answers[1], wl.name


def test_commutator_ladder_traced_and_untraced_agree():
    wl = workloads.CommutatorLadder()
    state = wl.setup(random.Random(4))
    state["rungs"] = {k: state["rungs"][k] for k in ("C16", "D8", "D12")}
    untraced = worker.measure(wl, dict(state), random.Random(4), 0, trace=0)
    traced = worker.measure(wl, dict(state), random.Random(4), 0, trace=1)
    assert untraced["failed"] == traced["failed"] == 0
    assert traced["layers"]["commutator.D12_rss_mb"] > 0


def test_long_case_is_rescaled_by_kernel_runs_inside_it():
    running = []

    def kernel():
        return 0.02 if running else 0.01

    clock = workloads.CaseClock(kernel)
    clock.start()
    running.append(True)
    stop = time.perf_counter() + 8 * workloads.SAMPLE_EVERY_S
    while time.perf_counter() < stop:
        pass
    running.clear()
    clock.stop()
    # Two runs at the case's ends, at least three inside it.
    assert clock.reading()["ref_s"] == 0.02


def test_flipped_expected_verdict_counts_as_failure():
    wl = workloads.ExtensionsDeep()
    names = ["pairC4-pairC2", "quotient-cosk-fibers", "unit-cosk-loops"]
    expected = workloads.load_expected()
    ok = worker.measure(wl, _trimmed(wl, "names", names), random.Random(0),
                        0, trace=0, expected=expected)
    assert ok["failed"] == 0
    flipped = json.loads(json.dumps(expected))
    verdict = flipped["extensions-deep"]["quotient-cosk-fibers"]["verdict"]
    verdict[1] = not verdict[1]
    bad = worker.measure(wl, _trimmed(wl, "names", names), random.Random(0),
                         0, trace=0, expected=flipped)
    assert bad["failed"] == 1
    assert bad["failed"] / bad["attempted"] > 0


def test_missed_deadline_counts_as_undecided_not_failed():
    wl = workloads.MlDeep(deadline=0.001)
    names = ["congC4-discC2", "congZ6-mix", "pairC4-pairC2"]
    out = worker.measure(wl, _trimmed(wl, "names", names), random.Random(0),
                         0, trace=0)
    assert out["attempted"] == 3
    assert out["undecided"] == 3
    assert out["failed"] == 0
    assert out["decided_frac"] == 0
    assert out["wall_ref_s"] == pytest.approx(3 * 0.001)


def test_ml_deadline_follows_the_host_speed():
    wl = workloads.MlDeep()
    for slowdown in (1.0, 1.5):
        def kernel():
            return slowdown * reference.REFERENCE_S
        assert wl.host_deadline(kernel) == pytest.approx(slowdown * workloads.ML_DEADLINE_S)


@pytest.mark.parametrize("name, classes", [
    ("C16", 16), ("C48", 48), ("D8", 4), ("D12", 4), ("D9", 2), ("D15", 2),
])
def test_commutator_class_count_follows_from_group_theory(name, classes):
    assert workloads.commutator_classes(name) == classes


def test_suite_desk_counts_repeat_across_runs_and_seeds():
    wl = workloads.SuiteDesk()
    seen = []
    for seed in (1, 1, 2):
        out = worker.measure(wl, wl.setup(random.Random(seed)),
                             random.Random(seed), 0, trace=1)
        assert out["failed"] == 0
        layers = out["layers"]
        seen.append((layers["congruences.congruence_generated.calls"],
                     layers["algebra.table_cells"]))
    assert seen[0] == (15097, 2936971)
    assert seen[0] == seen[1] == seen[2]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite-desk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
