"""Command line interface.

Subcommands operate on the JSON artifact formats and emit a run report:

  simal validate FILE...     check that files describe valid objects
  simal gen KIND [K=V ...]   build a named artifact and emit its JSON
  simal reflect FILE         groupoid reflection with unit and homotopy data
  simal classify FILE        extension classification along dual routes
  simal factorize FILE       reflective or monotone-light factorization
  simal kan FILE             horn filler report for an object or morphism
  simal cosk FILE            simplicial kernels, exactness, coskeletality
  simal commutators FILE     commutator sandwich around the loop congruence
  simal suite                the full property battery over the built-in corpus

Every invocation produces a RunReport with the command, the input paths
and their content hashes, a results tree, and any property violations.
The report hash covers everything except the elapsed-time sidecar and,
after an internal error, the traceback sidecar, so identical inputs give
an identical hash.  Exit codes: 0 success, 1 bad input (a usage error
included), 2 property violation, 3 budget exhausted, 4 internal error
(any other exception; it is reported, not raised).
"""

import argparse
import os
import sys
import time
import traceback

from . import errors
from . import io as sio
from .algebra import FiniteAlgebra
from .corpus import generate, spec_from_params
from .errors import (
    InputError,
    InternalError,
    InvalidParameters,
    PropertyViolation,
    SimalError,
)
from .galois import classify_extension, em_factorization, ml_factorization
from .groupoid import InternalGroupoid
from .reflection import commutator_chain_check, is_internal_groupoid, pi1
from .simplicial import (
    SimplicialMorphism,
    TruncatedSimplicialAlgebra,
    exactness_check,
    face_tuples,
    kan_check,
    kan_fibration_check,
)
from .suite import format_lines, run_suite


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as InvalidParameters, so it ends like any
    other bad input: exit code 1 and a run report."""

    def error(self, message):
        raise InvalidParameters(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="simal",
        description="Finite Mal'tsev algebras, simplicial objects and "
        "their groupoid reflection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def budgeted(p):
        p.add_argument("--budget", type=int, default=None,
                       help="size limit for enumerative constructions "
                       "(default from SIMAL_BUDGET or built-in)")
        return common(p)

    def common(p):
        p.add_argument("--out", default=None,
                       help="output path: the artifact file for gen, a "
                       "directory of artifacts for reflect and factorize, "
                       "the report file otherwise")
        p.add_argument("--json", action="store_true",
                       help="print the full run report as JSON")
        return p

    p = common(sub.add_parser("validate", help="check JSON artifacts"))
    p.add_argument("files", nargs="+")

    p = common(sub.add_parser("gen", help="generate an artifact"))
    p.add_argument("--seed", type=int, default=None,
                   help="seed for randomized generators, recorded in the spec")
    p.add_argument("kind")
    p.add_argument("params", nargs="*",
                   help="KEY=VALUE pairs; values parsed as JSON when possible")

    for name, helptext, options in (
        ("reflect", "reflect into internal groupoids", budgeted),
        ("classify", "classify a levelwise surjection", budgeted),
        ("factorize", "factor a levelwise surjection", budgeted),
        ("kan", "horn filler checks", budgeted),
        ("cosk", "kernel and exactness diagnostics", budgeted),
        ("commutators", "commutator chain at level one", common),
    ):
        p = options(sub.add_parser(name, help=helptext))
        p.add_argument("file")
        if name == "factorize":
            p.add_argument("--mode", choices=("em", "ml"), default="em",
                           help="reflective (em) or monotone-light (ml); "
                           "ml takes no --budget")

    p = budgeted(sub.add_parser("suite", help="run the acceptance battery"))
    p.add_argument("--profile", choices=("desk", "deep"), default="desk")

    return parser


# -- input handling --------------------------------------------------------

def _load(path, inputs):
    kind, obj = sio.load_any(path)
    inputs.append({"path": path, "sha256": sio.file_hash(path)})
    return kind, obj


def _need(obj, cls, what):
    if not isinstance(obj, cls):
        raise InputError(f"expected {what}, got {type(obj).__name__}")
    return obj


def _artifact_json(obj):
    """The JSON of an algebra, simplicial object or morphism: generate's."""
    if isinstance(obj, FiniteAlgebra):
        return sio.algebra_to_json(obj)
    if isinstance(obj, TruncatedSimplicialAlgebra):
        return sio.simplicial_to_json(obj)
    return sio.morphism_to_json(obj)


def _write_dir(out, artifacts, results):
    os.makedirs(out, exist_ok=True)
    written = []
    for fname, data in artifacts:
        path = os.path.join(out, fname)
        sio.save_json(data, path)
        written.append({"path": path, "sha256": sio.content_hash(data)})
    results["written"] = written


def _level_sizes(X):
    return [lvl.size for lvl in X.levels]


# -- subcommand bodies -----------------------------------------------------

def _cmd_validate(args, inputs, out_lines):
    entries = []
    for path in args.files:
        kind, obj = _load(path, inputs)
        if isinstance(obj, FiniteAlgebra):
            summary = (f"size {obj.size}, "
                       f"{len(obj.signature.ops)} operations")
        elif isinstance(obj, TruncatedSimplicialAlgebra):
            summary = f"levels {_level_sizes(obj)}"
        elif isinstance(obj, SimplicialMorphism):
            summary = f"{_level_sizes(obj.dom)} -> {_level_sizes(obj.cod)}"
        elif isinstance(obj, InternalGroupoid):
            summary = f"{obj.objects.size} objects, {obj.arrows.size} arrows"
        else:
            summary = f"size {obj.dom.size} -> {obj.cod.size}"
        entries.append({"path": path, "kind": kind, "summary": summary})
        out_lines.append(f"{path}: {kind} ok ({summary})")
    return {"files": entries}


def _cmd_gen(args, inputs, out_lines):
    spec = spec_from_params(args.kind, args.params)
    if args.seed is not None:
        spec.setdefault("seed", args.seed)
    obj = generate(spec)
    data = _artifact_json(obj)
    digest = sio.content_hash(data)
    results = {"spec": spec, "artifact_kind": sio.detect_kind(data),
               "artifact_sha256": digest}
    if args.out:
        sio.save_json(data, args.out)
        results["written"] = [{"path": args.out, "sha256": digest}]
        out_lines.append(f"wrote {args.out} ({results['artifact_kind']}, "
                         f"sha256 {digest[:12]})")
    else:
        out_lines.append(sio.canonical_json(data))
    return results


def _cmd_reflect(args, inputs, out_lines):
    _, obj = _load(args.file, inputs)
    X = _need(obj, TruncatedSimplicialAlgebra, "a truncated simplicial object")
    R = pi1(X, budget=args.budget)
    already, conditions = is_internal_groupoid(X, with_report=True)
    unit_levels = []
    for n, comp in enumerate(R.unit.components):
        unit_levels.append({"level": n, "surjective": comp.is_surjective(),
                            "bijective": comp.is_bijective()})
    results = {
        "object": X.name,
        "levels": _level_sizes(X),
        "groupoid": {"objects": R.groupoid.objects.size,
                     "arrows": R.groupoid.arrows.size},
        "nerve_levels": _level_sizes(R.nerve),
        "unit": unit_levels,
        "homotopy_classes": [theta.class_count() for theta in R.h],
        "already_groupoid": already,
        "groupoid_conditions": conditions,
    }
    out_lines.append(
        f"{X.name}: levels {results['levels']} -> groupoid with "
        f"{R.groupoid.objects.size} objects, {R.groupoid.arrows.size} arrows"
    )
    out_lines.append(
        "unit bijective levelwise: "
        + str(all(u["bijective"] for u in unit_levels))
        + f"; homotopy classes {results['homotopy_classes']}"
        + f"; already a groupoid nerve: {already}"
    )
    if args.out:
        artifacts = [
            ("groupoid.json", sio.groupoid_to_json(R.groupoid)),
            ("unit.json", sio.morphism_to_json(R.unit)),
        ]
        for n, theta in enumerate(R.h):
            artifacts.append((f"h{n}.json", sio.congruence_to_json(theta)))
        _write_dir(args.out, artifacts, results)
        out_lines.append(f"wrote {len(artifacts)} artifacts to {args.out}")
    return results


def _cmd_classify(args, inputs, out_lines):
    _, obj = _load(args.file, inputs)
    F = _need(obj, SimplicialMorphism, "a simplicial morphism")
    report = classify_extension(F, budget=args.budget)
    out_lines.append(
        f"{report.name}: trivial={report.trivial} central={report.central} "
        f"normal={report.normal}"
    )
    return report.to_json()


def _cmd_factorize(args, inputs, out_lines):
    if args.mode == "ml" and args.budget is not None:
        raise InvalidParameters(
            "simal factorize: argument --budget: not allowed with --mode ml"
        )
    _, obj = _load(args.file, inputs)
    F = _need(obj, SimplicialMorphism, "a simplicial morphism")
    if args.mode == "em":
        Z, e, m = em_factorization(F, budget=args.budget)
    else:
        Z, e, m = ml_factorization(F)
    results = {
        "mode": args.mode,
        "middle_levels": _level_sizes(Z),
        "first_surjective": e.is_levelwise_surjective(),
        "second_surjective": m.is_levelwise_surjective(),
    }
    out_lines.append(
        f"{getattr(F, 'name', 'morphism')} [{args.mode}]: "
        f"{_level_sizes(F.dom)} -> {results['middle_levels']} -> "
        f"{_level_sizes(F.cod)}"
    )
    if args.out:
        _write_dir(args.out, [
            ("middle.json", sio.simplicial_to_json(Z)),
            ("first.json", sio.morphism_to_json(e)),
            ("second.json", sio.morphism_to_json(m)),
        ], results)
        out_lines.append(f"wrote 3 artifacts to {args.out}")
    return results


def _cmd_kan(args, inputs, out_lines):
    kind, obj = _load(args.file, inputs)
    if isinstance(obj, TruncatedSimplicialAlgebra):
        entries = kan_check(obj, budget=args.budget)
        horns = len(entries)
        out_lines.append(f"{obj.name}: {horns}/{horns} horns have fillers")
        return {"object": obj.name, "check": "kan", "entries": entries}
    F = _need(obj, SimplicialMorphism, "a simplicial object or morphism")
    entries = kan_fibration_check(F, budget=args.budget)
    surj = all(e["surjective"] for e in entries)
    bij = all(e["bijective"] for e in entries)
    out_lines.append(
        f"{getattr(F, 'name', 'morphism')}: comparison surjective={surj} "
        f"bijective={bij} over {len(entries)} horns"
    )
    return {"morphism": getattr(F, "name", "morphism"),
            "check": "fibration", "entries": entries}


def _cmd_cosk(args, inputs, out_lines):
    _, obj = _load(args.file, inputs)
    X = _need(obj, TruncatedSimplicialAlgebra, "a truncated simplicial object")
    N = X.truncation
    exact, kernels = [], []
    for level in range(1, N):
        ok, sizes = exactness_check(X, level, budget=args.budget)
        exact.append({"level": level, "exact": ok, **sizes})
        kernels.append({"n": level + 1, "level_size": X.levels[level + 1].size,
                        **sizes})
    if N >= 1:
        rows, _ = face_tuples(X, N + 1, range(N + 2), budget=args.budget)
        kernels.append({"n": N + 1, "kernel_size": len(rows)})
    results = {"object": X.name, "levels": _level_sizes(X),
               "exactness": exact, "kernels": kernels}
    if N >= 2:
        top = kernels[N - 2]
        results["two_coskeletal_at_top"] = (
            top["image_size"] == top["kernel_size"] == top["level_size"]
        )
    out_lines.append(f"{X.name}: levels {results['levels']}")
    for e in exact:
        out_lines.append(
            f"  exact at level {e['level']}: {e['exact']} "
            f"(image {e['image_size']} of kernel {e['kernel_size']})"
        )
    if "two_coskeletal_at_top" in results:
        out_lines.append(
            f"  two-coskeletal at top: {results['two_coskeletal_at_top']}"
        )
    return results


def _cmd_commutators(args, inputs, out_lines):
    _, obj = _load(args.file, inputs)
    X = _need(obj, TruncatedSimplicialAlgebra, "a truncated simplicial object")
    report = commutator_chain_check(X)
    classes = report["classes"]
    out_lines.append(
        f"{X.name}: [ker d0, ker d1] ({classes['commutator']} classes) "
        f"<= H1 ({classes['homotopy']}) <= ker d0 /\\ ker d1 "
        f"({classes['meet']})"
    )
    out_lines.append(
        f"  lower end tight: {report['commutator_equal']}; "
        f"upper end tight: {report['meet_equal']}"
    )
    return {"object": X.name, **report}


def _cmd_suite(args, inputs, out_lines):
    records = run_suite(args.profile, budget=args.budget)
    out_lines.extend(format_lines(records))
    failed = [r for r in records if not r["passed"]]
    out_lines.append(
        f"{len(records) - len(failed)}/{len(records)} criteria passed "
        f"(profile {args.profile})"
    )
    return {"profile": args.profile, "criteria": records}, failed


_COMMANDS = {
    "validate": _cmd_validate,
    "gen": _cmd_gen,
    "reflect": _cmd_reflect,
    "classify": _cmd_classify,
    "factorize": _cmd_factorize,
    "kan": _cmd_kan,
    "cosk": _cmd_cosk,
    "commutators": _cmd_commutators,
    "suite": _cmd_suite,
}

# Commands whose --out names an artifact destination rather than a place
# to store the run report itself.
_ARTIFACT_OUT = {"gen", "reflect", "factorize"}


def _suite_exit_code(failed):
    """The exit code of the errors of the failed criteria when they all
    share one, such as 3 when each ran past the budget; else 2, as for
    any property violation."""
    codes = {getattr(errors, r["details"]["error"],
                     PropertyViolation).exit_code for r in failed}
    return codes.pop() if len(codes) == 1 else PropertyViolation.exit_code


def run(argv):
    """Parse and dispatch a command line; returns (exit code, report, lines)."""
    return execute(argv)[:3]


def execute(argv):
    """Parse and dispatch a command line; returns (exit code, report, lines,
    parsed arguments), the last None after a usage error."""
    args = None
    inputs = []
    out_lines = []
    results = {}
    violations = []
    code = 0
    trace = None
    start = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)
        outcome = _COMMANDS[args.command](args, inputs, out_lines)
        if args.command == "suite":
            results, failed = outcome
            if failed:
                code = _suite_exit_code(failed)
                violations = [
                    {"property": f"criterion {r['id']}",
                     "witness": r["details"].get("message", r["title"])}
                    for r in failed
                ]
        else:
            results = outcome
    except Exception as exc:
        if not isinstance(exc, SimalError):
            trace = traceback.format_exc()
            exc = InternalError(f"{type(exc).__name__}: {exc}")
        code = exc.exit_code
        violations.append(
            {"property": type(exc).__name__, "witness": str(exc)}
        )
        out_lines.append(f"error: {exc}")
    elapsed = time.perf_counter() - start
    core = {
        "command": args.command if args else None,
        "inputs": inputs,
        "results": results,
        "violations": violations,
    }
    report = dict(core)
    report["report_hash"] = sio.content_hash(core)
    report["elapsed"] = elapsed
    if trace is not None:
        report["traceback"] = trace
    if code == 0 and args.out and args.command not in _ARTIFACT_OUT:
        sio.save_json(report, args.out)
        out_lines.append(f"wrote report to {args.out}")
    return code, report, out_lines, args


def main(argv=None):
    code, report, out_lines, args = execute(
        sys.argv[1:] if argv is None else argv
    )
    if args is not None and args.json:
        print(sio.canonical_json(report))
    else:
        for line in out_lines:
            print(line)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
