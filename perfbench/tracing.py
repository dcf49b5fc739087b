"""Spans and counters recorded from outside simal, around its public calls.

Nothing under ``src/`` knows about tracing: ``instrument`` replaces each
traced function in every loaded ``simal`` module that binds it (so
``from .limits import compatible_tuples`` call sites are covered too),
wraps the lazy ``FiniteAlgebra.tables`` property, and wraps the entries
of ``suite.CRITERIA``.  The wrappers cost one attribute test when the
tracer is inactive, so setup and answer checks stay untraced.

A span is ``[name, case, start, end, parent]``, kept in memory for the
pass; spans of one case share the case id.  A span's self time is its duration minus the durations of
its direct children, which cover disjoint parts of it because calls nest.
"""

import sys
import time

# (module, function) pairs whose calls become spans.  The span name is
# "<module>.<function>".
TRACED = [
    ("congruences", "congruence_generated"),
    ("congruences", "join"),
    ("congruences", "image"),
    ("congruences", "meet"),
    ("limits", "compatible_tuples"),
    ("simplicial", "simplicial_congruence_generated"),
    ("simplicial", "horn"),
    ("simplicial", "kan_fibration_check"),
    ("simplicial", "simplicial_pullback"),
    ("commutator", "tc_commutator"),
    ("reflection", "pi1"),
    ("reflection", "homotopy_congruence"),
    ("galois", "classify_extension"),
    ("galois", "em_factorization"),
    ("galois", "ml_factorization"),
    ("cli", "run"),
]

MATERIALIZE = "algebra.materialize"


class Tracer:
    def __init__(self):
        self.active = False
        self.case = None
        self.spans = []
        self._stack = []
        self.counts = {}

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.case, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def exit(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def reset(self):
        self.spans = []
        self._stack = []
        self.counts = {}

    def summary(self):
        """Per span name: [calls, self seconds, inclusive seconds]; plus counts."""
        # A deadline can interrupt a span before it closes; such spans
        # are left out.
        child_time = [0.0] * len(self.spans)
        for name, _, start, end, parent in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        by_name = {}
        for i, (name, _, start, end, _) in enumerate(self.spans):
            if end is None:
                continue
            row = by_name.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += (end - start) - child_time[i]
            row[2] += end - start
        return {"spans": by_name, "counts": dict(self.counts)}

    def finish(self):
        """Stop recording and return the summary."""
        self.active = False
        return self.summary()


def merge_summaries(parts):
    spans, counts = {}, {}
    for part in parts:
        for name, (calls, self_s, incl_s) in part["spans"].items():
            row = spans.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += self_s
            row[2] += incl_s
        for name, value in part["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {"spans": spans, "counts": counts}


def _wrap(tracer, name, fn):
    if name == "congruences.congruence_generated":
        def traced(alg, pairs, initial=None):
            if not tracer.active:
                return fn(alg, pairs, initial)
            idx = tracer.enter(name)
            try:
                result = fn(alg, pairs, initial)
            finally:
                tracer.exit(idx)
            if initial is not None:
                tracer.count("closure_initial_calls")
                if result != initial:
                    tracer.count("closure_useful_calls")
            return result
    elif name == "limits.compatible_tuples":
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.enter(name)
            try:
                rows = fn(*args, **kwargs)
            finally:
                tracer.exit(idx)
            tracer.count("tuples_enumerated", len(rows))
            return rows
    elif name == "commutator.tc_commutator":
        def traced(theta, psi):
            if not tracer.active:
                return fn(theta, psi)
            tracer.count("pair_algebra_size", theta.pair_count())
            idx = tracer.enter(name)
            try:
                return fn(theta, psi)
            finally:
                tracer.exit(idx)
    else:
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(idx)
    traced.__wrapped__ = fn
    traced.__name__ = fn.__name__
    return traced


def _criterion(tracer, cid, fn):
    traced = _wrap(tracer, f"suite.crit{cid}", fn)

    def run_criterion(ctx):
        tracer.case = f"crit{cid}"
        return traced(ctx)

    return run_criterion


def _simal_modules():
    return [
        mod for key, mod in list(sys.modules.items())
        if mod is not None and (key == "simal" or key.startswith("simal."))
    ]


def instrument(tracer):
    """Route simal's traced calls through ``tracer``; returns an undo function."""
    import simal.algebra
    import simal.cli
    import simal.suite

    undo = []
    modules = _simal_modules()
    for modname, fname in TRACED:
        original = getattr(sys.modules[f"simal.{modname}"], fname)
        wrapped = _wrap(tracer, f"{modname}.{fname}", original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    undo.append((mod, attr, original))

    cls = simal.algebra.FiniteAlgebra
    original_tables = cls.tables

    def tables(alg):
        if not tracer.active or alg._tables is not None:
            return original_tables.fget(alg)
        idx = tracer.enter(MATERIALIZE)
        try:
            result = original_tables.fget(alg)
        finally:
            tracer.exit(idx)
        tracer.count("tables_materialized", len(result))
        tracer.count("table_cells", sum(int(t.size) for t in result.values()))
        return result

    cls.tables = property(tables)
    undo.append((cls, "tables", original_tables))

    criteria = simal.suite.CRITERIA
    saved = list(criteria)
    for pos, (cid, title, fn) in enumerate(saved):
        criteria[pos] = (cid, title, _criterion(tracer, cid, fn))

    def restore():
        for obj, attr, value in reversed(undo):
            setattr(obj, attr, value)
        criteria[:] = saved

    return restore
