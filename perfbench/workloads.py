"""The benchmark's four workloads and the checks on their answers.

A workload builds its inputs once (``setup``), then runs passes.  A pass
runs every case once, in an order drawn from the run's random stream, and
returns its seconds and one result per case: the case's seconds, the time
of the reference kernel around and inside it (``ref_s``, see
``reference.py`` and ``CaseClock``) and its answer.  Answers are compared
with the frozen ones in ``expected.json`` by ``check``, after the pass,
outside any timed region.

``suite-desk`` and ``extensions-deep`` run their cases in the worker
process.  ``ml-deep`` and ``commutator-ladder`` run each case in a child
forked from the set-up worker, so every case starts from the same state:
an ml case that misses its deadline is abandoned without leaving
half-built state behind, and each rung's peak memory is its own.
"""

import json
import os
import resource
import select
import signal
import statistics
import time
from pathlib import Path

import numpy as np

# Traced calls go through their modules, so that the wrappers that
# tracing.instrument installs there are the ones called.  simal.cli is
# imported only by the workload that runs it, as it alone adds about
# 3.5 MB to the peak RSS.
from simal import commutator, galois, suite
from simal import congruences as cg
from simal.algebra import make_algebra
from simal.corpus import default_corpus, named_algebra

import reference

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Per-case limit for ml-deep, in seconds at the reference kernel's speed.
# On the seed code, in a forked child, the slowest decided case takes about
# 0.65 s and the fastest undecided one about 1.2 s.  The timer is armed at
# this limit scaled to the host's speed just before the case (see
# MlDeep.host_deadline), so a slow spell of the host does not push a
# decided case past it.
ML_DEADLINE_S = 1.0

LADDER = ["C16", "C24", "C32", "C40", "C48", "D8", "D12", "D16", "D20", "D24"]

# A long case is rescaled by kernel runs inside it, this many CPU seconds
# apart, so that a slow spell in its middle is rescaled away too.
SAMPLE_EVERY_S = 0.25

# A forked case that has not answered this many seconds after it started
# is killed, and counts as failed; the child also caps its own CPU time at
# this, so it cannot outlive a worker that is killed.
CHILD_GRACE_S = 60


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def _plain(value):
    """JSON round trip, so numpy scalars and tuples compare as stored."""
    return json.loads(json.dumps(value, default=_to_builtin))


def _to_builtin(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Deadline(BaseException):
    """Raised by the per-case alarm; a BaseException so no handler in the
    program under test can swallow it."""


def _on_alarm(signum, frame):
    raise Deadline()


class CaseClock:
    """Times consecutive cases.  With a reference kernel, the kernel runs
    between cases and, if ``sample_inside``, every SAMPLE_EVERY_S of CPU
    time inside a case, from a SIGVTALRM handler.  ``reading`` gives the
    case's seconds without the kernel runs inside it, and its ``ref_s``: the
    median kernel time from the run just before the case to the run just
    after it.  ``spent`` is the time of all kernel runs so far.  Traced
    passes run without the kernel, so it adds nothing to any span.

    Cases that run in a forked child take no samples inside: there the
    case's copy-on-write faults also slow the kernel, unevenly, and on the
    seed code such samples made ``commutator-ladder`` twice as noisy."""

    def __init__(self, ref, sample_inside=True):
        self.ref = ref
        self.sample_inside = sample_inside and ref is not None
        self.spent = 0.0
        self._last = None
        self._samples, self._inside = [], 0.0
        self._start = self._seconds = None
        if ref is not None:
            # The first run in a freshly forked child pays its copy-on-write
            # page faults, so it is a warm-up and is not kept.
            ref()
            self._last = ref()
        if self.sample_inside:
            signal.signal(signal.SIGVTALRM, self._sample)

    def _sample(self, signum, frame):
        began = time.perf_counter()
        self._samples.append(self.ref())
        took = time.perf_counter() - began
        self._inside += took
        self.spent += took

    def start(self):
        self._samples, self._inside = [], 0.0
        if self.sample_inside:
            signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._start = time.perf_counter()

    def stop(self):
        if self.sample_inside:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        self._seconds = time.perf_counter() - self._start - self._inside

    def reading(self):
        out = {"seconds": self._seconds}
        if self.ref is not None:
            began = time.perf_counter()
            after = self.ref()
            self.spent += time.perf_counter() - began
            out["ref_s"] = statistics.median([self._last, after] + self._samples)
            self._last = after
        return out


def run_in_child(body):
    """Run ``body()`` in a forked child and return the dict it produced.

    The child sends its result as JSON through a pipe and exits without
    running the parent's cleanup.  A child that dies, or stays silent past
    CHILD_GRACE_S, yields ``{"error": ...}``.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        resource.setrlimit(resource.RLIMIT_CPU, (CHILD_GRACE_S, CHILD_GRACE_S + 5))
        code = 0
        try:
            try:
                result = body()
            except BaseException as exc:  # the child must always answer
                result = {"error": f"{type(exc).__name__}: {exc}"}
            payload = json.dumps(result, default=_to_builtin).encode()
            view = memoryview(payload)
            while view:
                view = view[os.write(write_fd, view):]
        except BaseException:
            code = 1
        finally:
            os._exit(code)
    os.close(write_fd)
    chunks = []
    limit = time.monotonic() + CHILD_GRACE_S
    try:
        while True:
            left = limit - time.monotonic()
            ready, _, _ = select.select([read_fd], [], [], max(left, 0.0))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                chunks = None
                break
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(read_fd)
        os.waitpid(pid, 0)
    if not chunks:
        return {"error": "child produced no result"}
    return json.loads(b"".join(chunks))


# -- suite-desk -------------------------------------------------------------

class SuiteDesk:
    """``simal suite --profile desk`` through ``cli.run``; the cases are the
    ten criteria, run in the order the seed draws."""

    name = "suite-desk"
    forked = False

    def setup(self, rng):
        from simal import cli

        return {"cli": cli, "argv": ["suite", "--profile", "desk"]}

    def run_pass(self, state, rng, tracer, ref):
        criteria = sorted(suite.CRITERIA, key=lambda entry: entry[0])
        order = list(criteria)
        rng.shuffle(order)
        times = {}
        clock = CaseClock(ref)
        suite.CRITERIA[:] = [
            (cid, title, _timed(fn, clock, times, cid)) for cid, title, fn in order
        ]
        tracer.case = "suite"
        start = time.perf_counter()
        try:
            code, report, _ = state["cli"].run(state["argv"])
            error = None
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        finally:
            seconds = time.perf_counter() - start - clock.spent
            suite.CRITERIA[:] = criteria
        records = {} if error else {
            rec["id"]: rec for rec in report["results"].get("criteria", [])
        }
        results = []
        for cid, _, _ in order:
            out = {"case": f"crit{cid}"}
            out.update(times.get(cid, {}))
            if cid in records:
                rec = records[cid]
                out["answer"] = _plain({"passed": rec["passed"], "details": rec["details"]})
            else:
                out["error"] = error or f"exit {code}, no record"
            results.append(out)
        return seconds, results

    def check(self, result, expected):
        want = expected["suite-desk"][result["case"]]
        got = result["answer"]
        if not got["passed"]:
            return "criterion failed"
        for key, value in want.items():
            if got["details"].get(key) != value:
                return f"details[{key!r}] is {got['details'].get(key)!r}, expected {value!r}"
        return None


def _timed(fn, clock, times, cid):
    def run_criterion(ctx):
        clock.start()
        try:
            return fn(ctx)
        finally:
            clock.stop()
            times[cid] = clock.reading()

    return run_criterion


# -- extensions-deep ---------------------------------------------------------

def _deep_extensions(names):
    """The named extensions of a freshly built deep corpus, tables unbuilt."""
    corpus = dict(default_corpus("deep")["extensions"])
    return {name: corpus.get(name) for name in names}


class ExtensionsDeep:
    """``classify_extension`` then ``em_factorization`` on each extension of
    the deep corpus.  The corpus is rebuilt before every pass, so lazy
    tables are paid inside the timed calls, as a command-line user pays them."""

    name = "extensions-deep"
    forked = False

    def setup(self, rng):
        names = list(load_expected()["extensions-deep"])
        return {"names": names, "corpus": _deep_extensions(names)}

    def run_pass(self, state, rng, tracer, ref):
        corpus = state.pop("corpus", None) or _deep_extensions(state["names"])
        order = list(state["names"])
        rng.shuffle(order)
        results = []
        clock = CaseClock(ref)
        for name in order:
            F = corpus[name]
            tracer.case = name
            out = {"case": name}
            clock.start()
            try:
                if F is None:
                    raise KeyError(f"{name} is not in the deep corpus")
                rep = galois.classify_extension(F)
                P, _, _ = galois.em_factorization(F)
            except Exception as exc:
                clock.stop()
                out["error"] = f"{type(exc).__name__}: {exc}"
            else:
                clock.stop()
                out["answer"] = {
                    "verdict": [bool(rep.trivial), bool(rep.central), bool(rep.normal)],
                    "em_middle_sizes": [lvl.size for lvl in P.levels],
                }
            out.update(clock.reading())
            results.append(out)
        return sum(r["seconds"] for r in results), results

    def check(self, result, expected):
        want = expected["extensions-deep"][result["case"]]
        if result["answer"] != want:
            return f"got {result['answer']}, expected {want}"
        return None


# -- ml-deep ------------------------------------------------------------------

class MlDeep:
    """``ml_factorization`` on each deep extension under a per-case deadline.
    A case that misses it is undecided, not failed, and is charged the limit.
    Each case runs the reference kernel first and arms its timer at the
    limit scaled to the speed that the kernel shows."""

    name = "ml-deep"
    forked = True

    def __init__(self, deadline=ML_DEADLINE_S):
        self.deadline = deadline

    def setup(self, rng):
        names = list(load_expected()["ml-deep"])
        return {"names": names, "corpus": _deep_extensions(names)}

    def run_pass(self, state, rng, tracer, ref):
        order = list(state["names"])
        rng.shuffle(order)
        results = []
        for name in order:
            F = state["corpus"][name]
            out = run_in_child(lambda: self._case(F, name, tracer, ref))
            out["case"] = name
            results.append(out)
        return sum(r.get("seconds", 0.0) for r in results), results

    def host_deadline(self, kernel):
        """The deadline in wall seconds at the host's present speed."""
        # The first run in a freshly forked child pays its copy-on-write
        # page faults, so it is a warm-up and is not kept.
        kernel()
        ref_s = statistics.median(kernel() for _ in range(5))
        return self.deadline * ref_s / reference.REFERENCE_S

    def _case(self, F, name, tracer, ref):
        if F is None:
            raise KeyError(f"{name} is not in the deep corpus")
        tracer.case = name
        # Traced passes time nothing with the kernel, but their deadline
        # still follows the host's speed.
        limit = self.host_deadline(ref or reference.Reference())
        signal.signal(signal.SIGALRM, _on_alarm)
        clock = CaseClock(ref, sample_inside=False)
        Z = None
        try:
            # The alarm may fire inside the inner finally, before it is
            # cancelled; the outer handler still catches it.
            try:
                signal.setitimer(signal.ITIMER_REAL, limit)
                clock.start()
                Z, _, m = galois.ml_factorization(F)
            finally:
                clock.stop()
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            Z = None
        out = {"trace": tracer.finish()}
        if Z is None:
            out.update(seconds=self.deadline, undecided=True)
            return out
        out.update(clock.reading())
        if out["seconds"] > limit:
            out.update(seconds=self.deadline, undecided=True)
            return out
        out.update(answer={
            "middle_sizes": [lvl.size for lvl in Z.levels],
            "middle_central": bool(galois.classify_extension(m).central),
        })
        return out

    def check(self, result, expected):
        want = expected["ml-deep"][result["case"]]
        got = result["answer"]
        if not got["middle_central"]:
            return "monotone-light middle is not central"
        if want is not None and got["middle_sizes"] != want:
            return f"middle sizes {got['middle_sizes']}, expected {want}"
        return None


# -- commutator-ladder -------------------------------------------------------

def relabel(alg, perm):
    """The isomorphic copy of ``alg`` whose element x is called perm[x]."""
    inv = np.argsort(perm)
    tables = {}
    for opname, arity in alg.signature.ops:
        t = alg.table(opname)
        if arity == 0:
            tables[opname] = perm[t]
        else:
            tables[opname] = perm[t[np.ix_(*([inv] * arity))]]
    return make_algebra(alg.name, alg.signature, tables, alg.maltsev_term)


def commutator_classes(name):
    """Classes of [1,1] = |G / G'|: n for Cn; for Dn, 4 if n is even else 2."""
    n = int(name[1:])
    if name[0] == "C":
        return n
    return 4 if n % 2 == 0 else 2


class CommutatorLadder:
    """``tc_commutator(full, full)`` on cyclic and dihedral groups whose
    carriers the seed relabels; the answer does not depend on the labels."""

    name = "commutator-ladder"
    forked = True

    def setup(self, rng):
        rungs = {}
        for name in LADDER:
            alg = named_algebra(name)
            perm = np.asarray(rng.sample(range(alg.size), alg.size), dtype=np.int64)
            rungs[name] = cg.full(relabel(alg, perm))
        return {"rungs": rungs}

    def run_pass(self, state, rng, tracer, ref):
        order = list(state["rungs"])
        rng.shuffle(order)
        results = []
        for name in order:
            full = state["rungs"][name]
            out = run_in_child(lambda: self._case(full, name, tracer, ref))
            out["case"] = name
            results.append(out)
        return sum(r.get("seconds", 0.0) for r in results), results

    @staticmethod
    def _case(full, name, tracer, ref):
        tracer.case = name
        clock = CaseClock(ref, sample_inside=False)
        rss_before = _maxrss_mb()
        clock.start()
        result = commutator.tc_commutator(full, full)
        clock.stop()
        out = {"rung_rss_mb": _maxrss_mb() - rss_before, "trace": tracer.finish()}
        out.update(clock.reading())
        out["answer"] = {"classes": result.class_count()}
        return out

    def check(self, result, expected):
        want = commutator_classes(result["case"])
        if result["answer"]["classes"] != want:
            return f"[1,1] has {result['answer']['classes']} classes, expected {want}"
        return None


WORKLOADS = {
    wl.name: wl for wl in (SuiteDesk, ExtensionsDeep, MlDeep, CommutatorLadder)
}
