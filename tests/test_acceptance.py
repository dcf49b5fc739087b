"""The ten-point acceptance battery.

Each test runs one criterion of the property suite over the built-in
desk corpus and prints its verdict line, so a verbose run shows one
pass/fail line per criterion.  Every check is an exact equality of
finite structures; there are no tolerances anywhere.
"""

import types

import numpy as np
import pytest

from simal import congruences as cg
from simal.algebra import Homomorphism
from simal.cli import run
from simal.corpus import (
    cyclic_group,
    default_corpus,
    loops_graph,
    one_object_groupoid,
)
from simal import galois, simplicial, suite
from simal.errors import IdentityViolated, PreconditionUnmet, SimalError
from simal.suite import CRITERIA, run_suite

_BY_ID = {cid: (title, fn) for cid, title, fn in CRITERIA}
_CTX = {}


def _context():
    if not _CTX:
        _CTX.update({
            "corpus": default_corpus("desk"),
            "profile": "desk",
            "budget": None,
        })
    return _CTX


def _run(cid):
    title, fn = _BY_ID[cid]
    try:
        details = fn(_context())
    except SimalError as exc:
        print(f"criterion {cid:2d}: FAIL  {title}  "
              f"[{type(exc).__name__}: {exc}]")
        raise
    print(f"criterion {cid:2d}: PASS  {title}")
    return details


def test_criterion_01_congruence_joins_and_modular_law():
    details = _run(1)
    assert details["join_pairs"] > 0
    assert details["modular_triples"] > 0


def test_criterion_02_face_squares_are_double_extensions():
    details = _run(2)
    assert details["squares"] > 0


def test_criterion_03_triple_equality_and_images_of_meets():
    details = _run(3)
    assert details["h1_objects"] > 0
    assert details["level3_identities"] > 0
    assert details["pushed_meets"] > 0


def test_criterion_04_unit_kernels_and_universal_property():
    details = _run(4)
    assert details["unit_kernel_levels"] > 0
    assert sum(details["morphisms_factored"].values()) > 0


def test_criterion_04_keeps_the_graph_morphisms_that_extend_alone():
    # a 2-simplex of the coskeleton of C2's loops is any three loops at
    # one base point, so the graph morphism reading each loop's C2
    # coordinate does not respect the 2-simplices: nerve_map turns it
    # down, and the zero morphism is the one candidate kept
    C2 = cyclic_group(2)
    X = simplicial.coskeleton(loops_graph(C2, C2), 2)
    G = one_object_groupoid(C2)
    NG = simplicial.nerve(G, 2)
    fiber = X.levels[1].carrier.rows[:, 1]
    candidates = [f1.tolist() for _, f1 in suite._graph_morphisms(X, G)]
    assert sorted(candidates) == [[0] * 4, fiber.tolist()]
    with pytest.raises(IdentityViolated):
        simplicial.nerve_map(
            X, NG, Homomorphism(X.levels[0], NG.levels[0], [0, 0]),
            Homomorphism(X.levels[1], NG.levels[1], fiber))
    kept = suite._nerve_morphisms(X, G, NG)
    assert [F.components[1].map.tolist() for F in kept] == [[0] * 4]


def test_criterion_05_groupoid_characterization_and_closure():
    details = _run(5)
    assert details["levels_compared"] > 0
    assert details["quotients"] > 0
    assert details["subobjects"] > 0


def test_criterion_05_checks_each_rebuilt_object_once(monkeypatch):
    """transport checks the simplicial identities of every quotient and
    image subobject criterion 5 rebuilds, and the criterion checks only
    that their faces and degeneracies are homomorphisms."""
    rebuilt, validated, checked = [], [], []
    quotient, image = suite.quotient_simplicial, suite._image_subobject
    validate = simplicial.validate_simplicial
    check = simplicial.check_homomorphism

    def spy_quotient(*args):
        out = quotient(*args)
        rebuilt.append(out[0])
        return out

    def spy_image(*args):
        rebuilt.append(image(*args))
        return rebuilt[-1]

    def spy_validate(X, *args, **kwargs):
        validated.append(X)
        return validate(X, *args, **kwargs)

    def spy_check(h):
        checked.append(h)
        return check(h)

    monkeypatch.setattr(suite, "quotient_simplicial", spy_quotient)
    monkeypatch.setattr(suite, "_image_subobject", spy_image)
    for module in (simplicial, suite):
        monkeypatch.setattr(module, "validate_simplicial", spy_validate,
                            raising=False)
        monkeypatch.setattr(module, "check_homomorphism", spy_check,
                            raising=False)
    details = _run(5)
    assert len(rebuilt) == details["quotients"] + details["subobjects"] == 12
    assert [sum(X is Y for Y in validated) for X in rebuilt] == [1] * 12
    assert all(any(f is h for h in checked)
               for X in rebuilt for _, _, _, f in simplicial._structure_maps(X))


def test_criterion_06_kan_property_and_fibrations():
    details = _run(6)
    assert details["horn_maps"] > 0
    assert details["comparison_maps"] > 0


def test_criterion_07_dual_route_extension_classification():
    details = _run(7)
    assert details["extensions"] >= 30


def test_criterion_08_homotopy_relations_match_lattice_formulas():
    details = _run(8)
    assert details["absolute"] > 0
    assert details["relative"] > 0
    assert details["connectivity"] > 0


def test_criterion_09_exactness_monotone_light_stabilization():
    details = _run(9)
    assert details["exactness_pairs"] > 0
    assert len(details["ml_factorizations"]) > 0
    assert len(details["stable_pullbacks"]) > 0


def test_criterion_10_coskeletal_meet_commutators_graphs_heyting():
    details = _run(10)
    assert details["coskeletal_objects"] > 0
    assert details["chains"] > 0
    assert details["graph_morphisms_factored"] > 0
    assert details["heyting_objects"] > 0


def test_a_small_budget_fails_every_criterion_that_builds_past_it():
    records = run_suite("desk", budget=20)
    failed = {r["id"]: r["details"]["error"] for r in records
              if not r["passed"]}
    assert failed == dict.fromkeys([2, 4, 5, 6, 7, 9, 10], "LevelTooLarge")


BUDGETED = ["is_double_extension", "pi1", "nerve", "is_two_coskeletal_at_top",
            "kan_check", "kan_fibration_check", "classify_extension",
            "exactness_lemma_check", "em_factorization", "stabilizing_probe",
            "exactness_check"]


def test_every_budgeted_call_of_the_suite_gets_the_run_budget(monkeypatch):
    budget = 10 ** 6 + 1
    seen = []

    def spy(name, fn):
        def call(*args, **kwargs):
            seen.append((name, kwargs.get("budget")))
            return fn(*args, **kwargs)
        return call

    for name in BUDGETED:
        monkeypatch.setattr(suite, name, spy(name, getattr(suite, name)))
    records = run_suite("desk", budget=budget)
    assert all(r["passed"] for r in records)
    assert {name for name, _ in seen} == set(BUDGETED)
    assert [call for call in seen if call[1] != budget] == []


@pytest.mark.parametrize("profile, digest", [
    ("desk",
     "54f92662c8f6d291e398f1f3fe88943c9e98833530d61f3fd93c3be269fa58bc"),
    ("deep",
     "c84fea7815427fad19e0dbf37da63aa3cd64b93ee9fe645efad155e6a30dff36"),
])
def test_suite_report_hash_is_pinned(profile, digest):
    # every verdict and detail of the battery goes into report_hash, so
    # a change that keeps the verdicts keeps both digests
    code, report, _ = run(["suite", "--profile", profile])
    assert code == 0
    assert report["report_hash"] == digest


# -- every criterion check fires --------------------------------------------
#
# Each row replaces one name bound in simal.suite by a fault built from
# the original, and names the criterion that the fault makes fail with
# the error and message of its record.  The criterion runs through
# run_suite, which builds a fresh desk corpus, so no result an earlier
# test kept on a corpus member hides the fault.


def _with(module, **names):
    """A copy of module's namespace with the given names replaced."""
    copy = types.ModuleType(module.__name__)
    copy.__dict__.update(vars(module))
    copy.__dict__.update(names)
    return copy


def _not_a_groupoid(*args):
    """The coskeleton of C2's loops, which is not a groupoid nerve."""
    c2 = cyclic_group(2)
    return simplicial.coskeleton(loops_graph(c2, c2), 3)


def _full_homotopy_family(pi1):
    def fault(X, budget=None):
        R = pi1(X, budget=budget)
        R.h = [cg.full(level) for level in R.nerve.levels]
        return R
    return fault


def _rolled_projection(graph_reflection):
    # the reflections of criterion 10 are bijective on arrows, so a
    # projection rolled by one sends some arrow to another's class
    def fault(X):
        G, proj = graph_reflection(X)
        return G, Homomorphism(proj.dom, proj.cod, np.roll(proj.map, 1),
                               check=False)
    return fault


def _constant_composition(pair_groupoid):
    def fault(alg):
        G = pair_groupoid(alg)
        G.comp = np.where(G.comp >= 0, 0, G.comp)
        return G
    return fault


def _first_29_extensions(default_corpus):
    def fault(profile):
        corpus = default_corpus(profile)
        return {**corpus, "extensions": corpus["extensions"][:29]}
    return fault


def _non_central_own_answer(ml_factorization):
    # an ml that answers every extension with augment-cosk-loops, which is
    # not central, as its own factorization
    wrong = dict(default_corpus("desk")["extensions"])["augment-cosk-loops"]
    return lambda F: galois._own_factorization(wrong)


def _no_extension_qualifies(F, budget=None):
    raise PreconditionUnmet("no extension qualifies")


FAULTS = [
    (1, "_closure_join_oracle",
     lambda oracle: lambda th, ps: np.zeros(th.on.size, dtype=np.int64),
     "join mismatch against closure oracle on C2"),
    (1, "cg", lambda real: _with(real, meet=lambda a, b: real.diagonal(a.on)),
     "modular law fails on C2"),
    (2, "is_double_extension", lambda real: lambda *args, **kwargs: False,
     "face square (0,1) at level 2 of pair-C2-t3 is not a double extension"),
    (3, "face_meet",
     lambda real: lambda X, n, i, j: (
         cg.full(X.levels[n]) if n == 3 else real(X, n, i, j)),
     "d_2(D_0 meet D_1) misses its target on pair-C2-t3"),
    # only the extensions' ends have truncation 2 in criterion 3, and a
    # congruence named by element labels does not travel along them
    (3, "face_meet",
     lambda real: lambda X, n, i, j: (
         cg.principal_congruence(X.levels[n], 0, 1) if X.truncation == 2
         else real(X, n, i, j)),
     "image of D_0 meet D_1 under congC4-discC2 at level 2 is not the "
     "codomain meet"),
    (4, "pi1", _full_homotopy_family,
     "kernel of the unit at level 2 of pair-C2-t3 is not the join of the "
     "pairwise meets"),
    (4, "_nerve_morphisms", lambda real: lambda *args: [],
     "no morphisms enumerated for the check"),
    (5, "groupoid_injectivity_conditions",
     lambda real: lambda X, n: (True, False, True),
     "conditions disagree at level 2 of pair-C2-t3: True, False, True"),
    (5, "is_internal_groupoid", lambda real: lambda X: not real(X),
     "groupoid detection disagrees with the conditions on pair-C2-t3"),
    (5, "quotient_simplicial",
     lambda real: lambda X, parts: (_not_a_groupoid(), None),
     "quotient of the groupoid nerve pair-C2-t3 lost the groupoid property"),
    (5, "_image_subobject", lambda real: _not_a_groupoid,
     "subobject pair-C2-in-C4 of a groupoid nerve lost the groupoid "
     "property"),
    (7, "default_corpus", _first_29_extensions,
     "corpus provides only 29 extensions"),
    (9, "exactness_lemma_check",
     lambda real: lambda F, budget=None: (False, "made to fail"),
     "exactness lemma fails on pairC4-pairC2: made to fail"),
    (9, "exactness_lemma_check", lambda real: _no_extension_qualifies,
     "no extension qualified for the lemma"),
    (10, "homotopy_congruence_level1",
     lambda real: lambda X: cg.full(X.levels[1]),
     "object pair-C2-t3 is exact at the arrow level but its homotopy "
     "congruence is below the meet"),
    (10, "exactness_check",
     lambda real: lambda X, level, budget=None: (False, {}),
     "no object was exact at the arrow level"),
    (10, "commutator_chain_check",
     lambda real: lambda X: {"meet_equal": True, "commutator_equal": True},
     "corpus does not realize both strict ends of the chain"),
    (10, "graph_reflection", _rolled_projection,
     "graph morphism does not descend to the reflection"),
    (10, "pair_groupoid", _constant_composition,
     "descended morphism is not a functor"),
    (10, "_graph_morphisms", lambda real: lambda *args: [],
     "no graph morphisms enumerated"),
    (10, "tc_commutator", lambda real: lambda a, b: cg.full(a.on),
     "commutator is not the meet on H-chain3"),
    # B(C4) has four homotopy classes of arrows over one object
    (10, "congruence_nerve",
     lambda real: lambda *args: simplicial.nerve(
         one_object_groupoid(cyclic_group(4)), 3),
     "Heyting object nerve(C4) misses the meet identity"),
    (10, "pi1",
     lambda real: lambda X, budget=None: real(
         simplicial.nerve(one_object_groupoid(cyclic_group(2)), 2),
         budget=budget),
     "Heyting reflection of N(H-chain3,1cl) is not an equivalence relation"),
    # last, so that the rows above keep their ids
    (9, "ml_factorization", _non_central_own_answer,
     "ml cofactor of discC4-discC2 is not central"),
]


@pytest.mark.parametrize("cid, name, fault, message", FAULTS,
                         ids=[f"{row[0]}-{row[1]}-{k}"
                              for k, row in enumerate(FAULTS)])
def test_every_criterion_check_fires(monkeypatch, cid, name, fault, message):
    monkeypatch.setattr(suite, name, fault(getattr(suite, name)))
    monkeypatch.setattr(suite, "CRITERIA",
                        [c for c in suite.CRITERIA if c[0] == cid])
    [record] = run_suite("desk")
    assert record["details"] == {"error": "PropertyViolation",
                                 "message": message}
    assert not record["passed"]


# faults that reach one criterion of the whole battery
THROUGH_CLI = [row for row in FAULTS if row[1] in (
    "is_double_extension", "_image_subobject", "tc_commutator")]


@pytest.mark.parametrize("cid, name, fault, message", THROUGH_CLI,
                         ids=[row[1] for row in THROUGH_CLI])
def test_a_failing_check_makes_simal_suite_exit_2(monkeypatch, cid, name,
                                                  fault, message):
    monkeypatch.setattr(suite, name, fault(getattr(suite, name)))
    code, report, _ = run(["suite"])
    assert code == 2
    assert report["violations"] == [
        {"property": f"criterion {cid}", "witness": message}]
