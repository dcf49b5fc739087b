import collections
import sys

import numpy as np
import pytest

import oracles
from simal import congruences as cg
from simal import galois, limits, reflection, simplicial, suite
from simal.algebra import FiniteAlgebra, Homomorphism, identity_hom
from simal.config import resolve_budget
from simal.corpus import (
    congruence_nerve_extension,
    cyclic_group,
    default_corpus,
    delooping_extension,
    loops_graph,
    one_object_groupoid,
    pair_groupoid,
    probe_kit,
    product_group,
)
from simal.errors import (
    CrossRouteMismatch,
    HomotopyMismatch,
    InvalidParameters,
    LevelTooLarge,
    NotLevelwiseSurjective,
    PreconditionUnmet,
    PropertyViolation,
)
from simal.galois import (
    classify_extension,
    em_factorization,
    exactness_lemma_check,
    fiber_connectivity_relation,
    homotopy_relation,
    is_trivial_extension,
    ml_factorization,
    relative_homotopy_relation,
    stabilizing_probe,
)
from simal.reflection import homotopy_congruence_level1, pi1
from simal.simplicial import (
    SimplicialMorphism,
    coskeleton,
    kan_check,
    nerve,
    simplicial_congruence_generated,
    simplicial_product,
    simplicial_pullback,
    quotient_simplicial,
    truncate,
)

CORPUS = default_corpus("desk")
EXTS = dict(CORPUS["extensions"])

EXPECTED = {
    "pairC4-pairC2": (True, True, True),
    "deloop-C4-C2": (True, True, True),
    "product-proj-left": (True, True, True),
    "product-proj-right": (True, True, True),
    "dec-counit-pairC4": (True, True, True),
    "augment-cosk-loops": (False, False, False),
    "unit-cosk-loops": (False, False, False),
    "quotient-cosk-fibers": (False, True, True),
    "quotient-sk1-transl": (True, True, True),
}


def test_classification_frozen_outcomes():
    for name, want in EXPECTED.items():
        rep = classify_extension(EXTS[name])
        assert (rep.trivial, rep.central, rep.normal) == want, name


def test_all_three_outcome_patterns_occur():
    seen = set()
    for name, F in CORPUS["extensions"]:
        rep = classify_extension(F)
        seen.add((rep.trivial, rep.central, rep.normal))
    assert (True, True, True) in seen
    assert (False, True, True) in seen
    assert (False, False, False) in seen


def test_implication_chain_on_every_extension():
    for name, F in CORPUS["extensions"]:
        rep = classify_extension(F)
        if rep.trivial:
            assert rep.central, name
        if rep.central:
            assert rep.normal, name


def test_report_serializes():
    rep = classify_extension(EXTS["quotient-cosk-fibers"])
    data = rep.to_json()
    assert data["trivial"] is False
    assert data["central"] is True
    assert all(e["bijective"] for e in data["fibration"])


def test_classification_rejects_non_surjections():
    from simal.algebra import Homomorphism
    from simal.simplicial import SimplicialMorphism

    Y = coskeleton(loops_graph(cyclic_group(2), cyclic_group(2)), 2)
    X = nerve(one_object_groupoid(cyclic_group(2)), 2)
    # no need for a meaningful map; surjectivity is checked first
    with pytest.raises(NotLevelwiseSurjective):
        f0 = np.zeros(1, dtype=np.int64)
        f1 = Y.degeneracies[0][0].map[f0]
        f2 = Y.degeneracies[1][0].map[f1]
        F = SimplicialMorphism(X, Y, [
            Homomorphism(X.levels[0], Y.levels[0], f0, check=False),
            Homomorphism(X.levels[1], Y.levels[1], np.repeat(f1, 2),
                         check=False),
            Homomorphism(X.levels[2], Y.levels[2], np.repeat(f2, 4),
                         check=False),
        ], check=False)
        classify_extension(F)


def _wrong_fibration(route):
    def wrong(F, budget):
        central, entries = route(F, budget=budget)
        return not central, entries
    return wrong


def _wrong_self_pullback(route):
    return lambda F, budget: not route(F, budget)


def _every_extension_trivial(route):
    return lambda F: True


def _criterion_record(monkeypatch, cid, corpus):
    monkeypatch.setattr(suite, "CRITERIA",
                        [c for c in suite.CRITERIA if c[0] == cid])
    monkeypatch.setattr(suite, "default_corpus", lambda profile: corpus)
    [record] = suite.run_suite("desk")
    return record


@pytest.mark.parametrize("route, fault, member, message", [
    ("_central_by_fibration", _wrong_fibration, "pairC4-pairC2",
     "lattice and horn-comparison centrality disagree"),
    ("_normal_by_self_pullback", _wrong_self_pullback, "pairC4-pairC2",
     "self-pullback triviality"),
    ("is_trivial_extension", _every_extension_trivial, "augment-cosk-loops",
     "trivial extension classified non-central"),
])
def test_a_route_answering_wrong_fails_classification_and_criterion_7(
    monkeypatch, route, fault, member, message
):
    # the three cross-route raises of galois._classification are the
    # only guard criterion 7 has on its flags
    corpus = default_corpus("desk")
    monkeypatch.setattr(galois, route, fault(getattr(galois, route)))
    with pytest.raises(CrossRouteMismatch, match=message):
        classify_extension(dict(corpus["extensions"])[member])
    record = _criterion_record(monkeypatch, 7, corpus)
    assert not record["passed"]
    assert record["details"]["error"] == "CrossRouteMismatch"
    assert message in record["details"]["message"]


def test_central_extension_trivializes_along_itself():
    q = EXTS["quotient-cosk-fibers"]
    assert not is_trivial_extension(q)
    P, p1, p2 = simplicial_pullback(q, q)
    assert is_trivial_extension(p1)
    assert is_trivial_extension(p2)


def test_non_central_extension_survives_its_self_pullback():
    F = EXTS["augment-cosk-loops"]
    P, p1, _ = simplicial_pullback(F, F)
    assert not is_trivial_extension(p1)


def test_trivial_covering_is_pullback_stable():
    F = EXTS["product-proj-left"]
    assert is_trivial_extension(F)
    P, p1, p2 = simplicial_pullback(F, F)
    assert is_trivial_extension(p1)


def test_em_factorization_composes_to_original():
    for name in ("pairC4-pairC2", "unit-cosk-loops", "quotient-cosk-fibers"):
        F = EXTS[name]
        Z, e, m = em_factorization(F)
        for n in range(F.dom.truncation + 1):
            assert np.array_equal(
                m.components[n].map[e.components[n].map],
                F.components[n].map,
            ), (name, n)
        assert is_trivial_extension(m), name


def _bijective(G):
    return all(
        c.is_surjective() and len(set(c.map.tolist())) == len(c.map)
        for c in G.components
    )


def test_em_first_part_is_iso_exactly_for_trivial_coverings():
    Z, e, _ = em_factorization(EXTS["pairC4-pairC2"])
    assert _bijective(e)
    assert [lvl.size for lvl in Z.levels] == [4, 16, 64]
    Z, e, _ = em_factorization(EXTS["unit-cosk-loops"])
    assert not _bijective(e)
    assert [lvl.size for lvl in Z.levels] == [2, 2, 2]
    Z, e, _ = em_factorization(EXTS["quotient-cosk-fibers"])
    assert not _bijective(e)


def test_ml_factorization_of_central_extension_is_lazy():
    # an already-central extension needs no quotient at all
    F = EXTS["quotient-cosk-fibers"]
    Z, e, m = ml_factorization(F)
    assert [lvl.size for lvl in Z.levels] == [2, 4, 16, 128]
    rep = classify_extension(m)
    assert rep.central


def test_ml_factorization_makes_the_second_part_central():
    # The lattice walk in tests/oracles.py never finishes on
    # augment-cosk-loops, so its frozen middle sizes come from the
    # fixpoint itself and are checked only by the centrality of m.
    for name, middle in (
        ("pairC4-pairC2", [4, 16, 64]),
        ("unit-cosk-loops", [2, 2, 2]),
        ("augment-cosk-loops", [2, 2, 2, 2]),
    ):
        F = EXTS[name]
        Z, e, m = ml_factorization(F)
        assert [lvl.size for lvl in Z.levels] == middle, name
        assert e.is_levelwise_surjective(), name
        assert m.is_levelwise_surjective(), name
        for n in range(F.dom.truncation + 1):
            assert np.array_equal(
                m.components[n].map[e.components[n].map],
                F.components[n].map,
            ), (name, n)
        assert classify_extension(m).central, name


def _ml_cross_check_cases():
    cases = [
        (name, F) for name, F in CORPUS["extensions"]
        if sum(lvl.size for lvl in F.dom.levels) <= 64
    ]
    # pulled back along a product projection, unit-cosk-loops stays
    # non-central, so the fixpoint has to take a real step
    F = EXTS["unit-cosk-loops"]
    _, first, _ = simplicial_product(F.cod, F.cod)
    _, _, pulled = simplicial_pullback(F, first)
    cases.append(("unit-cosk-loops-pulled", pulled))
    return cases


def test_ml_fixpoint_matches_lattice_walk():
    cases = _ml_cross_check_cases()
    assert len(cases) == 13
    for name, F in cases:
        _, e, _ = ml_factorization(F)
        _, e_walk, _ = oracles.ml_walk(F)
        for a, b in zip(e.components, e_walk.components):
            assert np.array_equal(a.map, b.map), name
    _, pulled = cases[-1]
    assert not classify_extension(pulled).central
    Z, _, _ = ml_factorization(pulled)
    assert [lvl.size for lvl in Z.levels] == [4, 4, 4]


# The deep extensions that are not central, so that their least central
# family is not the diagonal, with the middle level sizes of their ml.
ML_QUOTIENTS = {"augment-cosk-loops": [2, 2, 2, 2],
                "unit-cosk-loops": [2, 2, 2]}


def test_ml_of_a_central_extension_is_the_extension_itself(monkeypatch):
    calls = collections.Counter()

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    spy(cg, "quotient")
    spy(simplicial, "transport")
    extensions = default_corpus("deep")["extensions"]
    assert len(extensions) == 40
    for name, F in extensions:
        assert galois._central_by_lattice(F) == (name not in ML_QUOTIENTS)
        calls.clear()
        Z, e, m = ml_factorization(F)
        if name in ML_QUOTIENTS:
            assert calls["quotient"] and calls["transport"], name
            assert [lvl.size for lvl in Z.levels] == ML_QUOTIENTS[name]
            assert Z is not F.dom and m is not F, name
            continue
        assert not calls, name
        assert Z is F.dom and m is F, name
        assert e.dom is F.dom and e.cod is F.dom, name
        for c in e.components:
            assert np.array_equal(c.map, np.arange(c.dom.size)), name


def _flags(F):
    report = classify_extension(F)
    return report.trivial, report.central, report.normal


def test_top_level_verdicts_equal_the_verdicts_of_every_level():
    # the library reads triviality and lattice centrality off the top
    # level; the oracle reads every level, each meet from lone kernels
    for profile in ("desk", "deep"):
        for name, F in default_corpus(profile)["extensions"]:
            report = classify_extension(F)
            assert oracles.verdicts_by_levels(F) == (
                report.trivial, report.central), name


def test_the_self_pullback_route_equals_triviality_of_p1_at_every_level():
    # the route reads the self-pullback's top level alone, enumerated
    # only when X's top face meets are not diagonal; the oracle reads
    # every level of the full simplicial_pullback's p1.  The corpus
    # takes both of the route's paths, the loops population only the
    # enumerating one
    cases = (default_corpus("desk")["extensions"]
             + default_corpus("deep")["extensions"]
             + oracles.loops_population())
    normal = collections.Counter()
    for name, F in cases:
        _, p1, _ = simplicial_pullback(F, F)
        verdict = galois._normal_by_self_pullback(F, resolve_budget(None))
        assert verdict == oracles.verdicts_by_levels(p1)[0], name
        normal[verdict] += 1
    assert normal == {True: 147, False: 46}


def test_central_and_normal_are_stable_along_the_first_projection():
    # a law: pulling F: X -> Y back along the first projection
    # Y x Y -> Y, a regular epi, keeps and reflects centrality and
    # normality, and keeps triviality.  The deep extensions are left
    # out: pairC6-pairC3-t3's pullback has 104,976 simplices at level 3,
    # in fibres of 16, so the self-pullback route's 1,679,616 tuples
    # there raise LevelTooLarge at the default budget
    pulled_back = collections.Counter()
    for name, F in default_corpus("desk")["extensions"]:
        Y = F.cod
        YY, first, _ = simplicial_product(Y, Y)
        _, pulled, _ = simplicial_pullback(first, F)
        assert pulled.cod is YY, name
        report, along = classify_extension(F), classify_extension(pulled)
        assert (along.central, along.normal) == (
            report.central, report.normal), name
        assert along.trivial or not report.trivial, name
        pulled_back[report.central] += 1
    assert pulled_back == {True: 30, False: 2}


def _invariants(F):
    report = classify_extension(F)
    return ((report.trivial, report.central, report.normal),
            report.fibration_entries,
            [lvl.size for lvl in em_factorization(F)[0].levels],
            [lvl.size for lvl in ml_factorization(F)[0].levels])


def test_verdicts_and_sizes_are_kept_under_relabelling():
    # a law: a copy of F with every level renumbered by a seeded
    # permutation has F's flags, fibration entries and em and ml middle
    # level sizes
    cases = 0
    for profile in ("desk", "deep"):
        for k, (name, F) in enumerate(default_corpus(profile)["extensions"]):
            want = _invariants(F)
            for seed in (2 * k, 2 * k + 1):
                assert _invariants(oracles.relabel(F, seed)) == want, (
                    name, seed)
                cases += 1
    assert cases == 144


def test_classification_is_kept_one_level_up_and_one_down():
    # a law: classify(F) equals classify of F's coskeleton lift, and of
    # F cut down one level where that leaves two or more
    lifted = 0
    for name, F in default_corpus("desk")["extensions"]:
        flags = _flags(F)
        if name == "augment-cosk-loops":
            # the lift has 2048 simplices at level 4 over a codomain of
            # 2, so its self-pullback has 2 * 1024^2 there, past the
            # default budget
            with pytest.raises(LevelTooLarge,
                               match="tuple enumeration exceeds budget"):
                classify_extension(oracles.coskeleton_lift(F))
        else:
            assert _flags(oracles.coskeleton_lift(F)) == flags, name
            lifted += 1
    assert lifted == 31
    cut = 0
    for profile in ("desk", "deep"):
        for name, F in default_corpus(profile)["extensions"]:
            N = F.dom.truncation
            if N >= 3:
                lower = oracles.truncated_morphism(F, N - 1)
                assert _flags(lower) == _flags(F), name
                cut += 1
    assert cut > 20


def test_obstruction_seeds_match_the_pullback_oracle(monkeypatch):
    # ml closes the top level's (0, 1) meet over the diagonal, once, and
    # only when it is not the diagonal
    seeded = []

    def checked(X, seeds):
        seeded.append(seeds)
        return simplicial_congruence_generated(X, seeds)
    monkeypatch.setattr(galois, "simplicial_congruence_generated", checked)
    closures = collections.Counter()
    for profile in ("desk", "deep"):
        for name, F in default_corpus(profile)["extensions"]:
            X = F.dom
            N = X.truncation
            seeded.clear()
            ml_factorization(F)
            kernels = [cg.kernel_pair(c) for c in F.components]
            diagonal = [cg.diagonal(lvl) for lvl in X.levels]
            oracle = oracles.obstruction_seeds_by_pullback(
                X, kernels, diagonal)
            # the lemma in _central_by_lattice: the (0, 1) top meet is
            # trivial exactly when every pair's meet at every level is
            assert (not oracle[N, 0, 1]) == (not any(oracle.values())), name
            if seeded:
                [seeds] = seeded
                assert list(seeds) == [N], name
                assert [tuple(p) for p in seeds[N].tolist()] == \
                    oracle[N, 0, 1], name
                assert oracle[N, 0, 1], name
            else:
                assert not any(oracle.values()), name
            closures[len(seeded)] += 1
    # one closure on each of the four quotient cases (two per corpus),
    # none on the 68 central extensions
    assert closures == {0: 68, 1: 4}


@pytest.fixture(scope="module")
def loops_population():
    population = oracles.loops_population()
    assert len(population) == 121
    return population


def test_one_pair_of_faces_decides_the_top_triple_meets(loops_population):
    # the lemma in _central_by_lattice: on the 72 corpus extensions and
    # the 121 of oracles.loops_population (79 central, 42 not), the
    # N(N+1)/2 top triple meets ker F_N /\ ker d_i /\ ker d_j are all
    # trivial or none is, each read off np.unique
    extensions = loops_population + [
        member for profile in ("desk", "deep")
        for member in default_corpus(profile)["extensions"]]
    assert len(extensions) == 193
    verdicts = collections.Counter()
    for name, F in extensions:
        trivial = set(oracles.top_triple_meets_trivial(F).values())
        assert len(trivial) == 1, name
        verdicts[trivial.pop()] += 1
    assert verdicts == {True: 79 + 68, False: 42 + 4}


def test_ml_fixpoint_equals_the_fixpoint_seeded_by_every_pair(
        loops_population):
    # ml closes one pair of faces at the top level, once; the oracle's
    # fixpoint seeds every pair at every level, each face pulled back by
    # preimage, closes level by level and repeats until nothing is
    # added: the kernels of e are its families, on the 121 extensions of
    # oracles.loops_population and the 72 of the corpus
    extensions = loops_population + [
        member for profile in ("desk", "deep")
        for member in default_corpus(profile)["extensions"]]
    quotients = 0
    for name, F in extensions:
        _, e, _ = ml_factorization(F)
        fam = oracles.ml_fixpoint_by_levels(F)
        assert [cg.kernel_pair(c) for c in e.components] == fam, name
        quotients += not all(c.is_diagonal() for c in fam)
    assert quotients == 42 + 4


class _CountingDict(dict):
    def __init__(self):
        super().__init__()
        self.stores = collections.Counter()

    def __setitem__(self, key, value):
        self.stores[key] += 1
        super().__setitem__(key, value)


@pytest.mark.parametrize("builder, member", [
    ("_own_factorization", "quotient-cosk-fibers"),
    ("_quotient_cofactor", "unit-cosk-loops"),
])
def test_ml_rejects_a_cofactor_that_lost_surjectivity(
    monkeypatch, builder, member
):
    original = getattr(galois, builder)

    def lossy(*args):
        Z, e, m = original(*args)
        m.is_levelwise_surjective = lambda: False
        return Z, e, m

    monkeypatch.setattr(galois, builder, lossy)
    with pytest.raises(PropertyViolation, match="cofactor lost surjectivity"):
        ml_factorization(dict(default_corpus("desk")["extensions"])[member])


def test_ml_rejects_a_fixpoint_cofactor_that_is_not_central(monkeypatch):
    # with the suite's own re-check gone, this raise is criterion 9's
    # guard for the monotone-light middle: a closure that drops its
    # seeds leaves the cofactor X/Delta -> Y, which is F, not central
    monkeypatch.setattr(
        galois, "simplicial_congruence_generated",
        lambda X, seeds: [cg.diagonal(lvl) for lvl in X.levels])
    corpus = default_corpus("desk")
    with pytest.raises(PropertyViolation,
                       match="fixpoint cofactor is not central"):
        ml_factorization(dict(corpus["extensions"])["unit-cosk-loops"])
    record = _criterion_record(monkeypatch, 9, corpus)
    assert record["details"] == {
        "error": "PropertyViolation",
        "message": "fixpoint cofactor is not central",
    }


def test_ml_builds_each_face_meet_of_its_domain_once(monkeypatch):
    # the seeds and the final check read one three-column kernel of the
    # top level each, and keep no face meet on X: the seeds alone on X_N
    # for a central F, and the check of the cofactor on the middle
    # object's top level too otherwise
    tops = collections.Counter()
    real = cg.kernel_of_codes

    def counted(dom, columns):
        columns = list(columns)
        tops[dom, len(columns)] += 1
        return real(dom, columns)
    monkeypatch.setattr(cg, "kernel_of_codes", counted)
    for profile in ("desk", "deep"):
        for name, F in default_corpus(profile)["extensions"]:
            X = F.dom
            N = X.truncation
            X._derived = _CountingDict()
            tops.clear()
            Z, _, _ = ml_factorization(F)
            assert not [k for k in X._derived.stores if k[0] == "meet"], name
            want = {(X.levels[N], 3): 1}
            if Z is not X:
                want[Z.levels[N], 3] = 1
            assert tops == want, name


def test_homotopy_relation_matches_level1_congruence():
    for X in (coskeleton(loops_graph(cyclic_group(2), cyclic_group(2)), 3),
              nerve(pair_groupoid(cyclic_group(3)), 2)):
        assert homotopy_relation(X) == homotopy_congruence_level1(X)


def test_relative_relation_bounded_by_absolute():
    for name in ("pairC4-pairC2", "augment-cosk-loops",
                 "quotient-cosk-fibers"):
        F = EXTS[name]
        rel = relative_homotopy_relation(F)
        assert cg.leq(rel, homotopy_congruence_level1(F.dom)), name


def test_fiber_connectivity_of_augmentation_joins_fibers():
    F = EXTS["augment-cosk-loops"]
    rel = fiber_connectivity_relation(F)
    # the augmentation collapses levels over each base point, and every
    # base point carries a loop, so each point is connected to itself
    # only (loops do not move the base)
    assert rel == cg.diagonal(F.dom.levels[0])


def test_fiber_connectivity_sees_collapsed_objects():
    X = nerve(pair_groupoid(cyclic_group(4)), 2)
    carrier = X.levels[1].carrier
    identity = int(carrier.index_of(np.array([[0, 0]]))[0])
    jump = int(carrier.index_of(np.array([[0, 2]]))[0])
    parts = simplicial_congruence_generated(X, {1: [(identity, jump)]})
    Q, q = quotient_simplicial(X, parts)
    rel = fiber_connectivity_relation(q)
    # an arrow from 0 to 2 becomes an identity downstairs, so the
    # kernel-arrow relation connects those two objects
    assert rel.part[0] == rel.part[2]
    assert rel.class_count() == 2


def test_exactness_lemma_on_qualifying_pairs():
    for name in ("deloop-C4-C2", "augment-cosk-loops", "unit-pair-C2"):
        ok, details = exactness_lemma_check(EXTS[name])
        assert ok, name
        assert details["lhs_classes"] == details["rhs_classes"]


def test_exactness_lemma_requires_an_exact_base():
    with pytest.raises(PreconditionUnmet):
        exactness_lemma_check(EXTS["pairC4-pairC2"])


def test_stabilizing_probe_runs_over_probe_kit():
    from simal.algebra import Homomorphism
    from simal.corpus import probe_kit

    c2, c4 = cyclic_group(2), cyclic_group(4)
    incl = Homomorphism(c2, c4, [0, 2])
    probed, extensions = probe_kit(c4, incl, c2)
    report = stabilizing_probe(probed, extensions)
    assert report == [{"along": "collapse"}, {"along": "projection"}]


def _refuse_isomorphism(RX, RY, F):
    raise PropertyViolation("induced functor is not an isomorphism")


@pytest.mark.parametrize("check, fault, message", [
    ("_induced_isomorphism", _refuse_isomorphism,
     "induced functor is not an isomorphism"),
    ("_kernel_meets_homotopy_trivially", lambda m, h: False,
     "projection from the pullback is not trivial"),
])
def test_a_failing_em_check_raises_through_the_probe(
    monkeypatch, check, fault, message
):
    # em's own checks are the probe's pass condition
    c2, c4 = cyclic_group(2), cyclic_group(4)
    probed, extensions = probe_kit(c4, Homomorphism(c2, c4, [0, 2]), c2)
    monkeypatch.setattr(galois, check, fault)
    with pytest.raises(PropertyViolation, match=message):
        stabilizing_probe(probed, extensions)


def test_em_comparison_check_rejects_a_non_isomorphism():
    # pairC4-pairC2 is a nerve map between groupoids, so its own
    # reflections are its ends and the induced functor is C4 -> C2
    F = EXTS["pairC4-pairC2"]
    with pytest.raises(PropertyViolation, match="not an isomorphism"):
        galois._induced_isomorphism(pi1(F.dom), pi1(F.cod), F)


def test_em_builds_each_homotopy_family_once(monkeypatch):
    # each homotopy congruence h_n (n >= 2) is one join of face meets,
    # kept on its object; calls holds the level each join builds h on
    calls = []
    join_all = cg.join_all

    def counted(congs):
        calls.append(congs[0].on)
        return join_all(congs)

    monkeypatch.setattr(cg, "join_all", counted)
    # joined holds the carrier of every join, join_all's steps among them
    joined = []
    join = cg.join

    def counted_join(theta, psi):
        joined.append(theta.on)
        return join(theta, psi)

    monkeypatch.setattr(cg, "join", counted_join)
    tuples = []
    for module in (limits, simplicial):
        def enumerated(*args, _real=module.compatible_tuples, **kwargs):
            tuples.append(args)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, "compatible_tuples", enumerated)
    # built here, so no earlier test or corpus step has touched them
    c2, c4 = cyclic_group(2), cyclic_group(4)
    cosk = coskeleton(loops_graph(c2, c2), 3)
    fibers = simplicial_congruence_generated(cosk, {1: [(0, 1)]})
    fresh = {
        "pairC4-pairC2": congruence_nerve_extension(
            c4, cg.full(c4), cg.principal_congruence(c4, 0, 2), 2),
        "deloop-C4-C2": delooping_extension(
            Homomorphism(c4, c2, [0, 1, 0, 1]), 3),
        "quotient-cosk-fibers": quotient_simplicial(cosk, fibers)[1],
    }
    # the trivial ones are their own em factorization: only X's top
    # level is joined, for the triviality test; the other joins that
    # too, then the rest of X's levels and all of Y's and the middle
    # P's as it reflects them
    trivial = {"pairC4-pairC2": True, "deloop-C4-C2": True,
               "quotient-cosk-fibers": False}
    for name, F in fresh.items():
        X, Y = F.dom, F.cod
        N = X.truncation
        levels = N - 1
        calls.clear()
        P, _, _ = em_factorization(F)
        if trivial[name]:
            assert P is X, name
            assert calls == [X.levels[N]], name
        else:
            assert len(calls) == 3 * levels, name
            assert calls[0] is X.levels[N], name
            for Z in (X, Y, P):
                assert sum(c is lvl for c in calls
                           for lvl in Z.levels[2:]) == levels, name
        assert pi1(P).h == reflection.homotopy_family(P)
        # X and Y keep theirs: the first classification joins only on
        # its self-pullback's top level, the one level of it enumerated,
        # by one two-slot pullback of F_N along itself, folding its
        # N(N+1)/2 face-kernel meets into one running join; where X's
        # top face meets are diagonal, so are P's, and the route
        # enumerates and joins nothing
        calls.clear()
        joined.clear()
        tuples.clear()
        first = classify_extension(F)
        assert not calls, name
        pulled = [slots for slots, constraints in tuples
                  if any(m is c.map for _, m, _, _ in constraints
                         for c in F.components)]
        if trivial[name]:
            assert not joined and not pulled, name
        else:
            assert len(joined) == N * (N + 1) // 2 - 1, name
            assert all(on is joined[0] for on in joined), name
            assert joined[0].size == sum(
                np.bincount(F.components[N].map) ** 2), name
            assert len(pulled) == 1 and len(pulled[0]) == 2, name
            assert all(s is X.levels[N] for s in pulled[0]), name
        # F keeps its classification: a repeat joins and enumerates
        # nothing
        tuples.clear()
        calls.clear()
        joined.clear()
        again = classify_extension(F)
        assert not calls and not joined and not tuples, name
        assert again.to_json() == first.to_json(), name
        # off the trivial case, em builds its middle object, and its
        # homotopy congruences, anew on every call
        em_factorization(F)
        assert len(calls) == (0 if trivial[name] else 1) * levels, name
        assert not {id(c) for c in calls} & {
            id(lvl) for lvl in X.levels + Y.levels}, name


def _fresh(F):
    """A copy of F that keeps no classification or fibration entries."""
    return SimplicialMorphism(F.dom, F.cod, F.components, check=False)


def test_a_classification_is_kept_per_budget():
    F = _fresh(EXTS["quotient-cosk-fibers"])
    first = classify_extension(F)
    b = max(e["horn_size"] for e in kan_check(F.dom)) - 1
    with pytest.raises(LevelTooLarge) as fresh:
        classify_extension(_fresh(F), budget=b)
    with pytest.raises(LevelTooLarge) as kept:
        classify_extension(F, budget=b)
    assert str(kept.value) == str(fresh.value)
    # the raising call keeps nothing, and a kept result is not shared
    default = resolve_budget(None)
    assert set(F.derived) == {("classification", default),
                              ("fibration", default)}
    again = classify_extension(F, name="renamed")
    assert again.name == "renamed" and first.name == "extension"
    assert again.fibration_entries == first.fibration_entries
    assert all(a is not b for a, b in zip(again.fibration_entries,
                                          first.fibration_entries))
    assert (again.trivial, again.central, again.normal) == (
        first.trivial, first.central, first.normal)


def test_the_self_pullback_route_stops_at_the_budget():
    # |X_3 x_Y3 X_3| = 65,536 * 16 passes the default budget of 1M; the
    # horn counts before it do not
    c16 = cyclic_group(16)
    F = congruence_nerve_extension(
        c16, cg.full(c16), cg.principal_congruence(c16, 0, 8), 3)
    with pytest.raises(LevelTooLarge) as raised:
        classify_extension(F, budget=10 ** 6)
    frames = [entry.name for entry in raised.traceback]
    assert frames[-1] == "_normal_by_self_pullback"
    assert ("classification", 10 ** 6) not in F.derived


def _self_pullback_top(F):
    """P_N = X_N x_(Y_N) X_N of F: X -> Y and its projections, built
    by limits.pullback, with N the truncation of X."""
    FN = F.components[F.dom.truncation]
    return limits.pullback(FN, FN)


def test_the_self_pullback_route_raises_exactly_below_its_pullbacks_size():
    # the route charges |P_N| to the budget on both of its paths, where
    # pullback's enumeration raised, so one budget stops the same inputs
    # whether or not P_N is built
    for profile in ("desk", "deep"):
        for name, F in default_corpus(profile)["extensions"]:
            size = _self_pullback_top(F)[0].size
            with pytest.raises(LevelTooLarge,
                               match="tuple enumeration exceeds budget"):
                galois._normal_by_self_pullback(F, size - 1)
            assert galois._normal_by_self_pullback(F, size) == (
                classify_extension(F).normal), name


def test_the_face_meets_of_the_self_pullback_are_pulled_back_from_x():
    # the route's lemma: ker d_i /\ ker d_j on P_N, read by the oracle as
    # the kernel of d_i p1, d_i p2, d_j p1 and d_j p2, is the kernel of
    # L_ij p1 and L_ij p2, L_ij being ker d_i /\ ker d_j on X_N, and is
    # the diagonal exactly when L_ij is; and X's top face meets are all
    # diagonal or none is
    cases = (default_corpus("desk")["extensions"]
             + default_corpus("deep")["extensions"]
             + oracles.loops_population())
    assert len(cases) == 193
    diagonal = collections.Counter()
    for name, F in cases:
        X = F.dom
        N = X.truncation
        n = X.levels[N].size
        d = X.faces[N]
        PN, (p1, p2) = _self_pullback_top(F)
        seen = set()
        for j in range(1, N + 1):
            for i in range(j):
                L = reflection.face_meet(X, N, i, j)
                pulled = cg.kernel_of_codes(
                    PN, [(L.part[p1.map], n), (L.part[p2.map], n)])
                assert np.array_equal(pulled.part, oracles.least_members(
                    d[i].map[p1.map], d[i].map[p2.map],
                    d[j].map[p1.map], d[j].map[p2.map])), name
                assert pulled.is_diagonal() == L.is_diagonal(), name
                seen.add(L.is_diagonal())
        assert len(seen) == 1, name
        diagonal[seen.pop()] += 1
    assert diagonal == {True: 66, False: 127}


def test_the_self_pullback_route_codes_each_face_of_p_once(monkeypatch):
    # a first classification enumerates P_N only when X's top face meets
    # are not diagonal; then it takes each face-kernel meet of P_N by one
    # kernel_of_codes, N(N+1)/2 in all, and builds no map on P_N but
    # pullback's two projections
    sorted_on = []
    original = cg.kernel_of_codes

    def counted(dom, columns):
        sorted_on.append(dom)
        return original(dom, columns)

    monkeypatch.setattr(cg, "kernel_of_codes", counted)
    built = []
    init = Homomorphism.__init__

    def recorded(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Homomorphism, "__init__", recorded)
    pulled = []
    real_pullback = galois.pullback

    def kept(*args, **kwargs):
        pulled.append(real_pullback(*args, **kwargs))
        return pulled[-1]

    monkeypatch.setattr(galois, "pullback", kept)
    enumerated = 0
    for name, F in default_corpus("desk")["extensions"]:
        X = F.dom
        N = X.truncation
        sorted_on.clear()
        built.clear()
        pulled.clear()
        classify_extension(F)
        if all(reflection.face_meet(X, N, i, j).is_diagonal()
               for j in range(1, N + 1) for i in range(j)):
            assert not pulled, name
            assert all(any(on is lvl for lvl in X.levels + F.cod.levels)
                       for on in sorted_on), name
            continue
        (PN, projs), = pulled
        assert sum(on is PN for on in sorted_on) == N * (N + 1) // 2, name
        on_p = [h for h in built if h.dom is PN]
        assert len(on_p) == 2 and all(
            h is p for h, p in zip(on_p, projs)), name
        enumerated += 1
    assert enumerated == 3


def test_the_pullback_route_is_an_isomorphism_exactly_on_trivial_extensions():
    # em takes the trivial case on its own: there the pullback route's
    # comparison e is bijective, and nowhere else, and em's middle object
    # has the pullback's level sizes on every extension
    cases = CORPUS["extensions"] + default_corpus("deep")["extensions"]
    assert len(cases) == 72
    for name, F in cases:
        P, e, _ = galois._pullback_factorization(F)
        assert _bijective(e) == is_trivial_extension(F), name
        Z, _, _ = em_factorization(F)
        assert [lvl.size for lvl in Z.levels] == [
            lvl.size for lvl in P.levels], name


def _criterion9_probes():
    """The four pulled-back morphisms that criterion 9 em-factors."""
    c2, c4 = cyclic_group(2), cyclic_group(4)
    pulled = []
    for alg, incl_map in ((c4, [0, 2]), (product_group(c2, c2), [0, 1])):
        f, exts = probe_kit(alg, Homomorphism(c2, alg, incl_map), c2)
        pulled += [simplicial_pullback(f, g)[2] for _, g in exts]
    return pulled


def test_em_of_a_trivial_extension_reflects_and_pulls_back_nothing(
    monkeypatch
):
    calls = collections.Counter()
    for fn in ("pi1", "simplicial_pullback"):
        def counted(*args, _fn=getattr(galois, fn), _name=fn, **kw):
            calls[_name] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(galois, fn, counted)
    trivial = [(name, F) for name, F in CORPUS["extensions"]
               if is_trivial_extension(F)]
    assert len(trivial) == 29
    for name, F in trivial:
        calls.clear()
        Z, e, m = em_factorization(F)
        assert not calls, name
        assert Z is F.dom and m is F, name
        assert all(np.array_equal(c.map, np.arange(c.dom.size))
                   for c in e.components), name
    # criterion 9's probes are not levelwise surjective, so they still
    # take the pullback route
    probes = _criterion9_probes()
    assert len(probes) == 4
    for F in probes:
        assert not F.is_levelwise_surjective()
        calls.clear()
        em_factorization(F)
        assert calls["pi1"] == 3 and calls["simplicial_pullback"] == 1


def test_deep_classify_and_em_pass_builds_few_table_cells(monkeypatch):
    # constants are read without building a table, and groupoid validation
    # builds no algebra of composable pairs: the pass builds about 79k
    # cells, where forcing every table to read a constant built 6.8M
    extensions = default_corpus("deep")["extensions"]
    cells = []
    tables = FiniteAlgebra.tables

    def counted(alg):
        if alg._tables is None:
            cells.append(sum(int(t.size) for t in tables.fget(alg).values()))
        return tables.fget(alg)

    monkeypatch.setattr(FiniteAlgebra, "tables", property(counted))
    for _, F in extensions:
        classify_extension(F)
        em_factorization(F)
    assert sum(cells) <= 150_000


def _sorting_callers(monkeypatch):
    """Count the calls of canonical_partition by (caller, its check
    argument, if any)."""
    calls = collections.Counter()
    original = cg.canonical_partition

    def counted(labels):
        caller = sys._getframe(1)
        calls[caller.f_code.co_name, caller.f_locals.get("check")] += 1
        return original(labels)

    monkeypatch.setattr(cg, "canonical_partition", counted)
    return calls


def test_only_meet_and_checked_constructions_sort_labels(monkeypatch):
    # meet, the kernel of several code columns (kernel_pair of several
    # maps, the self-pullback route's meets and the top triple meet of
    # the lattice route) and a checked
    # construction sort; every other constructor makes least-member
    # labels without a sort
    calls = _sorting_callers(monkeypatch)
    counts = []
    for _ in range(2):
        extensions = dict(default_corpus("deep")["extensions"])
        calls.clear()
        for name in ("augment-cosk-loops", "unit-cosk-loops", "deloop-C8-C4"):
            classify_extension(extensions[name])
            em_factorization(extensions[name])
        assert set(calls) <= {("meet", None), ("kernel_of_codes", None),
                              ("__init__", True)}
        assert calls["meet", None] > 0 and calls["kernel_of_codes", None] > 0
        counts.append(dict(calls))
    assert counts[0] == counts[1]

    F = extensions["deloop-C8-C4"].components[1]
    calls.clear()
    theta = cg.kernel_pair(F)
    cg.image(F, theta)
    psi = cg.congruence_generated(F.dom, [(0, 1)], initial=cg.diagonal(F.dom))
    assert not calls
    # C8's congruences form a chain: a comparable join or meet returns
    # one of its arguments and sorts nothing
    assert cg.leq(theta, psi)
    assert cg.join(theta, psi) is psi and cg.meet(theta, psi) is theta
    assert not calls
    # ker F_2 and ker d_0 on C8 x C8 are not comparable: the join is
    # certified, and sorts once, in meet
    E = extensions["deloop-C8-C4"]
    kernel = cg.kernel_pair(E.components[2])
    face = cg.kernel_pair(E.dom.faces[2][0])
    assert not cg.leq(kernel, face) and not cg.leq(face, kernel)
    cg.join(kernel, face)
    assert dict(calls) == {("meet", None): 1}
    cg.Congruence(F.dom, theta.part)
    assert dict(calls) == {("meet", None): 1, ("__init__", True): 1}
    # the kernel of two maps sorts their pair codes once
    assert cg.kernel_pair(*E.dom.faces[2][:2]) == cg.meet(
        cg.kernel_pair(E.dom.faces[2][0]), cg.kernel_pair(E.dom.faces[2][1]))
    assert dict(calls) == {("meet", None): 2, ("__init__", True): 1,
                           ("kernel_of_codes", None): 1}


def _unbuilt(X):
    return [n for n, lvl in enumerate(X.levels) if lvl._tables is None]


def test_closures_build_no_table_of_the_levels_they_close():
    # the closure reads a level's translations through its evaluator, and
    # a closure that merges nothing reads none, so ml on these extensions,
    # whose obstruction seeds are empty, builds no level's table
    extensions = dict(default_corpus("deep")["extensions"])
    for name, unbuilt in (("pairC6-pairC3-t3", [1, 2, 3]),
                          ("deloop-C8-C4", [2, 3])):
        F = extensions[name]
        assert _unbuilt(F.dom) == unbuilt, name
        Z, _, _ = ml_factorization(F)
        assert [lvl.size for lvl in Z.levels] == \
            [lvl.size for lvl in F.dom.levels], name
        assert _unbuilt(F.dom) == unbuilt, name
    X = extensions["pairC6-pairC3-t3"].dom
    assert cg.congruence_generated(X.levels[3], []).is_diagonal()
    assert all(c.is_diagonal() for c in simplicial_congruence_generated(X, {}))
    assert _unbuilt(X) == [1, 2, 3]
    # one real seed: level 3 has 1296 elements, so its mul table would
    # hold 1.7M cells, and its translations are computed instead
    N = nerve(pair_groupoid(cyclic_group(6)), 3)
    parts = simplicial_congruence_generated(N, {3: [(0, 1)]})
    assert not parts[3].is_diagonal()
    assert N.levels[3]._tables is None
    assert parts == oracles.simplicial_closure_by_levels(N, {3: [(0, 1)]})


# -- the guards and checks of galois, fired one by one ---------------------

def _truncated(F, M):
    """F restricted to levels 0..M of its domain and codomain."""
    return SimplicialMorphism(truncate(F.dom, M), truncate(F.cod, M),
                              F.components[:M + 1], check=False)


def _identity(X):
    return SimplicialMorphism(X, X, [identity_hom(lvl) for lvl in X.levels],
                              check=False)


def _probe_at_level_one():
    c2, c4 = cyclic_group(2), cyclic_group(4)
    probed, _ = probe_kit(c4, Homomorphism(c2, c4, [0, 2]), c2)
    return _truncated(probed, 1)


@pytest.mark.parametrize("call, message", [
    (lambda: classify_extension(_truncated(EXTS["pairC4-pairC2"], 1)),
     "classification needs truncation >= 2"),
    # em has no guard of its own: a levelwise surjection stops in
    # is_trivial_extension, any other morphism in pi1
    (lambda: em_factorization(_truncated(EXTS["pairC4-pairC2"], 1)),
     "classification needs truncation >= 2"),
    (lambda: em_factorization(_probe_at_level_one()),
     "reflection needs truncation >= 2"),
    (lambda: homotopy_relation(truncate(EXTS["pairC4-pairC2"].dom, 1)),
     "level-1 homotopy needs two levels of faces"),
    (lambda: relative_homotopy_relation(_truncated(EXTS["pairC4-pairC2"], 1)),
     "relative relation needs 2-simplices"),
], ids=["classify", "em-surjective", "em-probe", "homotopy", "relative"])
def test_galois_refuses_objects_below_truncation_two(call, message):
    with pytest.raises(PreconditionUnmet, match=message):
        call()


def test_homotopy_relation_checks_the_lattice_value(monkeypatch):
    # the loops of the coskeleton at one base point are all homotopic, so
    # a diagonal lattice value misses the collected pairs
    X = coskeleton(loops_graph(cyclic_group(2), cyclic_group(2)), 2)
    monkeypatch.setattr(galois, "homotopy_congruence_level1",
                        lambda X: cg.diagonal(X.levels[1]))
    with pytest.raises(HomotopyMismatch,
                       match="thin-simplex relation differs"):
        homotopy_relation(X)


def test_a_morphism_must_descend_to_the_arrow_classes():
    # a reflection that claims every arrow of X homotopic: the identity
    # of X does not descend to its one class, since pi1(X) keeps two
    X = coskeleton(loops_graph(cyclic_group(2), cyclic_group(2)), 2)
    R = pi1(X)
    assert R.h[1].class_count() == 2
    lumped = reflection.ReflectionResult(
        R.groupoid, R.nerve, R.unit,
        [R.h[0], cg.full(X.levels[1])] + R.h[2:])
    with pytest.raises(PropertyViolation, match="does not descend"):
        galois.induced_groupoid_nerve_map(lumped, R, _identity(X))


def test_ml_rejects_a_fixpoint_above_the_kernel_family(monkeypatch):
    # a closure that answers the full congruences leaves the kernel of
    # the unit, which is the diagonal on objects
    monkeypatch.setattr(
        galois, "simplicial_congruence_generated",
        lambda X, seeds: [cg.full(lvl) for lvl in X.levels])
    with pytest.raises(PropertyViolation,
                       match="kernel family is not closed"):
        ml_factorization(EXTS["unit-cosk-loops"])


def test_stabilizing_probe_needs_an_exact_target_and_one_base():
    # the delooping's base is not exact at level 1
    with pytest.raises(PreconditionUnmet, match="probe target must be exact"):
        stabilizing_probe(EXTS["deloop-C4-C2"], [])
    c2, c4 = cyclic_group(2), cyclic_group(4)
    incl = Homomorphism(c2, c4, [0, 2])
    probed, _ = probe_kit(c4, incl, c2)
    _, elsewhere = probe_kit(c4, incl, c2)
    with pytest.raises(InvalidParameters,
                       match="extension collapse has a different base"):
        stabilizing_probe(probed, elsewhere)
