import numpy as np
import pytest

import oracles
from simal.algebra import Homomorphism, identity_hom
from simal import congruences as cg
from simal import reflection
from simal.commutator import tc_commutator
from simal.corpus import (
    cyclic_group,
    default_corpus,
    discrete_groupoid,
    loops_graph,
    one_object_groupoid,
    pair_groupoid,
    sk1_two_truncation,
    symmetric_group,
    translation_graph,
    zk_module,
)
from simal.errors import (
    CompositionIllDefined,
    InvalidParameters,
    LevelTooLarge,
    PreconditionUnmet,
    PropertyViolation,
    TripleEqualityViolated,
)
from simal.galois import fiber_connectivity_relation, homotopy_relation
from simal.groupoid import maltsev_groupoid, validate_groupoid
from simal.reflection import (
    commutator_chain_check,
    face_meet,
    graph_reflection,
    homotopy_congruence,
    homotopy_congruence_level1,
    is_internal_groupoid,
    is_two_coskeletal_at_top,
    pi1,
    universal_property_check,
)
from simal.simplicial import (
    SimplicialMorphism,
    coskeleton,
    nerve,
    nerve_map,
    quotient_simplicial,
    simplicial_congruence_generated,
    simplicial_pullback,
    spine_maps,
    truncate,
)

C2 = cyclic_group(2)
C3 = cyclic_group(3)
C4 = cyclic_group(4)


def sk1_loops():
    return sk1_two_truncation(loops_graph(zk_module(2), zk_module(2)))


def cosk_loops():
    return coskeleton(loops_graph(C2, C2), 3)


def test_spine_maps_recover_carrier_columns():
    X = nerve(pair_groupoid(C3), 3)
    for n in (2, 3):
        cols = np.stack(spine_maps(X, n), axis=1)
        assert np.array_equal(cols, X.levels[n].carrier.rows)


@pytest.mark.parametrize("profile", ["desk", "deep"])
def test_face_meet_is_the_meet_of_the_face_kernels(profile):
    # face_meet is one kernel of the paired faces; the meet of the two
    # face kernels is the oracle, on every corpus object and, in deep,
    # on the self-pullback F x_Y F of every extension
    corpus = default_corpus(profile)
    objects = [X for _, X in corpus["objects"]]
    if profile == "deep":
        objects += [simplicial_pullback(F, F)[0]
                    for _, F in corpus["extensions"]]
    for X in objects:
        for n in range(1, X.truncation + 1):
            d = X.faces[n]
            for j in range(1, n + 1):
                for i in range(j):
                    assert face_meet(X, n, i, j) == cg.meet(
                        cg.kernel_pair(d[i]), cg.kernel_pair(d[j])), \
                        (X.name, n, i, j)


def test_homotopy_congruence_level1_formula():
    # h1 = d1(D0 /\ D2) computed from level-2 data
    X = cosk_loops()
    D = [cg.kernel_pair(d) for d in X.faces[2]]
    direct = cg.image(X.faces[2][1], cg.meet(D[0], D[2]))
    assert homotopy_congruence_level1(X) == direct


def test_homotopy_congruence_is_join_of_meets():
    X = cosk_loops()
    for n in (2, 3):
        D = [cg.kernel_pair(d) for d in X.faces[n]]
        meets = [
            cg.meet(D[i], D[j])
            for i in range(n + 1) for j in range(i + 1, n + 1)
        ]
        assert homotopy_congruence(X, n) == cg.join_all(meets)


@pytest.mark.parametrize("profile", ["desk", "deep"])
def test_degeneracies_carry_each_homotopy_congruence_into_the_next(profile):
    # the lemma behind reading triviality off the top level: every s_k
    # carries h_n into h_(n+1), on every corpus object of truncation
    # >= 2, the self-pullback of every extension, and, in desk, the
    # coskeleta of the loops graphs over C2, C3 and C4
    corpus = default_corpus(profile)
    objects = [X for _, X in corpus["objects"]] + [
        simplicial_pullback(F, F)[0] for _, F in corpus["extensions"]]
    if profile == "desk":
        objects += [coskeleton(loops_graph(B, G), 3)
                    for B in (C2, C3, C4) for G in (C2, C3, C4)]
    checked = 0
    for X in objects:
        if X.truncation < 2:
            continue
        h = reflection.homotopy_family(X)
        for n in range(X.truncation):
            for k, s in enumerate(X.degeneracies[n]):
                assert cg.leq(h[n], oracles.preimage(s, h[n + 1])), (
                    X.name, n, k)
                checked += 1
    assert checked > 100


def test_reflection_of_groupoid_nerve_is_isomorphic():
    for G in (pair_groupoid(C4), one_object_groupoid(C4),
              discrete_groupoid(C3)):
        X = nerve(G, 3)
        R = pi1(X)
        validate_groupoid(R.groupoid)
        assert oracles.is_groupoid_isomorphism(
            G, R.groupoid, *(c.map for c in R.unit.components[:2])
        )
        for comp in R.unit.components:
            assert comp.is_surjective()
            assert len(set(comp.map.tolist())) == len(comp.map)


def test_reflection_collapses_parallel_loops():
    R = pi1(cosk_loops())
    assert R.groupoid.objects.size == 2
    assert R.groupoid.arrows.size == 2
    assert [t.class_count() for t in R.h] == [2, 2, 2, 2]
    assert R.unit.is_levelwise_surjective()


def test_reflection_of_skeletal_object_keeps_arrows():
    R = pi1(sk1_loops())
    assert R.groupoid.arrows.size == 4
    assert [t.class_count() for t in R.h] == [2, 4, 8]


def test_reflection_is_idempotent():
    for X in (cosk_loops(), sk1_loops(),
              nerve(one_object_groupoid(C4), 3)):
        R = pi1(X)
        R2 = pi1(R.nerve)
        assert oracles.is_groupoid_isomorphism(
            R.groupoid, R2.groupoid, *(c.map for c in R2.unit.components[:2])
        )
        for comp in R2.unit.components:
            assert len(set(comp.map.tolist())) == len(comp.map)


def test_unit_kernel_is_homotopy_congruence():
    for X in (cosk_loops(), sk1_loops()):
        R = pi1(X)
        for n in range(1, X.truncation + 1):
            assert cg.kernel_pair(R.unit.components[n]) == R.h[n]


def test_reflection_requires_two_levels():
    X = nerve(pair_groupoid(C2), 1)
    with pytest.raises(PreconditionUnmet):
        pi1(X)


def test_reflection_bounds_its_nerve_by_the_budget():
    # the reflected nerve has levels of 4, 16, 64 and 256 elements
    X = nerve(pair_groupoid(C4), 3)
    with pytest.raises(LevelTooLarge):
        pi1(X, budget=10)


def test_universal_property_factors_through_unit():
    X = cosk_loops()
    R = pi1(X)
    # the unit itself must factor, with the identity as mediator
    g = universal_property_check(R, R.unit)
    for n in range(X.truncation + 1):
        assert np.array_equal(
            g.components[n].map, np.arange(R.nerve.levels[n].size)
        )


def test_universal_property_rejects_morphism_missing_kernel():
    # no checked simplicial morphism into a groupoid nerve can separate
    # homotopic arrows, so exercise the guard with a raw component
    # bundle that does
    from types import SimpleNamespace

    X = cosk_loops()
    R = pi1(X)
    Y = nerve(one_object_groupoid(C2), 3)
    f0 = np.zeros(X.levels[0].size, dtype=np.int64)
    f1 = np.ones(X.levels[1].size, dtype=np.int64)
    f1[X.degeneracies[0][0].map] = 0
    comps = [
        Homomorphism(X.levels[0], Y.levels[0], f0, check=False),
        Homomorphism(X.levels[1], Y.levels[1], f1, check=False),
    ]
    fake = SimpleNamespace(dom=X, cod=Y, components=comps)
    with pytest.raises(PropertyViolation):
        universal_property_check(R, fake)


def test_naturality_of_the_unit():
    from simal.galois import induced_groupoid_nerve_map

    corpus = default_corpus("desk")
    checked = 0
    for name, F in corpus["extensions"][:6]:
        RX, RY = pi1(F.dom), pi1(F.cod)
        nf = induced_groupoid_nerve_map(RX, RY, F)
        for n in range(F.dom.truncation + 1):
            lhs = nf.components[n].map[RX.unit.components[n].map]
            rhs = RY.unit.components[n].map[F.components[n].map]
            assert np.array_equal(lhs, rhs), (name, n)
        checked += 1
    assert checked == 6


def test_internal_groupoid_detection():
    assert is_internal_groupoid(nerve(pair_groupoid(C4), 3))
    assert is_internal_groupoid(nerve(one_object_groupoid(C4), 3))
    # fiberwise addition of loops is a groupoid structure, and the
    # skeletal two-truncation carries exactly its composable pairs
    assert is_internal_groupoid(sk1_loops())
    ok, entries = is_internal_groupoid(cosk_loops(), with_report=True)
    assert not ok
    assert any(not e["bijective"] for e in entries)


def test_two_coskeletal_detection():
    assert is_two_coskeletal_at_top(nerve(one_object_groupoid(C4), 3))
    assert is_two_coskeletal_at_top(cosk_loops())
    assert not is_two_coskeletal_at_top(sk1_loops())


def test_commutator_chain_patterns():
    # upper end strict for abelian loops, lower end strict for the
    # coskeleton, both ends tight for a pair groupoid nerve
    rep = commutator_chain_check(sk1_loops())
    assert rep["commutator_equal"] and not rep["meet_equal"]
    rep = commutator_chain_check(cosk_loops())
    assert rep["meet_equal"] and not rep["commutator_equal"]
    assert rep["classes"] == {"commutator": 4, "homotopy": 2, "meet": 2}
    rep = commutator_chain_check(nerve(pair_groupoid(C2), 2))
    assert rep["meet_equal"] and rep["commutator_equal"]


def _calls_on(calls, maps):
    """The calls whose map is one of maps (a loops graph's two faces are
    one map)."""
    return sum(any(f is m for m in maps) for f in calls)


def test_level1_readers_take_face_data_from_the_object_cache(monkeypatch):
    """The level-1 readers take the meet of both face kernels and h1 from
    the object's cache: over two passes their meet is built once, as the
    kernel of both faces, and h1, an image under each level-2 face,
    once.  graph_reflection and commutator_chain_check take the two face
    kernels anew on each call, and fiber_connectivity_relation takes the
    kernel of the pair (d_1, F_1) anew."""
    X = cosk_loops()
    F = quotient_simplicial(
        X, simplicial_congruence_generated(X, {1: [(0, 1)]}))[1]
    kernels, images = [], []
    kernel_pair, image = cg.kernel_pair, cg.image

    def spy_kernel_pair(*maps):
        kernels.append(maps)
        return kernel_pair(*maps)

    def spy_image(f, theta):
        images.append(f)
        return image(f, theta)

    monkeypatch.setattr(cg, "kernel_pair", spy_kernel_pair)
    monkeypatch.setattr(cg, "image", spy_image)
    for passes in (1, 2):
        graph_reflection(X)
        commutator_chain_check(X)
        homotopy_relation(X)
        fiber_connectivity_relation(F)
        assert _calls_on([m for m, *more in kernels if not more],
                         X.faces[1]) == 4 * passes
        assert [m for m in kernels if len(m) > 1
                and m[0].dom is X.levels[1]] == [tuple(X.faces[1])] + [
                    (X.faces[1][1], F.components[1])] * passes
        assert _calls_on(images, X.faces[2]) == 3


def test_graph_reflection_of_groupoid_nerve():
    G = pair_groupoid(C2)
    H, proj = graph_reflection(nerve(G, 2))
    validate_groupoid(H)
    assert oracles.is_groupoid_isomorphism(
        G, H, np.arange(G.objects.size), proj.map
    )
    assert proj.is_surjective()


def test_graph_reflection_differs_from_simplicial_reflection():
    # the graph route quotients by the commutator, the simplicial route
    # by the homotopy congruence; the coskeleton separates them
    X = cosk_loops()
    H, _ = graph_reflection(X)
    R = pi1(X)
    assert H.arrows.size == 4
    assert R.groupoid.arrows.size == 2


def test_graph_reflection_composition_is_maltsev():
    X = sk1_two_truncation(translation_graph(zk_module(4), zk_module(2), [0, 2]))
    H, proj = graph_reflection(X)
    validate_groupoid(H)
    assert H.arrows.size == 8


@pytest.mark.parametrize("profile", ["desk", "deep"])
def test_pi1_spine_composition_is_the_maltsev_composite(profile):
    # pi1 reads its composition off the spines of the 2-simplices; on a
    # groupoid in a Mal'tsev variety the composite p(g, s0 d1 g, f) is
    # forced, so the two routes build the same table
    for name, X in default_corpus(profile)["objects"]:
        G = pi1(X).groupoid
        M = maltsev_groupoid(G.objects, G.arrows, G.d0, G.d1, G.s0)
        assert np.array_equal(G.comp, M.comp), name


def test_maltsev_composite_on_a_graph_that_is_no_groupoid_is_rejected():
    # every edge of loops(C2, S3) is a loop, and the commutator of its
    # face kernels is not the diagonal: the composite multiplies the S3
    # fibers, which is no homomorphism on the composable pairs
    X = loops_graph(C2, symmetric_group(3))
    d0, d1 = X.faces[1]
    assert tc_commutator(cg.kernel_pair(d0), cg.kernel_pair(d1)).class_count() \
        < X.levels[1].size
    G = maltsev_groupoid(X.levels[0], X.levels[1], d0, d1, X.degeneracies[0][0])
    with pytest.raises(InvalidParameters, match="does not preserve 'mul'"):
        validate_groupoid(G)


# -- the guards and checks of reflection, fired one by one -----------------

def test_level1_homotopy_checks_the_other_face_images(monkeypatch):
    # the coskeleton's h1 joins the loops at each base point; a diagonal
    # meet of d1 and d2 makes the d0 route disagree with it
    meet = reflection.face_meet
    monkeypatch.setattr(
        reflection, "face_meet",
        lambda X, n, i, j: cg.diagonal(X.levels[2]) if (n, i, j) == (2, 1, 2)
        else meet(X, n, i, j))
    with pytest.raises(TripleEqualityViolated,
                       match="face images of the kernel meets"):
        homotopy_congruence_level1(cosk_loops())


def test_pi1_quotients_only_arrows_with_shared_faces(monkeypatch):
    # a family that lumps every arrow of the pair groupoid on C3
    family = reflection.homotopy_family
    monkeypatch.setattr(
        reflection, "homotopy_family",
        lambda X: [h if n != 1 else cg.full(h.on)
                   for n, h in enumerate(family(X))])
    with pytest.raises(PropertyViolation,
                       match="homotopic arrows must share both faces"):
        pi1(nerve(pair_groupoid(C3), 2))


def _first_edges_doubled(X, n):
    """Spines whose second edge repeats the first."""
    first = spine_maps(X, n)[0]
    return [first, first]


def _identity_then_composite(X, n):
    """Spines that compose each simplex's d1 after the identity at its
    source, so no other pair of arrows is composed."""
    d1 = X.faces[2][1].map
    return [X.degeneracies[0][0].map[X.faces[1][1].map[d1]], d1]


@pytest.mark.parametrize("spines, message", [
    (_first_edges_doubled, "simplices give conflicting composites"),
    (_identity_then_composite, "no simplex composes the class pair"),
])
def test_pi1_reads_one_composite_for_each_composable_pair(
    monkeypatch, spines, message
):
    # C2's nerve: the 2-simplices with first edge g have the composites
    # g and g + 1, and the spines of the second route leave (1, 1)
    # uncomposed
    monkeypatch.setattr(reflection, "spine_maps", spines)
    with pytest.raises(CompositionIllDefined, match=message):
        pi1(nerve(one_object_groupoid(C2), 2))


def test_universal_property_checks_its_reflection():
    X = cosk_loops()
    R = pi1(X)
    with pytest.raises(PreconditionUnmet, match="different object"):
        universal_property_check(pi1(nerve(pair_groupoid(C2), 3)), R.unit)
    # a unit that sends every simplex of the nerve Y of C2 to the
    # degenerate one at its one object is not onto at level 1
    Y = nerve(one_object_groupoid(C2), 3)
    RY = pi1(Y)
    flat = nerve_map(
        Y, RY.nerve,
        Homomorphism(Y.levels[0], RY.nerve.levels[0], [0], check=False),
        Homomorphism(Y.levels[1], RY.nerve.levels[1], [0, 0], check=False))
    lost = reflection.ReflectionResult(RY.groupoid, RY.nerve, flat, RY.h)
    with pytest.raises(PropertyViolation,
                       match="unit is not surjective at level 1"):
        universal_property_check(lost, RY.unit)


def test_universal_property_checks_the_factorization(monkeypatch):
    # a reflection that claims no arrows homotopic lets the identity of X
    # through the kernel check; the mediator read off the unit's sections
    # (its morphism check off) then misses the identity on the loops
    X = cosk_loops()
    R = pi1(X)
    liar = reflection.ReflectionResult(
        R.groupoid, R.nerve, R.unit, [cg.diagonal(lvl) for lvl in X.levels])
    identity = SimplicialMorphism(
        X, X, [identity_hom(lvl) for lvl in X.levels])
    monkeypatch.setattr(
        reflection, "SimplicialMorphism",
        lambda dom, cod, comps, check: SimplicialMorphism(dom, cod, comps,
                                                          check=False))
    with pytest.raises(PropertyViolation,
                       match="factorization misses the original morphism "
                             "at level 1"):
        universal_property_check(liar, identity)


def test_reflection_routes_refuse_objects_below_their_levels():
    X = nerve(pair_groupoid(C2), 2)
    with pytest.raises(PreconditionUnmet, match="needs a level of arrows"):
        graph_reflection(truncate(X, 0))
    with pytest.raises(PreconditionUnmet, match="needs at least two levels"):
        is_two_coskeletal_at_top(truncate(X, 1))


def test_commutator_chain_checks_its_sandwich(monkeypatch):
    # the full congruence is not below the coskeleton's h1
    monkeypatch.setattr(reflection, "tc_commutator",
                        lambda theta, psi: cg.full(theta.on))
    with pytest.raises(PropertyViolation, match="escapes its sandwich"):
        commutator_chain_check(cosk_loops())
