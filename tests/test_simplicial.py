import contextlib
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from simal.algebra import Homomorphism, identity_hom
from simal import algebra
from simal import congruences as cg
from simal.corpus import (
    bundle_groupoid,
    congruence_groupoid,
    cyclic_group,
    default_corpus,
    discrete_groupoid,
    inner_coset_groupoid,
    alternating_indices,
    loops_graph,
    one_object_groupoid,
    pair_groupoid,
    sk1_two_truncation,
    symmetric_group,
    zk_module,
)
from simal.errors import (
    BudgetError,
    IdentityViolated,
    InvalidParameters,
    PreconditionUnmet,
)
from simal.groupoid import InternalGroupoid, validate_groupoid
from simal.simplicial import (
    SimplicialMorphism,
    TruncatedSimplicialAlgebra,
    constant_simplicial,
    coskeleton,
    decalage,
    exactness_check,
    nerve,
    nerve_map,
    quotient_simplicial,
    simplicial_congruence_generated,
    simplicial_kernel,
    simplicial_product,
    simplicial_pullback,
    truncate,
    validate_simplicial,
)

C2 = cyclic_group(2)
C3 = cyclic_group(3)
C4 = cyclic_group(4)
S3 = symmetric_group(3)


def groupoid_zoo():
    return [
        pair_groupoid(C4),
        discrete_groupoid(C4),
        one_object_groupoid(C4),
        bundle_groupoid(C2, C3),
        inner_coset_groupoid(S3, alternating_indices(S3)),
    ]


def test_groupoids_validate():
    for G in groupoid_zoo():
        validate_groupoid(G)


def test_groupoid_composition_tables_are_total_on_composables():
    for G in groupoid_zoo():
        need = G.d1.map[:, None] == G.d0.map[None, :]
        assert ((G.comp >= 0) == need).all()


def test_composable_pairs_algebra_size():
    G = pair_groupoid(C3)
    assert int((G.comp >= 0).sum()) == 27


# A loop of order 5 with unit 0: a Latin square, so units and inverses
# exist, but not associative
LOOP5 = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                  [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])


@pytest.mark.parametrize("G, chunk_cells", [
    (one_object_groupoid(cyclic_group(5)), None),
    (bundle_groupoid(cyclic_group(5), C2), None),
    (one_object_groupoid(cyclic_group(5)), 1),
    (bundle_groupoid(cyclic_group(5), C2), 1),
], ids=["one-object", "bundle", "one-object-slabs", "bundle-slabs"])
def test_non_associative_composition_rejected(monkeypatch, G, chunk_cells):
    # the loop replaces the composition at the last object, whose arrows
    # are listed with the identity first; the associativity check finds
    # it whether or not it runs in slabs of one arrow
    if chunk_cells is not None:
        monkeypatch.setattr(algebra, "TABLE_CHUNK_CELLS", chunk_cells)
    at = np.nonzero(G.d0.map == G.objects.size - 1)[0]
    assert at[0] == G.s0.map[-1]
    comp = G.comp.copy()
    comp[np.ix_(at, at)] = at[LOOP5]
    H = InternalGroupoid(G.objects, G.arrows, G.d0, G.d1, G.s0, comp)
    with pytest.raises(IdentityViolated, match="associativity fails"):
        validate_groupoid(H)


@pytest.mark.parametrize("chunk_cells", [None, 1])
def test_eckmann_hilton_rejects_a_unital_law_that_is_no_homomorphism(
    monkeypatch, chunk_cells
):
    # C4's addition relabelled by the permutation swapping 1 and 2 is a
    # group law with unit 0, so every category axiom holds; by
    # Eckmann-Hilton it would have to equal the addition to be internal.
    # The witness is the first failing pair of composable-pair indices,
    # ((0, 1), (1, 0)), whether or not the check runs in slabs.
    if chunk_cells is not None:
        monkeypatch.setattr(algebra, "TABLE_CHUNK_CELLS", chunk_cells)
    G = one_object_groupoid(C4)
    swap = np.array([0, 2, 1, 3])
    comp = swap[C4.table("mul")[np.ix_(swap, swap)]].astype(np.int64)
    H = InternalGroupoid(G.objects, G.arrows, G.d0, G.d1, G.s0, comp)
    H.inverse_map()
    with pytest.raises(InvalidParameters) as exc:
        validate_groupoid(H)
    assert str(exc.value) == "map does not preserve 'mul' at arguments (1, 4)"


def test_broken_unit_rejected():
    G = pair_groupoid(C2)
    bad = Homomorphism(G.objects, G.arrows,
                       [int(G.s0.map[0])] * G.objects.size, check=False)
    H = InternalGroupoid(G.objects, G.arrows, G.d0, G.d1, bad, G.comp)
    with pytest.raises(IdentityViolated):
        validate_groupoid(H)


@pytest.mark.parametrize("slot", ["d0", "d1", "s0"])
def test_structure_maps_with_wrong_endpoints_rejected(slot):
    # no file gives these: the loader builds each map between the
    # algebras its slot names
    G = pair_groupoid(C2)
    maps = {"d0": G.d0, "d1": G.d1, "s0": G.s0}
    maps[slot] = G.d0 if slot == "s0" else G.s0
    H = InternalGroupoid(G.objects, G.arrows, maps["d0"], maps["d1"],
                         maps["s0"], G.comp)
    with pytest.raises(InvalidParameters, match=f"{slot} endpoints wrong"):
        validate_groupoid(H)


def _inverse_candidates(G):
    """For each arrow f, every g running the other way with both
    composites identities, found one pair at a time."""
    d0, d1, s0 = G.d0.map, G.d1.map, G.s0.map
    return [
        [g for g in range(G.arrows.size)
         if d0[g] == d1[f] and d1[g] == d0[f]
         and G.comp[f, g] == s0[d0[f]] and G.comp[g, f] == s0[d1[f]]]
        for f in range(G.arrows.size)
    ]


def test_inverse_map_matches_the_search(monkeypatch):
    # in one slab, and in slabs of one arrow
    for G in (one_object_groupoid(C4), pair_groupoid(cyclic_group(3)),
              discrete_groupoid(C4)):
        want = _inverse_candidates(G)
        assert all(len(found) == 1 for found in want)
        for chunk_cells in (algebra.TABLE_CHUNK_CELLS, 1):
            monkeypatch.setattr(algebra, "TABLE_CHUNK_CELLS", chunk_cells)
            assert G.inverse_map().tolist() == [found[0] for found in want]


@pytest.mark.parametrize("broken, count", [
    # 3 after 1 is no longer the identity, though 1 after 3 is, so 1
    # and 3 lose their inverses; 1 is named first
    ({(3, 1): 2}, 0),
    # 1 + 1 now composes to the identity too, so 1 has two inverses
    ({(1, 1): 0}, 2),
])
def test_inverse_map_names_the_first_arrow_without_one_inverse(
    monkeypatch, broken, count
):
    G = one_object_groupoid(C4)
    comp = G.comp.copy()
    for (g, f), c in broken.items():
        comp[g, f] = c
    H = InternalGroupoid(G.objects, G.arrows, G.d0, G.d1, G.s0, comp)
    assert [len(found) for found in _inverse_candidates(H)][:2] == [1, count]
    for chunk_cells in (algebra.TABLE_CHUNK_CELLS, 1):
        monkeypatch.setattr(algebra, "TABLE_CHUNK_CELLS", chunk_cells)
        with pytest.raises(IdentityViolated) as exc:
            H.inverse_map()
        assert str(exc.value) == \
            f"arrow 1 has {count} inverses, expected exactly 1"


def test_nerve_levels_and_identities():
    for G in groupoid_zoo():
        X = nerve(G, 3)
        assert X.truncation == 3
        assert X.levels[0] is G.objects
        assert X.levels[1] is G.arrows
        composable = int((G.comp >= 0).sum())
        assert X.levels[2].size == composable
        validate_simplicial(X, check_homs=True)


def test_nerve_middle_face_is_composition():
    G = one_object_groupoid(C4)
    X = nerve(G, 2)
    rows = X.levels[2].carrier.rows
    mid = X.faces[2][1].map
    for idx in range(X.levels[2].size):
        r0, r1 = (int(v) for v in rows[idx])
        assert G.comp[r1, r0] == mid[idx]


def test_constant_simplicial_and_truncate():
    X = constant_simplicial(C3, 3)
    validate_simplicial(X, check_homs=True)
    assert [lvl.size for lvl in X.levels] == [3, 3, 3, 3]
    Y = truncate(X, 1)
    assert Y.truncation == 1
    assert [lvl.size for lvl in Y.levels] == [3, 3]


def test_constructor_rejects_missing_rows():
    X = nerve(pair_groupoid(C2), 2)
    with pytest.raises(InvalidParameters):
        TruncatedSimplicialAlgebra(X.levels, X.faces[:-1], X.degeneracies)


def test_validation_checks_truncation_zero():
    validate_simplicial(constant_simplicial(C2, 0), check_homs=True)
    stray = TruncatedSimplicialAlgebra([C2], [[]], [[identity_hom(C2)]])
    with pytest.raises(InvalidParameters,
                       match="^top level admits no degeneracies$"):
        validate_simplicial(stray)


def test_validation_detects_broken_face():
    X = nerve(pair_groupoid(C2), 2)
    faces = [list(row) for row in X.faces]
    perm = np.roll(np.arange(X.levels[1].size), 1)
    broken = Homomorphism(X.levels[1], X.levels[0],
                          X.faces[1][0].map[perm], check=False)
    faces[1] = [broken, X.faces[1][1]]
    Y = TruncatedSimplicialAlgebra(X.levels, faces, X.degeneracies)
    with pytest.raises(IdentityViolated):
        validate_simplicial(Y)


def test_simplicial_kernel_sizes_for_one_object_nerve():
    X = nerve(one_object_groupoid(C4), 3)
    K2, projections = simplicial_kernel(X, 2)
    assert K2.size == 64
    assert len(projections) == 3
    K4, _ = simplicial_kernel(X, 4)
    assert K4.size == 256


def test_simplicial_kernel_bounds():
    X = nerve(pair_groupoid(C2), 2)
    with pytest.raises(PreconditionUnmet):
        simplicial_kernel(X, 0)
    with pytest.raises(PreconditionUnmet):
        simplicial_kernel(X, 4)
    with pytest.raises(BudgetError):
        simplicial_kernel(X, 3, budget=2)


def test_nerve_map_reads_higher_components_off_the_spine():
    GX, GY = one_object_groupoid(C2), one_object_groupoid(C4)
    NX, NY = nerve(GX, 3), nerve(GY, 3)
    f0 = Homomorphism(GX.objects, GY.objects, [0], check=False)
    double = np.array([0, 2])
    F = nerve_map(NX, NY, f0, Homomorphism(GX.arrows, GY.arrows, double))
    for n in (2, 3):
        assert np.array_equal(NY.levels[n].carrier.rows[F.components[n].map],
                              double[NX.levels[n].carrier.rows])
    # arrows sent off the identity do not compose, so no morphism exists
    shifted = Homomorphism(GX.arrows, GY.arrows, [1, 3], check=False)
    with pytest.raises(IdentityViolated, match="d1 at level 2"):
        nerve_map(NX, NY, f0, shifted)


def test_exactness_for_nerves():
    X = nerve(pair_groupoid(C3), 3)
    ok1, _ = exactness_check(X, 1)
    ok2, _ = exactness_check(X, 2)
    assert ok1 and ok2
    Y = nerve(one_object_groupoid(C4), 3)
    ok, sizes = exactness_check(Y, 1)
    assert not ok
    assert sizes == {"kernel_size": 64, "image_size": 16}


def test_sk1_is_not_exact_above_one():
    X = sk1_two_truncation(loops_graph(zk_module(2), zk_module(2)))
    ok, _ = exactness_check(X, 1)
    assert not ok


def test_coskeleton_extends_and_is_coskeletal():
    X = coskeleton(loops_graph(C2, C2), 3)
    assert [lvl.size for lvl in X.levels] == [2, 4, 16, 128]
    validate_simplicial(X, check_homs=True)
    for level in (1, 2):
        ok, _ = exactness_check(X, level)
        assert ok


def test_decalage_shifts_levels():
    X = nerve(pair_groupoid(C3), 3)
    D, counit = decalage(X)
    assert [lvl.size for lvl in D.levels] == [
        X.levels[1].size, X.levels[2].size, X.levels[3].size
    ]
    validate_simplicial(D, check_homs=True)
    assert counit.dom is D
    assert counit.cod.truncation == D.truncation
    assert counit.is_levelwise_surjective()


def test_decalage_requires_a_level_to_drop():
    X = truncate(nerve(pair_groupoid(C2), 1), 0)
    with pytest.raises(PreconditionUnmet):
        decalage(X)


def test_morphism_checks_commuting_squares():
    X = nerve(pair_groupoid(C2), 2)
    comps = [identity_hom(lvl) for lvl in X.levels]
    F = SimplicialMorphism(X, X, comps, check=True)
    assert F.is_levelwise_surjective()
    perm = np.roll(np.arange(X.levels[1].size), 1)
    bad = [
        comps[0],
        Homomorphism(X.levels[1], X.levels[1], perm, check=False),
        comps[2],
    ]
    with pytest.raises(IdentityViolated):
        SimplicialMorphism(X, X, bad, check=True)


def test_product_has_componentwise_structure():
    X = nerve(pair_groupoid(C2), 2)
    Y = nerve(one_object_groupoid(C3), 2)
    P, p1, p2 = simplicial_product(X, Y)
    assert [lvl.size for lvl in P.levels] == [
        x.size * y.size for x, y in zip(X.levels, Y.levels)
    ]
    validate_simplicial(P, check_homs=True)
    assert p1.is_levelwise_surjective()
    assert p2.is_levelwise_surjective()


def test_pullback_of_morphisms():
    X = nerve(pair_groupoid(C4), 2)
    parts = simplicial_congruence_generated(X, {0: [(0, 2)]})
    Q, q = quotient_simplicial(X, parts)
    P, pr1, pr2 = simplicial_pullback(q, q)
    for n in range(3):
        fm = q.components[n].map
        counts = np.bincount(fm, minlength=Q.levels[n].size)
        assert P.levels[n].size == int((counts * counts).sum())
    validate_simplicial(P, check_homs=True)
    assert pr1.is_levelwise_surjective()


def test_simplicial_congruence_closure_is_stable():
    def factors_through(labels, down):
        # related elements upstairs stay related downstairs
        return np.array_equal(down, down[labels])

    X = nerve(pair_groupoid(C4), 2)
    parts = simplicial_congruence_generated(X, {1: [(0, 1)]})
    assert parts[1].part[0] == parts[1].part[1]
    for n in range(1, 3):
        for d in X.faces[n]:
            assert factors_through(parts[n].part, parts[n - 1].part[d.map])
    for n in range(2):
        for s in X.degeneracies[n]:
            assert factors_through(parts[n].part, parts[n + 1].part[s.map])


@functools.lru_cache(maxsize=None)
def small_desk_objects():
    return [X for _, X in default_corpus("desk")["objects"]
            if sum(lvl.size for lvl in X.levels) <= 200]


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_simplicial_closure_matches_level_by_level_oracle(data):
    objects = small_desk_objects()
    X = objects[data.draw(st.integers(0, len(objects) - 1))]
    seeds = {}
    for _ in range(data.draw(st.integers(1, 3))):
        n = data.draw(st.integers(0, X.truncation))
        element = st.integers(0, X.levels[n].size - 1)
        seeds.setdefault(n, []).append(data.draw(st.tuples(element, element)))
    got = simplicial_congruence_generated(X, seeds)
    assert got == oracles.simplicial_closure_by_levels(X, seeds)
    assert oracles.is_closed_family(X, got)
    # the seeds closed at their own levels only are closed under the
    # structure maps exactly when the oracle says so, and quotient_simplicial
    # rejects exactly the families that are not
    levelwise = [cg.congruence_generated(lvl, seeds.get(n, []))
                 for n, lvl in enumerate(X.levels)]
    if oracles.is_closed_family(X, levelwise):
        quotient_simplicial(X, levelwise)
    else:
        with pytest.raises(IdentityViolated):
            quotient_simplicial(X, levelwise)


@functools.lru_cache(maxsize=None)
def implicit_and_dense_desk_objects():
    """The small desk objects, built twice apart: the closures under test
    run on the first copy, whose derived levels never build a table
    there, and the oracles read the tables of the second."""
    def small(corpus):
        return [X for _, X in corpus["objects"]
                if sum(lvl.size for lvl in X.levels) <= 200]

    return list(zip(small(default_corpus("desk")), small(default_corpus("desk"))))


def _draw_closure_case(data):
    """An implicit desk object, its dense twin, seeds at one to three
    levels, and the slab and merge step sizes of the closure engine."""
    twins = implicit_and_dense_desk_objects()
    X, dense = twins[data.draw(st.integers(0, len(twins) - 1), label="object")]
    seeds = {}
    for _ in range(data.draw(st.integers(1, 3))):
        n = data.draw(st.integers(0, X.truncation))
        element = st.integers(0, X.levels[n].size - 1)
        seeds.setdefault(n, []).append(data.draw(st.tuples(element, element)))
    sizes = (data.draw(st.sampled_from([cg.SLAB_CELLS, 100, 7]), label="slab"),
             data.draw(st.sampled_from([cg.MERGE_CELLS, 100, 7]),
                       label="merge"))
    return X, dense, seeds, sizes


@contextlib.contextmanager
def _closing(sizes):
    """Slabs and merge steps of the given cells, and no table built by a
    closure's reads."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cg, "SLAB_CELLS", sizes[0])
        mp.setattr(cg, "MERGE_CELLS", sizes[1])
        mp.setattr(algebra, "OP_TABLE_CELLS", 0)
        yield


def _draw_work_pairs(data, X):
    """A level of X and one to eight pairs of its elements, more than one
    run of the 7-cell slab takes."""
    n = data.draw(st.integers(0, X.truncation), label="level")
    element = st.integers(0, X.levels[n].size - 1)
    pairs = data.draw(st.lists(st.tuples(element, element), min_size=1,
                               max_size=8), label="pairs")
    xs, ys = np.asarray(pairs).T
    return n, xs, ys


def _translation_pairs(alg, xs, ys, roots, sizes):
    """The image pairs of every (xs[k], ys[k]) under cg.translations, which
    takes the xs grouped by their y and the distinct ys as heads: each row
    of a run's images paired with the row of its head's.  Every run's head
    rows are the heads it touches, each one at least once."""
    order = np.argsort(ys, kind="stable")
    heads = np.unique(ys)
    got = []
    with _closing(sizes):
        for tx, th, ta in cg.translations(alg, xs[order], heads,
                                          np.searchsorted(heads, ys[order]),
                                          roots):
            assert np.array_equal(np.unique(ta), np.arange(len(th)))
            got.append(np.stack([tx.ravel(), th[ta].ravel()], axis=1))
    return sorted(map(tuple, np.concatenate(got).tolist()))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_translations_are_every_basic_translation_across_slabs(data):
    # with every element a root: the image pairs of each work pair, one
    # per operation, slot and constant tuple, whatever the slabs; the
    # twin reads them off rows of its tables
    X, dense, _, sizes = _draw_closure_case(data)
    n, xs, ys = _draw_work_pairs(data, X)
    got = _translation_pairs(X.levels[n], xs, ys,
                             np.ones(X.levels[n].size, dtype=bool), sizes)
    want = []
    for opname, arity in dense.levels[n].signature.ops:
        for slot in range(arity):
            rows = np.moveaxis(dense.levels[n].table(opname), slot, 0)
            want.append(np.stack([rows[xs].ravel(), rows[ys].ravel()], axis=1))
    assert got == sorted(map(tuple, np.concatenate(want).tolist())), \
        (X.name, n, sizes)


def _root_translations_twin(dense, xs, ys, roots):
    """The image pairs of every basic translation of the dense twin whose
    constants before its slot are roots: its tables keep only the root
    rows along those axes."""
    kept = np.flatnonzero(roots)
    want = []
    for opname, arity in dense.signature.ops:
        for slot in range(arity):
            rows = np.moveaxis(dense.table(opname), slot, 0)
            for axis in range(1, slot + 1):
                rows = rows.take(kept, axis=axis)
            want.append(np.stack([rows[xs].ravel(), rows[ys].ravel()], axis=1))
    return sorted(map(tuple, np.concatenate(want).tolist()))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_translations_take_earlier_constants_from_the_roots(data):
    # a drawn root mask: exactly the translations whose constants in the
    # slots before the argument are roots
    X, dense, _, sizes = _draw_closure_case(data)
    n, xs, ys = _draw_work_pairs(data, X)
    size = X.levels[n].size
    roots = np.array(data.draw(
        st.lists(st.booleans(), min_size=size, max_size=size), label="roots"
    ), dtype=bool)
    got = _translation_pairs(X.levels[n], xs, ys, roots, sizes)
    assert got == _root_translations_twin(dense.levels[n], xs, ys, roots), \
        (X.name, n, np.flatnonzero(roots).tolist(), sizes)


def test_root_constants_go_before_the_slot_in_a_noncommutative_group():
    # roots after the slot would close to the same congruences, so only
    # the translations themselves tell the slot order apart
    xs, ys = np.arange(6), np.roll(np.arange(6), 1)
    roots = np.arange(6) % 2 == 0
    want = _root_translations_twin(S3, xs, ys, roots)
    for sizes in [(cg.SLAB_CELLS, cg.MERGE_CELLS), (100, 100), (7, 7)]:
        assert _translation_pairs(S3, xs, ys, roots, sizes) == want, sizes


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_generated_matches_pure_closure_across_slabs(data):
    # derived levels compute their translations componentwise, and slabs
    # and merge steps of a few cells split them across blocks of constants
    X, dense, seeds, sizes = _draw_closure_case(data)
    unbuilt = [lvl for lvl in X.levels if lvl._tables is None]
    with _closing(sizes):
        got = {n: cg.congruence_generated(X.levels[n], pairs)
               for n, pairs in seeds.items()}
    for n, pairs in seeds.items():
        want = oracles.cg_closure_pure(dense.levels[n], pairs)
        assert list(got[n].part) == want, (X.name, n, pairs, sizes)
    assert all(lvl._tables is None for lvl in unbuilt)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_simplicial_closure_matches_the_oracle_across_slabs(data):
    X, dense, seeds, sizes = _draw_closure_case(data)
    unbuilt = [lvl for lvl in X.levels if lvl._tables is None]
    with _closing(sizes):
        got = simplicial_congruence_generated(X, seeds)
    want = oracles.simplicial_closure_by_levels(dense, seeds)
    assert [c.part.tolist() for c in got] == \
        [c.part.tolist() for c in want], (X.name, seeds, sizes)
    assert all(lvl._tables is None for lvl in unbuilt)


def test_quotient_by_simplicial_congruence():
    X = nerve(pair_groupoid(C4), 2)
    parts = simplicial_congruence_generated(X, {0: [(0, 1)]})
    Q, proj = quotient_simplicial(X, parts)
    validate_simplicial(Q, check_homs=True)
    assert proj.is_levelwise_surjective()
    assert Q.levels[0].size == parts[0].class_count()


def test_congruence_groupoid_matches_blocks():
    theta = cg.principal_congruence(cyclic_group(6), 0, 3)
    G = congruence_groupoid(cyclic_group(6), theta)
    validate_groupoid(G)
    assert G.arrows.size == 12


# -- the guards of simplicial, fired one by one -----------------------------

def _identity_of_pair_nerve():
    X = nerve(pair_groupoid(C2), 2)
    return SimplicialMorphism(X, X, [identity_hom(lvl) for lvl in X.levels])


def _short_morphism():
    F = _identity_of_pair_nerve()
    return SimplicialMorphism(F.dom, F.cod, F.components[:2])


def _misplaced_component():
    # a second nerve of the pair groupoid shares C2, its level 0, alone
    F = _identity_of_pair_nerve()
    return SimplicialMorphism(F.dom, nerve(pair_groupoid(C2), 2),
                              F.components)


def _pullback_over_two_codomains():
    return simplicial_pullback(_identity_of_pair_nerve(),
                               _identity_of_pair_nerve())


SIMPLICIAL_GUARDS = [
    (_short_morphism, InvalidParameters, "one component per level required"),
    (_misplaced_component, InvalidParameters,
     "component 1 has wrong endpoints"),
    (lambda: truncate(nerve(pair_groupoid(C2), 2), 3), InvalidParameters,
     "truncation level out of range"),
    (lambda: truncate(nerve(pair_groupoid(C2), 2), -1), InvalidParameters,
     "truncation level out of range"),
    (lambda: coskeleton(truncate(nerve(pair_groupoid(C2), 2), 0), 2),
     PreconditionUnmet, "coskeleton extension needs truncation >= 1"),
    (_pullback_over_two_codomains, InvalidParameters,
     "pullback needs a shared codomain"),
]


@pytest.mark.parametrize("call, error, witness", SIMPLICIAL_GUARDS,
                         ids=[f"{n}-{w}" for n, (_, _, w)
                              in enumerate(SIMPLICIAL_GUARDS)])
def test_simplicial_guards(call, error, witness):
    # each guard is against a direct call that mixes up objects or
    # levels; files and generators never make such a call
    with pytest.raises(error, match=witness):
        call()
