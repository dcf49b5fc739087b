import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from simal import algebra
from simal.algebra import (
    FiniteAlgebra,
    Homomorphism,
    Signature,
)
from simal import congruences as cg
from simal.errors import (
    BudgetExceeded,
    InvalidParameters,
    JoinNotComposite,
    NotSurjective,
    NotTransitive,
)
from simal.corpus import (
    cyclic_group,
    dihedral_group,
    heyting_from_poset,
    product_group,
    sign_homomorphism,
    symmetric_group,
    zk_module,
)
from simal.limits import TupleCarrier
from simal.simplicial import coskeleton, constant_simplicial

SMALL = [
    cyclic_group(4),
    cyclic_group(6),
    cyclic_group(12),
    zk_module(2, 2),
    symmetric_group(3),
    dihedral_group(4),
    heyting_from_poset({"kind": "chain", "n": 3}),
    heyting_from_poset({"kind": "grid", "rows": 2, "cols": 2}),
]

# Bare sets, built directly so that no Mal'tsev check runs: their
# congruence lattices are not permutable, so the join and image
# certificates can fail on them.
SET3 = FiniteAlgebra("set3", 3, Signature([("id", 1)]), {"id": [0, 1, 2]}, "x")
SET4 = FiniteAlgebra(
    "set4", 4, Signature([("id", 1)]), {"id": [0, 1, 2, 3]}, "x"
)
EMPTY = FiniteAlgebra("empty", 0, Signature([("mul", 2)]),
                      {"mul": np.zeros((0, 0))}, "x")

PROPERTY_SETTINGS = settings(
    max_examples=150, derandomize=True, database=None, deadline=None
)

EXPECTED_COUNTS = {
    "C4": 3,
    "C6": 4,
    "C12": 6,
    "Z2^2": 5,
    "S3": 3,
    "D4": 6,
    "H-chain3": 3,
    "H-grid2x2": 4,
}


def test_congruence_counts_frozen():
    for alg in SMALL:
        got = len(cg.enumerate_congruences(alg))
        assert got == EXPECTED_COUNTS[alg.name], alg.name


def test_enumeration_matches_brute_force_on_tiny_algebras():
    for alg in [cyclic_group(4), heyting_from_poset({"kind": "chain", "n": 3}),
                zk_module(2, 2)]:
        brute = oracles.brute_force_congruences(alg)
        ours = {tuple(int(v) for v in c.part)
                for c in cg.enumerate_congruences(alg)}
        assert ours == brute


def test_enumeration_size_guard():
    with pytest.raises(BudgetExceeded):
        cg.enumerate_congruences(product_group(cyclic_group(6), cyclic_group(3)))


def test_join_is_closure_and_composite_everywhere():
    """Join against the set-based closure oracle, all congruence pairs."""
    for alg in SMALL:
        congs = cg.enumerate_congruences(alg)
        for a in congs:
            for b in congs:
                j = cg.join(a, b)
                want = oracles.join_by_closure(a.part, b.part)
                assert oracles.pairs_of_partition(j.part) == want
                # single composite both ways round
                ra = oracles.pairs_of_partition(a.part)
                rb = oracles.pairs_of_partition(b.part)
                assert oracles.compose_relations(ra, rb) == want
                assert oracles.compose_relations(rb, ra) == want


def test_lattice_unit_laws():
    for alg in SMALL[:4]:
        delta, top = cg.diagonal(alg), cg.full(alg)
        for theta in cg.enumerate_congruences(alg):
            assert cg.meet(theta, delta) == delta
            assert cg.join(theta, delta) == theta
            assert cg.meet(theta, top) == theta
            assert cg.join(theta, top) == top


def test_modular_law_all_triples():
    for alg in SMALL:
        congs = cg.enumerate_congruences(alg)
        for r in congs:
            for s in congs:
                for t in congs:
                    if not cg.leq(r, t):
                        continue
                    lhs = cg.join(r, cg.meet(s, t))
                    rhs = cg.meet(cg.join(r, s), t)
                    assert lhs == rhs


def test_principal_congruence_on_z6():
    z6 = cyclic_group(6)
    c = cg.principal_congruence(z6, 0, 2)
    assert c.part.tolist() == [0, 1, 0, 1, 0, 1]
    assert cg.principal_congruence(z6, 0, 3).class_count() == 3
    mod2 = cg.principal_congruence(z6, 0, 2)
    mod3 = cg.principal_congruence(z6, 0, 3)
    assert cg.join(mod2, mod3) == cg.full(z6)
    assert cg.meet(mod2, mod3).is_diagonal()


def test_kernel_pair_of_sign():
    k = cg.kernel_pair(sign_homomorphism(symmetric_group(3)))
    assert k.class_count() == 2
    assert np.bincount(k.part)[k.reps()].tolist() == [3, 3]


def test_image_preimage_adjunction():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    f = Homomorphism(z4, z2, [0, 1, 0, 1])
    for theta in cg.enumerate_congruences(z2):
        assert cg.image(f, oracles.preimage(f, theta)) == theta
    for theta in cg.enumerate_congruences(z4):
        back = oracles.preimage(f, cg.image(f, theta))
        assert cg.leq(theta, back)


def test_image_requires_surjectivity():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    triv = Homomorphism(z4, z2, [0, 0, 0, 0])
    with pytest.raises(NotSurjective):
        cg.image(triv, cg.diagonal(z4))


def test_quotient_round_trip():
    z4 = cyclic_group(4)
    theta = cg.principal_congruence(z4, 0, 2)
    q, proj = cg.quotient(z4, theta)
    assert q.size == 2
    assert cg.kernel_pair(proj) == theta
    assert proj.is_surjective()
    # quotient of Z4 by the 2-element-block congruence is Z2
    assert int(q.table("mul")[1, 1]) == 0


def test_congruence_generated_matches_pure_closure():
    for alg in [cyclic_group(6), symmetric_group(3), dihedral_group(4)]:
        for a in range(0, alg.size, 2):
            for b in range(1, alg.size, 3):
                ours = cg.congruence_generated(alg, [(a, b)]).part
                pure = oracles.cg_closure_pure(alg, [(a, b)])
                assert list(ours) == pure


def test_compatibility_check_rejects_bad_partition():
    s3 = symmetric_group(3)
    # identity together with one transposition is not a congruence class
    with pytest.raises(InvalidParameters):
        cg.Congruence(s3, [0, 0, 2, 3, 4, 5])


def test_compatibility_witness_is_plain_ints(monkeypatch):
    # 0 ~ 1, but 1 * 1 = 2 and 0 * 0 = 0 lie in different blocks; the
    # witness is the first failing pair in row order in slabs of one row too
    c4 = cyclic_group(4)
    for chunk_cells in (algebra.TABLE_CHUNK_CELLS, 1):
        monkeypatch.setattr(algebra, "TABLE_CHUNK_CELLS", chunk_cells)
        with pytest.raises(InvalidParameters) as err:
            cg.Congruence(c4, [0, 0, 2, 3])
        assert str(err.value) == (
            "partition not compatible with 'mul' at (1, 1)"
        )


def test_canonical_partition_least_member():
    labels = np.asarray([7, 3, 7, 3, 9])
    part = cg.canonical_partition(labels)
    assert list(part) == [0, 1, 0, 1, 4]
    # distinct labels are the diagonal
    assert list(cg.canonical_partition(np.asarray([9, 3, 7]))) == [0, 1, 2]


def test_checked_partition_rejects_labels_that_are_not_integers():
    # these were truncated to [0, 1, 0, 1] or parsed from the string
    c4 = cyclic_group(4)
    with pytest.raises(InvalidParameters,
                       match=r"^partition array: entry 1\.7 is not an integer$"):
        cg.Congruence(c4, [0, 1.7, 0, 1.2])
    with pytest.raises(InvalidParameters,
                       match=r"^partition array: entry '0' is not an integer$"):
        cg.Congruence(c4, ["0", 1, 0, 1])


def test_join_certificate_names_a_pair_outside_the_composite():
    theta = cg.Congruence(SET3, [0, 0, 2])
    psi = cg.Congruence(SET3, [0, 1, 1])
    with pytest.raises(JoinNotComposite, match=r"\(2,0\) in the join"):
        cg.join(theta, psi)


def test_image_certificate_names_a_pair_only_the_closure_has():
    f = Homomorphism(SET4, SET3, [0, 1, 1, 2])
    theta = cg.Congruence(SET4, [0, 0, 2, 2])
    with pytest.raises(NotTransitive, match=r"pair \(0,2\) is in the closure"):
        cg.image(f, theta)


@st.composite
def partition_and_pairs(draw):
    n = draw(st.integers(0, 12))
    labels = draw(st.lists(st.integers(0, max(n - 1, 0)),
                           min_size=n, max_size=n))
    element = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(element, element),
                          max_size=15 if n else 0))
    return labels, pairs


@PROPERTY_SETTINGS
@given(partition_and_pairs())
@example(([], []))
@example(([0, 1, 1, 0, 4], []))
def test_merge_matches_closure_oracle(case):
    labels, pairs = case
    n = len(labels)
    part = cg.canonical_partition(np.asarray(labels, dtype=np.int64))
    rows = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    got = cg.merge(part, rows[:, 0], rows[:, 1])
    want = oracles.closure_of_pairs(
        n, oracles.pairs_of_partition(part) | set(pairs)
    )
    assert oracles.pairs_of_partition(got) == want
    assert np.array_equal(got, cg.canonical_partition(got))


@functools.lru_cache(maxsize=None)
def _congruences_of(index):
    return cg.enumerate_congruences(SMALL[index])


@PROPERTY_SETTINGS
@given(st.data())
def test_generated_from_initial_matches_pure_closure(data):
    index = data.draw(st.integers(0, len(SMALL) - 1))
    alg = SMALL[index]
    congs = _congruences_of(index)
    theta = congs[data.draw(st.integers(0, len(congs) - 1))]
    element = st.integers(0, alg.size - 1)
    pairs = data.draw(st.lists(st.tuples(element, element), max_size=3))
    got = cg.congruence_generated(alg, pairs, initial=theta)
    theta_pairs = [tuple(p) for p in theta.pairs().tolist()]
    assert list(got.part) == oracles.cg_closure_pure(alg, pairs + theta_pairs)


def test_generated_on_the_empty_carrier_and_from_no_pairs():
    assert cg.congruence_generated(EMPTY, []).part.shape == (0,)
    assert cg.congruence_generated(
        EMPTY, [], initial=cg.diagonal(EMPTY)
    ).part.shape == (0,)
    for index, alg in enumerate(SMALL):
        assert cg.congruence_generated(alg, []).is_diagonal()
        for theta in _congruences_of(index):
            assert cg.congruence_generated(alg, [], initial=theta) == theta


def test_an_empty_carrier_finds_no_codes_and_rejects_any():
    # the coskeleton of an empty object looks up no tuples in its empty
    # kernels, and is empty at every level
    X = coskeleton(constant_simplicial(EMPTY, 1), 2)
    assert X.truncation == 2
    assert [lvl.size for lvl in X.levels] == [0, 0, 0]
    carrier = TupleCarrier([EMPTY, EMPTY], np.zeros((0, 2), dtype=np.int64))
    assert carrier.index_of_codes(np.zeros(0, dtype=np.int64)).shape == (0,)
    for codes in (np.array([0]), 0):
        with pytest.raises(InvalidParameters,
                           match="tuple outside the carrier"):
            carrier.index_of_codes(codes)
    with pytest.raises(InvalidParameters, match="tuple outside the carrier"):
        carrier.index_of(np.zeros((1, 2), dtype=np.int64))


@functools.lru_cache(maxsize=None)
def bare_set(n):
    """range(n) with only the identity operation: every equivalence is a
    congruence and every map a homomorphism."""
    return FiniteAlgebra(f"set{n}", n, Signature([("id", 1)]),
                         {"id": np.arange(n)}, "x")


@st.composite
def labels_and_map(draw):
    """Arbitrary labels for two relations on range(n), a map range(n) ->
    range(m) and arbitrary labels for a relation on range(m)."""
    n = draw(st.integers(0, 12))
    m = draw(st.integers(1 if n else 0, 12))
    labels = st.lists(st.integers(-3, 15), min_size=n, max_size=n)
    fmap = st.lists(st.integers(0, max(m - 1, 0)), min_size=n, max_size=n)
    return (draw(labels), draw(labels), draw(fmap),
            draw(st.lists(st.integers(-3, 15), min_size=m, max_size=m)))


@PROPERTY_SETTINGS
@given(labels_and_map())
@example(([], [], [], []))
@example(([], [], [], [2, -1, 2]))
@example(([5, -3, 5, 40], [0, 0, 1, 1], [0, 1, 0, 1], [7, 7]))
@example(([0, 0, 2, 2], [0, 1, 1, 3], [0, 1, 1, 2], [0, 1, 2]))
# theta < psi, psi < theta and theta = psi under other labels: join and
# meet return an argument without merging or sorting
@example(([0, 1, 2, 2, 4], [0, 0, 2, 2, 4], [0, 1, 1, 2, 2], [0, 1, 2]))
@example(([7, 7, 2, 2, 7], [0, 1, 2, 2, 4], [0, 1, 1, 2, 2], [0, 1, 2]))
@example(([3, 3, 1, 1], [9, 9, -2, -2], [0, 0, 1, 1], [5, 6]))
def test_label_arithmetic_matches_the_unique_oracle(case):
    raw_theta, raw_psi, fmap, raw_sigma = case
    A, B = bare_set(len(raw_theta)), bare_set(len(raw_sigma))
    assert np.array_equal(cg.canonical_partition(raw_theta),
                          oracles.least_members(raw_theta))
    theta, psi = cg.Congruence(A, raw_theta), cg.Congruence(A, raw_psi)
    sigma = cg.Congruence(B, raw_sigma)
    f = Homomorphism(A, B, fmap)
    assert np.array_equal(theta.part, oracles.least_members(raw_theta))
    assert np.array_equal(sigma.part, oracles.least_members(raw_sigma))

    built = [theta, psi, sigma, cg.diagonal(A), cg.full(A), cg.full(B)]
    built.append(cg.meet(theta, psi))
    met = oracles.least_members(theta.part, psi.part)
    assert np.array_equal(built[-1].part, met)
    assert cg.meets_trivially(theta, psi) == np.array_equal(
        met, np.arange(A.size))
    built.append(cg.kernel_pair(f))
    assert np.array_equal(built[-1].part, oracles.least_members(fmap))
    built.append(cg.congruence_generated(A, theta.pairs()))
    assert built[-1] == theta

    theta_pairs = oracles.pairs_of_partition(theta.part)
    composite = oracles.compose_relations(
        theta_pairs, oracles.pairs_of_partition(psi.part)
    )
    assert cg._composite_pair_count(theta, psi) == len(composite)
    joined = oracles.join_by_closure(theta.part, psi.part)
    if composite == joined:
        built.append(cg.join(theta, psi))
        assert oracles.pairs_of_partition(built[-1].part) == joined
    else:
        with pytest.raises(JoinNotComposite):
            cg.join(theta, psi)

    assert f.is_surjective() == (set(fmap) == set(range(B.size)))
    relation = {(fmap[a], fmap[b]) for a, b in theta_pairs}
    closed = oracles.closure_of_pairs(B.size, relation)
    if not f.is_surjective():
        with pytest.raises(NotSurjective):
            cg.image(f, theta)
    elif relation == closed:
        built.append(cg.image(f, theta))
        assert oracles.pairs_of_partition(built[-1].part) == closed
    else:
        with pytest.raises(NotTransitive):
            cg.image(f, theta)

    for c in built:
        assert np.array_equal(c.part, oracles.least_members(c.part))
        reps, block, pairs = oracles.block_statistics(c.part)
        assert np.array_equal(c.reps(), reps)
        assert c.class_count() == len(reps)
        assert c.pair_count() == pairs
        q, proj = cg.quotient(c.on, c)
        assert np.array_equal(proj.map, block)
        # the quotient reads its operations at the representatives
        assert np.array_equal(q.op("id", np.arange(q.size)),
                              np.arange(q.size))


@st.composite
def maps_on_one_domain(draw):
    """One to four maps on range(n), each into a codomain of one size of
    a few, so that three maps into 2^31 elements, or two of which one
    maps into 2^40, pass the 2^62 code bound; maps carry only what
    kernel_pair reads.  One map alone has a small codomain, as its
    kernel scatters onto an array of that size."""
    dom = bare_set(draw(st.integers(0, 12)))
    count = draw(st.integers(1, 4))
    sizes = [1, 2, 3] + ([2 ** 31, 2 ** 40] if count > 1 else [])
    maps = []
    for _ in range(count):
        size = draw(st.sampled_from(sizes))
        values = st.integers(0, 3).map(lambda v: v * (size - 1) // 3)
        fmap = draw(st.lists(values, min_size=dom.size, max_size=dom.size))
        maps.append(SimpleNamespace(dom=dom, cod=SimpleNamespace(size=size),
                                    map=np.asarray(fmap, dtype=np.int64)))
    return maps


@PROPERTY_SETTINGS
@given(maps_on_one_domain())
def test_kernel_of_several_maps_groups_by_image_tuples(maps):
    kernel = cg.kernel_pair(*maps)
    assert kernel.on is maps[0].dom
    assert np.array_equal(kernel.part, oracles.kernel_by_images(*maps))


def test_kernel_of_wide_maps_relabels_before_passing_62_bits(monkeypatch):
    # three maps into 2^31 elements: the codes of the first two fill 62
    # bits, so they are relabelled before the third is folded in
    sorts = []
    original = cg.canonical_partition
    monkeypatch.setattr(cg, "canonical_partition",
                        lambda labels: sorts.append(labels) or original(labels))
    wide = SimpleNamespace(size=2 ** 31)
    maps = [SimpleNamespace(dom=SET4, cod=wide, map=np.asarray(m) * 2 ** 29)
            for m in ([0, 1, 1, 3], [2, 2, 2, 2], [3, 0, 0, 3])]
    assert list(cg.kernel_pair(*maps).part) == [0, 1, 1, 3]
    assert len(sorts) == 2


def test_kernel_of_two_wide_code_columns_relabels_the_first(monkeypatch):
    # bounds 2^40 and 2^30 multiply past 2^62: the first column is
    # relabelled by a sort before the second is folded in, then the
    # codes are relabelled by a second sort
    sorts = []
    original = cg.canonical_partition
    monkeypatch.setattr(cg, "canonical_partition",
                        lambda labels: sorts.append(labels) or original(labels))
    columns = [
        (np.asarray([0, 2 ** 40 - 1, 2 ** 40 - 1, 7, 0, 7]), 2 ** 40),
        (np.asarray([5, 2 ** 30 - 1, 2 ** 30 - 1, 5, 5, 0]), 2 ** 30),
    ]
    kernel = cg.kernel_of_codes(bare_set(6), columns)
    assert list(kernel.part) == [0, 1, 1, 3, 0, 5]
    assert np.array_equal(kernel.part, oracles.kernel_by_images(
        *(SimpleNamespace(map=codes) for codes, _ in columns)))
    assert len(sorts) == 2
    assert np.array_equal(sorts[0], columns[0][0])


# -- the guards of congruences, fired one by one ----------------------------

C2, C3 = cyclic_group(2), cyclic_group(3)
GUARDS = [
    (lambda: cg.Congruence(C2, [0, 0, 0]), "partition array has wrong length"),
    (lambda: cg.join_all([]), "join of empty list"),
    (lambda: cg.image(Homomorphism(C2, C2, [0, 1]), cg.diagonal(C3)),
     "image congruence lives on the wrong algebra"),
    (lambda: cg.quotient(C2, cg.diagonal(C3)),
     "congruence lives on a different algebra"),
    (lambda: cg.meet(cg.full(C2), cg.full(cyclic_group(2))),
     "congruences live on different algebras"),
    (lambda: cg.kernel_pair(Homomorphism(C2, C2, [0, 1]),
                            Homomorphism(C3, C2, [0, 0, 0])),
     "kernel pair of maps on different domains"),
]


@pytest.mark.parametrize("call, witness", GUARDS,
                         ids=[w for _, w in GUARDS])
def test_congruence_guards(call, witness):
    # every guard is against a call that mixes up algebras or lengths;
    # outside input reaches them only through such a call
    with pytest.raises(InvalidParameters, match=witness):
        call()
