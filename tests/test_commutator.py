import contextlib
import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from simal import commutator, congruences as cg
from simal.algebra import FiniteAlgebra, Signature, make_algebra
from simal.commutator import tc_commutator
from simal.errors import InvalidParameters, PropertyViolation
from simal.corpus import (
    cyclic_group,
    dihedral_group,
    heyting_from_poset,
    symmetric_group,
    zk_module,
)


def _ternary(name, n, rule):
    """The algebra on range(n) with the one ternary operation rule(x, y, z),
    which is also its Mal'tsev term."""
    x, y, z = np.ix_(range(n), range(n), range(n))
    return make_algebra(
        name, Signature([("p", 3)]), {"p": rule(x, y, z)}, "p(x, y, z)"
    )


@functools.cache
def _oracle_pool():
    """Small groups, modules, Heyting algebras and ternary-signature
    algebras, each with its congruence lattice."""
    algs = [
        cyclic_group(4),
        cyclic_group(6),
        symmetric_group(3),
        dihedral_group(4),
        zk_module(2, 2),
        zk_module(3),
        heyting_from_poset({"kind": "chain", "n": 3}),
        heyting_from_poset({"kind": "grid", "rows": 2, "cols": 2}),
        _ternary("Z3p", 3, lambda x, y, z: (x - y + z) % 3),
        _ternary("Z4p", 4, lambda x, y, z: (x - y + z) % 4),
        # the discriminator: simple, arithmetical, and not affine
        _ternary("disc3", 3, lambda x, y, z: np.where(x == y, z, x)),
    ]
    return [(alg, cg.enumerate_congruences(alg)) for alg in algs]


def test_commutator_matches_matrix_closure_oracle():
    for alg in [
        cyclic_group(4),
        zk_module(2, 2),
        symmetric_group(3),
        heyting_from_poset({"kind": "grid", "rows": 2, "cols": 2}),
    ]:
        congs = cg.enumerate_congruences(alg)
        for a in congs:
            for b in congs:
                ours = tc_commutator(a, b).part
                want = oracles.matrix_closure_commutator(alg, a.part, b.part)
                assert list(ours) == want, (alg.name, a, b)


def test_commutator_matches_oracle_on_d4_samples():
    d4 = dihedral_group(4)
    congs = cg.enumerate_congruences(d4)
    top = cg.full(d4)
    center = min(
        (c for c in congs if c.class_count() == 4),
        key=lambda c: c.key(),
    )
    for a, b in [(top, top), (top, center), (center, top), (center, center)]:
        ours = tc_commutator(a, b).part
        want = oracles.matrix_closure_commutator(d4, a.part, b.part)
        assert list(ours) == want


def test_abelian_groups_have_trivial_commutators():
    for alg in [cyclic_group(6), zk_module(2, 3)]:
        top = cg.full(alg)
        assert tc_commutator(top, top).is_diagonal()


def test_s3_derived_congruence():
    s3 = symmetric_group(3)
    top = cg.full(s3)
    derived = tc_commutator(top, top)
    # classes are the cosets of the derived subgroup, the even permutations
    assert derived.class_count() == 2
    assert np.bincount(derived.part)[derived.reps()].tolist() == [3, 3]


def test_d4_derived_congruence():
    d4 = dihedral_group(4)
    derived = tc_commutator(cg.full(d4), cg.full(d4))
    # derived subgroup of D4 is the half-turn subgroup of order 2
    assert derived.class_count() == 4
    assert np.bincount(derived.part)[derived.reps()].tolist() == [2, 2, 2, 2]


def test_heyting_commutator_is_meet():
    """Arithmetical variety: the commutator collapses to the meet."""
    for poset in [{"kind": "chain", "n": 4}, {"kind": "grid", "rows": 2, "cols": 2}]:
        alg = heyting_from_poset(poset)
        congs = cg.enumerate_congruences(alg)
        for a in congs:
            for b in congs:
                assert tc_commutator(a, b) == cg.meet(a, b)


def test_commutator_monotone_and_symmetric():
    s3 = symmetric_group(3)
    congs = cg.enumerate_congruences(s3)
    for a in congs:
        for b in congs:
            ab = tc_commutator(a, b)
            ba = tc_commutator(b, a)
            assert ab == ba
            assert cg.leq(ab, cg.meet(a, b))
            for c in congs:
                if cg.leq(a, c):
                    assert cg.leq(ab, tc_commutator(c, b))


def test_commutator_with_diagonal_is_diagonal():
    d4 = dihedral_group(4)
    assert tc_commutator(cg.diagonal(d4), cg.full(d4)).is_diagonal()


def test_commutator_rejects_mixed_carriers():
    with pytest.raises(InvalidParameters):
        tc_commutator(cg.full(cyclic_group(2)), cg.full(cyclic_group(3)))


def test_full_commutator_on_c32_stays_under_48_mb_traced():
    # the pair algebra has 1024 elements; its table build and closure
    # rounds must not hold more than a few table-sized temporaries
    alg = cyclic_group(32)
    alg.tables
    tracemalloc.start()
    try:
        result = tc_commutator(cg.full(alg), cg.full(alg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.is_diagonal()
    assert peak < 48e6, peak


@contextlib.contextmanager
def _closing(data):
    """Slabs and merge steps of drawn sizes, down to a few cells, which
    split the work pairs, the constant tuples and the image arrays."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cg, "SLAB_CELLS", data.draw(
            st.sampled_from([cg.SLAB_CELLS, 100, 7]), label="slab"))
        mp.setattr(cg, "MERGE_CELLS", data.draw(
            st.sampled_from([cg.MERGE_CELLS, 100, 7]), label="merge"))
        yield


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_commutator_matches_the_oracle_on_generated_pairs(data):
    pool = _oracle_pool()
    alg, congs = pool[data.draw(st.integers(0, len(pool) - 1), label="alg")]
    theta = congs[data.draw(st.integers(0, len(congs) - 1), label="theta")]
    psi = congs[data.draw(st.integers(0, len(congs) - 1), label="psi")]
    with _closing(data):
        ours = tc_commutator(theta, psi).part
    want = oracles.matrix_closure_commutator(alg, theta.part, psi.part)
    assert list(ours) == want, (alg.name, theta.part, psi.part)


@pytest.mark.parametrize("slab", [None, 50])
def test_s3_heap_derived_congruence(monkeypatch, slab):
    # p(x, y, z) = x y^-1 z alone: its translations in the first slot are
    # the right multiplications, and only the other slots add the left
    # ones that [1, 1] needs
    if slab is not None:
        monkeypatch.setattr(cg, "SLAB_CELLS", slab)
    s3 = symmetric_group(3)
    mul, inv = s3.table("mul"), s3.table("inv")
    heap = _ternary("heap(S3)", 6, lambda x, y, z: mul[mul[x, inv[y]], z])
    derived = tc_commutator(cg.full(heap), cg.full(heap))
    assert derived == cg.Congruence(
        heap, tc_commutator(cg.full(s3), cg.full(s3)).part
    )
    assert np.bincount(derived.part)[derived.reps()].tolist() == [3, 3]


def test_full_commutator_on_d24_stays_under_24_mb_traced():
    # the pair algebra has 2304 elements; no temporary may grow with its
    # square, as one int32 table over it alone takes 21 MB
    alg = dihedral_group(24)
    alg.tables
    tracemalloc.start()
    try:
        result = tc_commutator(cg.full(alg), cg.full(alg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.class_count() == 4
    assert peak < 24e6, peak


def test_commutator_with_a_head_per_pair_stays_under_24_mb_traced():
    # the last wave absorbs 1,128 pair codes, each under a root of its
    # own, so no temporary may hold the images of every head under a
    # block of translations
    alg = cyclic_group(48)
    alg.tables
    psi = cg.principal_congruence(alg, 0, 24)
    tracemalloc.start()
    try:
        result = tc_commutator(cg.full(alg), psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(result.part) == oracles.matrix_closure_commutator(
        alg, cg.full(alg).part, psi.part
    )
    assert peak < 24e6, peak


@pytest.mark.parametrize("make, n, computed, handed, full_pools", [
    (cyclic_group, 48, 5_711_952, 15_887, 10_397_999),
    (dihedral_group, 24, 5_535_935, 34_655, 10_601_323),
])
def test_full_commutator_merges_at_most_55_percent_of_full_pools(
    monkeypatch, make, n, computed, handed, full_pools
):
    # the image cells the provider computes, each run's and each head's
    # (a head yielded again is not computed again), and the cells close
    # hands to merge; with all |theta| constants in every slot of every
    # translation the closure computed full_pools on each side of its
    # pairs, and roots before the slot and roots translated once each
    # bring both sides together under 55% of one
    alg = make(n)
    cells, merged = [], []
    pair_translations, merge = commutator._pair_translations, cg.merge

    def counting_translations(*args):
        held = None
        for tx, th, ta in pair_translations(*args):
            cells.append(tx.size + (th.size if th is not held else 0))
            held = th
            yield tx, th, ta

    def counting_merge(part, a, b):
        merged.append(len(a))
        return merge(part, a, b)

    monkeypatch.setattr(commutator, "_pair_translations",
                        counting_translations)
    monkeypatch.setattr(cg, "merge", counting_merge)
    tc_commutator(cg.full(alg), cg.full(alg))
    assert sum(cells) == computed
    assert sum(cells) <= 0.55 * full_pools
    assert sum(merged) == handed


def _latin_squares(n):
    """Every Latin square of order n, row by row: each row a permutation
    of range(n) that meets no earlier row in a column."""
    rows = list(itertools.permutations(range(n)))
    squares = [()]
    for _ in range(n):
        squares = [sq + (r,) for sq in squares for r in rows
                   if all(r[j] != q[j] for q in sq for j in range(n))]
    return squares


def _quasigroup(name, square):
    """The quasigroup of a Latin square: mul, the left division ldiv(x, z)
    solving x y = z for y and the right division rdiv(z, y) solving it
    for x, with the Mal'tsev term mul(rdiv(x, ldiv(y, y)), ldiv(y, z))."""
    mul = np.array(square)
    every = np.arange(len(mul))
    ldiv, rdiv = np.empty_like(mul), np.empty_like(mul)
    ldiv[every[:, None], mul] = every[None, :]
    rdiv[mul, every[None, :]] = every[:, None]
    return make_algebra(
        name, Signature([("mul", 2), ("ldiv", 2), ("rdiv", 2)]),
        {"mul": mul, "ldiv": ldiv, "rdiv": rdiv},
        "mul(rdiv(x, ldiv(y, y)), ldiv(y, z))",
    )


@functools.cache
def _order_four_quasigroups():
    """The 576 quasigroups on range(4), each with its congruence lattice,
    and the indices of the 88 that are not simple."""
    pool = [(alg, cg.enumerate_congruences(alg)) for alg in (
        _quasigroup(f"Q4#{i}", sq) for i, sq in enumerate(_latin_squares(4))
    )]
    return pool, [i for i, (_, congs) in enumerate(pool) if len(congs) > 2]


def test_order_four_quasigroups_have_the_known_lattices():
    pool, nonsimple = _order_four_quasigroups()
    assert len(pool) == 576 and len(nonsimple) == 88
    assert sorted(len(congs) for _, congs in pool).count(5) == 4


def test_quasigroup_closure_takes_later_constants_from_the_whole_carrier():
    # the seeds {0,1} and {2,3} generate the full congruence of this
    # quasigroup; a closure that took the constants after the slot from
    # the wave's roots too would stop at {0,1},{2,3}, which is no
    # congruence
    square = ((3, 2, 1, 0), (2, 1, 0, 3), (1, 0, 3, 2), (0, 3, 2, 1))
    assert _latin_squares(4)[571] == square
    alg = _quasigroup("Q4#571", square)
    seeds = [(0, 1), (2, 3)]
    generated = list(cg.congruence_generated(alg, seeds).part)
    assert generated == oracles.cg_closure_pure(alg, seeds) == [0, 0, 0, 0]
    with pytest.raises(InvalidParameters, match="not compatible"):
        cg.Congruence(alg, [0, 0, 2, 2])


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_quasigroup_closures_match_the_oracles(data):
    # a Mal'tsev family that is not a group, with three binary operations,
    # so every slot order of the root pools runs; half the draws come
    # from the quasigroups that are not simple
    pool, nonsimple = _order_four_quasigroups()
    alg, congs = pool[data.draw(
        st.sampled_from(nonsimple) | st.integers(0, len(pool) - 1),
        label="quasigroup",
    )]
    theta, psi = (congs[data.draw(st.integers(0, len(congs) - 1), label=name)]
                  for name in ("theta", "psi"))
    element = st.integers(0, alg.size - 1)
    pairs = data.draw(st.lists(st.tuples(element, element), max_size=3),
                      label="pairs")
    with _closing(data):
        ours = tc_commutator(theta, psi).part
        generated = cg.congruence_generated(alg, pairs).part
    assert list(ours) == oracles.matrix_closure_commutator(
        alg, theta.part, psi.part
    ), (alg.name, theta.part, psi.part)
    assert list(generated) == oracles.cg_closure_pure(alg, pairs), \
        (alg.name, pairs)


def test_commutator_on_the_empty_algebra_is_empty():
    empty = FiniteAlgebra("empty", 0, Signature([("mul", 2)]),
                          {"mul": np.zeros((0, 0))}, "x")
    for theta in (cg.full(empty), cg.diagonal(empty)):
        assert tc_commutator(theta, theta).part.shape == (0,)


def _closing_to(monkeypatch, labels):
    """Make the closure of Delta answer labels, whatever it is given."""
    monkeypatch.setattr(cg, "close", lambda *args: np.asarray(labels))


def test_commutator_certifies_an_equivalence_relation(monkeypatch):
    # on C2, Delta joining (0, 1) with (1, 1) alone reads off the pair
    # (0, 1) without (1, 0); their merge is the full congruence
    c2 = cyclic_group(2)
    labels = np.arange(4)
    labels[0 * 2 + 1] = labels[1 * 2 + 1]
    _closing_to(monkeypatch, labels)
    with pytest.raises(PropertyViolation,
                       match="not already an equivalence relation"):
        tc_commutator(cg.full(c2), cg.full(c2))


def test_commutator_certifies_an_equivalence_before_a_congruence(
    monkeypatch
):
    # on C3, Delta joining (0, 1) with (1, 1) alone reads off (0, 1)
    # without (1, 0); their merge, {0, 1} {2}, is not even a congruence,
    # and the pair count fails first
    c3 = cyclic_group(3)
    labels = np.arange(9)
    labels[0 * 3 + 1] = labels[1 * 3 + 1]
    _closing_to(monkeypatch, labels)
    with pytest.raises(PropertyViolation,
                       match="not already an equivalence relation"):
        tc_commutator(cg.full(c3), cg.full(c3))
    # with (1, 0) joined to (0, 0) too, the relation read off is the
    # equivalence {0, 1} {2}, which the operations do not respect
    labels[1 * 3 + 0] = labels[0]
    with pytest.raises(PropertyViolation, match=(
            "^commutator relation is not a congruence: partition not "
            "compatible with 'mul' at")):
        tc_commutator(cg.full(c3), cg.full(c3))


def test_commutator_certifies_it_is_below_the_meet(monkeypatch):
    # one Delta class reads off every theta-pair: the full relation,
    # above the diagonal psi
    c3 = cyclic_group(3)
    _closing_to(monkeypatch, np.zeros(9, dtype=np.int64))
    with pytest.raises(PropertyViolation, match="exceeded the meet"):
        tc_commutator(cg.full(c3), cg.diagonal(c3))
