import tracemalloc

import pytest

import oracles
from simal import congruences as cg
from simal.commutator import tc_commutator
from simal.errors import InvalidParameters
from simal.corpus import (
    cyclic_group,
    dihedral_group,
    heyting_from_poset,
    symmetric_group,
    zk_module,
)


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
    assert sorted(len(b) for b in derived.blocks()) == [3, 3]


def test_d4_derived_congruence():
    d4 = dihedral_group(4)
    derived = tc_commutator(cg.full(d4), cg.full(d4))
    # derived subgroup of D4 is the half-turn subgroup of order 2
    assert derived.class_count() == 4
    assert sorted(len(b) for b in derived.blocks()) == [2, 2, 2, 2]


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
