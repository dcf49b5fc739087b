import itertools
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from simal import algebra
from simal.algebra import (
    Homomorphism,
    Signature,
    check_homomorphism,
    check_maltsev,
    identity_hom,
    make_algebra,
)
from simal import congruences as cg
from simal import limits
from simal.errors import (
    CrossRouteMismatch,
    InvalidParameters,
    LevelTooLarge,
    NotCommuting,
    NotRegularEpi,
)
from simal.limits import (
    TupleCarrier,
    compatible_tuples,
    is_double_extension,
    product,
    pullback,
    subproduct_algebra,
    tuple_map,
    tuple_weights,
)
from simal.corpus import (
    cyclic_group,
    default_corpus,
    heyting_from_poset,
    loops_graph,
    pair_groupoid,
    symmetric_group,
)
from simal.galois import classify_extension, em_factorization
from simal.simplicial import coskeleton, nerve
from simal.suite import _hom_maps


def test_product_tables_componentwise():
    c2, c3 = cyclic_group(2), cyclic_group(3)
    alg, projs = product("C2xC3", [c2, c3])
    assert alg.size == 6
    rows = alg.carrier.rows
    mul = alg.table("mul")
    for i in range(6):
        for j in range(6):
            a = (rows[i, 0] + rows[j, 0]) % 2
            b = (rows[i, 1] + rows[j, 1]) % 3
            k = int(mul[i, j])
            assert rows[k, 0] == a and rows[k, 1] == b
    check_maltsev(alg)
    for p in projs:
        assert p.is_surjective()


def test_pullback_of_mod2_square():
    z4 = cyclic_group(4)
    z2 = cyclic_group(2)
    f = Homomorphism(z4, z2, [0, 1, 0, 1])
    alg, projs = pullback(f, f)
    assert alg.size == 8
    for a, b in alg.carrier.rows:
        assert a % 2 == b % 2


def test_tuple_map_looks_components_up_in_the_carrier():
    z4 = cyclic_group(4)
    f = Homomorphism(z4, cyclic_group(2), [0, 1, 0, 1])
    alg, _ = pullback(f, f)
    x = np.arange(4)
    shifted = tuple_map(z4, alg, [x, (x + 2) % 4])
    assert shifted.dom is z4 and shifted.cod is alg
    assert np.array_equal(alg.carrier.rows[shifted.map],
                          np.stack([x, (x + 2) % 4], axis=1))
    with pytest.raises(InvalidParameters, match="tuple outside the carrier"):
        tuple_map(z4, alg, [x, (x + 1) % 4])


def test_compatible_tuples_against_brute_filter():
    z4 = cyclic_group(4)
    z2 = cyclic_group(2)
    f = Homomorphism(z4, z2, [0, 1, 0, 1])
    g = Homomorphism(z4, z2, [0, 1, 0, 1])
    rows = compatible_tuples([z4, z4, z4],
                             [(0, f.map, 1, g.map), (1, f.map, 2, g.map)])
    brute = [
        (a, b, c)
        for a, b, c in itertools.product(range(4), repeat=3)
        if f.map[a] == g.map[b] and f.map[b] == g.map[c]
    ]
    assert sorted(tuple(int(v) for v in r) for r in rows) == brute


JOIN_SETTINGS = settings(
    max_examples=200, derandomize=True, database=None, deadline=None
)


@st.composite
def tuple_joins(draw):
    """Up to 4 slot sizes and constraints between them; each side of a
    constraint maps into its own value range, so the values one side
    reads may be missing on the other, and either side may come first.
    A constraint's values are spread by a step of 1, 2^37 or 2^60, so
    two wide constraints on one slot pass the 2^62 key bound, and one
    with a step of 2^60 and values past 3 passes it alone."""
    sizes = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    k = len(sizes)

    def side(slot, step):
        top = draw(st.integers(0, 6))
        values = st.integers(0, top).map(lambda v: v * step)
        return np.asarray(
            draw(st.lists(values, min_size=sizes[slot], max_size=sizes[slot])),
            dtype=np.int64,
        )

    constraints = []
    for _ in range(draw(st.integers(0, 6)) if k > 1 else 0):
        i, j = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2,
                             unique=True))
        step = draw(st.sampled_from([1, 2 ** 37, 2 ** 60]))
        constraints.append((i, side(i, step), j, side(j, step)))
    return sizes, constraints


@JOIN_SETTINGS
@given(tuple_joins())
def test_compatible_tuples_matches_the_product_filter(problem):
    sizes, constraints = problem
    slots = [SimpleNamespace(size=n) for n in sizes]
    want = oracles.brute_tuples(sizes, constraints)
    rows = compatible_tuples(slots, constraints)
    assert rows.dtype == np.int64 and rows.shape == (len(want), len(sizes))
    assert [tuple(int(v) for v in r) for r in rows] == want
    # the budget bounds every slot's rows: the join of each prefix
    peak = max(
        len(oracles.brute_tuples(
            sizes[:j + 1], [c for c in constraints if max(c[0], c[2]) <= j]
        ))
        for j in range(len(sizes))
    )
    assert np.array_equal(compatible_tuples(slots, constraints, budget=peak), rows)
    for budget in {peak - 1, len(want) - 1} - {-1}:
        with pytest.raises(LevelTooLarge):
            compatible_tuples(slots, constraints, budget=budget)


@JOIN_SETTINGS
@given(tuple_joins())
@example(([0, 3], [(0, np.zeros(0, np.int64), 1, np.array([0, 1, 0]))]))
@example(([0, 2, 1], []))
def test_compatible_tuples_start_from_slot_0s_range(problem):
    # no constraint is filed under slot 0, so its rows are range(size),
    # under the same budget as every slot's rows; an empty first slot
    # leaves no rows
    sizes, constraints = problem
    slots = [SimpleNamespace(size=n) for n in sizes]
    rows = compatible_tuples(slots, constraints)
    assert [tuple(int(v) for v in r) for r in rows] == \
        oracles.brute_tuples(sizes, constraints)
    assert np.array_equal(compatible_tuples(slots[:1], [], budget=sizes[0]),
                          np.arange(sizes[0])[:, None])
    if sizes[0]:
        for k in (1, len(sizes)):
            with pytest.raises(LevelTooLarge):
                compatible_tuples(slots[:k], constraints if k > 1 else [],
                                  budget=sizes[0] - 1)


def test_a_constraint_needs_two_slots():
    z2 = SimpleNamespace(size=2)
    with pytest.raises(InvalidParameters, match="constraint on slot 1 alone"):
        compatible_tuples([z2, z2], [(1, np.arange(2), 1, np.arange(2))])


def _unique_calls_in_limits(monkeypatch):
    """The names of the limits functions that call np.unique, one entry
    per call."""
    calls = []
    original = np.unique

    def counted(*args, **kwargs):
        caller = sys._getframe(1)
        if caller.f_globals.get("__name__") == limits.__name__:
            calls.append(caller.f_code.co_name)
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    return calls


@pytest.mark.parametrize("step, ranked", [
    (1, []),
    # two constraints into slot 2 with spans past 2^37: the keys so far
    # are ranked before the second
    (2 ** 37, ["_ranks"]),
    # every span passes the bound alone, so each constraint ranks the
    # keys so far and then its values
    (2 ** 61, ["_ranks"] * 6),
])
def test_wide_keys_are_ranked_only_past_the_bound(monkeypatch, step, ranked):
    calls = _unique_calls_in_limits(monkeypatch)
    sizes = [3, 4, 5]
    a = np.array([0, 1, 2]) * step
    b = np.array([2, 1, 0, 1]) * step
    c = np.array([1, 0, 1, 2, 3]) * step
    d = np.array([0, 0, 1, 1]) * step
    e = np.array([1, 1, 0, 0, 1]) * step
    constraints = [(0, a, 2, c), (1, d, 2, e), (0, a, 1, b)]
    rows = compatible_tuples([SimpleNamespace(size=n) for n in sizes],
                             constraints)
    assert [tuple(int(v) for v in r) for r in rows] == \
        oracles.brute_tuples(sizes, constraints)
    assert len(rows) > 0
    assert calls == ranked


def test_deep_classification_enumerates_without_unique(monkeypatch):
    # the deep corpus's keys stay far below 2^62, so no slot ranks them
    calls = _unique_calls_in_limits(monkeypatch)
    extensions = dict(default_corpus("deep")["extensions"])
    for name in ("augment-cosk-loops", "unit-cosk-loops", "deloop-C8-C4"):
        classify_extension(extensions[name])
        em_factorization(extensions[name])
    assert calls == []


def test_tuple_carrier_sorts_rows_that_arrive_out_of_order():
    factors = [cyclic_group(3), cyclic_group(4), cyclic_group(2)]
    ordered = np.array(list(itertools.product(range(3), range(4), range(2))))
    ordered = ordered[(ordered.sum(axis=1) % 3) != 1]
    shuffled = ordered[np.random.default_rng(5).permutation(len(ordered))]
    assert not np.array_equal(shuffled, ordered)
    want = TupleCarrier(factors, ordered)
    got = TupleCarrier(factors, shuffled)
    assert np.array_equal(got.rows, ordered)
    assert np.array_equal(got.codes, want.codes)
    assert np.array_equal(got.index_of(shuffled), want.index_of(shuffled))
    with pytest.raises(InvalidParameters, match="duplicate tuple rows"):
        TupleCarrier(factors, np.concatenate([shuffled, shuffled[3:4]]))


def test_budget_guard():
    z8 = cyclic_group(8)
    with pytest.raises(LevelTooLarge):
        compatible_tuples([z8, z8, z8], [], budget=100)


def test_subproduct_rejects_rows_without_the_constants():
    z2 = cyclic_group(2)
    with pytest.raises(InvalidParameters, match="outside the carrier"):
        subproduct_algebra("no-e", [z2, z2], [[1, 1]])


def test_subproduct_rejects_duplicate_rows():
    z2 = cyclic_group(2)
    with pytest.raises(InvalidParameters):
        subproduct_algebra("dup", [z2, z2], [[0, 0], [0, 0]])


def test_tuple_codes_stop_at_62_bits():
    assert list(tuple_weights([2 ** 31, 2 ** 31 - 1])) == [2 ** 31 - 1, 1]
    with pytest.raises(LevelTooLarge, match="exceeds 62 bits"):
        tuple_weights([2 ** 31, 2 ** 31])


def test_subproduct_needs_a_factor():
    with pytest.raises(InvalidParameters, match="at least one factor"):
        subproduct_algebra("none", [], np.zeros((0, 0), dtype=np.int64))


def test_pullback_needs_one_codomain_instance():
    # two copies of C2 are equal in size and table, but not one cospan
    z4 = cyclic_group(4)
    f = Homomorphism(z4, cyclic_group(2), [0, 1, 0, 1])
    g = Homomorphism(z4, cyclic_group(2), [0, 1, 0, 1])
    with pytest.raises(InvalidParameters, match="shared codomain"):
        pullback(f, g)


def test_double_extension_collapsing_square_true():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    f = Homomorphism(z4, z2, [0, 1, 0, 1])
    assert is_double_extension(f, f, identity_hom(z2), identity_hom(z2)) is True


def test_double_extension_kernel_pair_square_false():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    f = Homomorphism(z4, z2, [0, 1, 0, 1])
    # identities as the span legs: the comparison hits only the diagonal
    # of the kernel pair of f, so this square is not a double extension
    assert is_double_extension(identity_hom(z4), identity_hom(z4), f, f) is False


def _crt_square():
    """Z6 onto Z2 and Z3, both onto the one-element group."""
    z6 = cyclic_group(6)
    z2, z3 = cyclic_group(2), cyclic_group(3)
    one = cyclic_group(1)
    q2 = Homomorphism(z6, z2, [x % 2 for x in range(6)])
    q3 = Homomorphism(z6, z3, [x % 3 for x in range(6)])
    t2 = Homomorphism(z2, one, [0, 0])
    t3 = Homomorphism(z3, one, [0, 0, 0])
    return q2, q3, t2, t3


def test_double_extension_crt_square_true():
    assert is_double_extension(*_crt_square()) is True


def test_double_extension_routes_must_agree(monkeypatch):
    # the CRT square with images that come out diagonal: the kernel-pair
    # route then says no while the comparison is onto
    monkeypatch.setattr(limits, "cg", SimpleNamespace(
        **{**vars(cg), "image": lambda f, theta: cg.diagonal(f.cod)}))
    with pytest.raises(CrossRouteMismatch,
                       match="comparison-surjective=True"):
        is_double_extension(*_crt_square())


def test_double_extension_rejects_non_commuting():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    f = Homomorphism(z4, z2, [0, 1, 0, 1])
    shift = Homomorphism(z2, z2, [1, 0], check=False)
    with pytest.raises(NotCommuting):
        is_double_extension(f, f, identity_hom(z2), shift)


def test_double_extension_rejects_non_surjective_side():
    z4 = cyclic_group(4)
    double = Homomorphism(z4, z4, [0, 2, 0, 2])
    with pytest.raises(NotRegularEpi):
        is_double_extension(identity_hom(z4), identity_hom(z4), double, double)


def test_double_extension_counts_its_pullback_without_building_it(
    monkeypatch
):
    # the verdicts of the squares above and of every face square of a
    # nerve and a coskeleton, with the two tuple builders made to raise;
    # the budget binds exactly at the pullback's size
    z4, z2, z6 = cyclic_group(4), cyclic_group(2), cyclic_group(6)
    f = Homomorphism(z4, z2, [0, 1, 0, 1])
    one = cyclic_group(1)
    q2 = Homomorphism(z6, z2, [x % 2 for x in range(6)])
    q3 = Homomorphism(z6, cyclic_group(3), [x % 3 for x in range(6)])
    squares = [
        ((f, f, identity_hom(z2), identity_hom(z2)), True),
        ((identity_hom(z4), identity_hom(z4), f, f), False),
        ((q2, q3, Homomorphism(z2, one, [0, 0]),
          Homomorphism(q3.cod, one, [0, 0, 0])), True),
    ]
    for X in (nerve(pair_groupoid(z2), 3),
              coskeleton(loops_graph(z2, z2), 3)):
        squares += [((X.faces[n][i], X.faces[n][j],
                      X.faces[n - 1][j - 1], X.faces[n - 1][i]), True)
                    for n in range(2, 4)
                    for j in range(1, n + 1) for i in range(j)]
    sizes = [pullback(legs[2], legs[3])[0].size for legs, _ in squares]

    def refuse(*args, **kwargs):
        raise AssertionError("is_double_extension built a tuple algebra")

    monkeypatch.setattr(limits, "compatible_tuples", refuse)
    monkeypatch.setattr(limits, "subproduct_algebra", refuse)
    for (legs, verdict), size in zip(squares, sizes):
        assert is_double_extension(*legs) is verdict
        assert is_double_extension(*legs, budget=size) is verdict
        with pytest.raises(LevelTooLarge):
            is_double_extension(*legs, budget=size - 1)


def _read_constants(alg):
    return {
        opname: int(alg.table(opname)[0])
        for opname, arity in alg.signature.ops
        if arity == 0
    }


def test_lazy_tables_only_built_on_demand():
    c5 = cyclic_group(5)
    alg, projs = product("C5xC5", [c5, c5])
    assert alg._tables is None
    outer, _ = product("(C5xC5)^2", [alg, alg])
    pb, _ = pullback(projs[0], projs[1])
    q, _ = cg.quotient(alg, cg.kernel_pair(projs[0]))
    level = nerve(pair_groupoid(c5), 3).levels[3]
    built = [outer, alg, pb, q, level]
    assert all(_read_constants(a) == {"e": 0} for a in built)
    assert all(a._tables is None for a in built)
    alg.table("mul")
    assert alg._tables is not None
    assert outer._tables is None


def test_subproduct_table_is_int32_and_componentwise_across_chunks():
    c32 = cyclic_group(32)
    alg, _ = subproduct_algebra("pairs(C32)", [c32, c32], cg.full(c32).pairs())
    m = alg.size
    assert m == 1024 and m * m > algebra.TABLE_CHUNK_CELLS
    mul = alg.table("mul")
    assert mul.dtype == np.int32
    rows, t = alg.carrier.rows, c32.table("mul")
    want = np.stack(
        [t[rows[:, c][:, None], rows[:, c][None, :]] for c in range(2)], axis=-1
    )
    assert np.array_equal(mul, alg.carrier.index_of(want.reshape(-1, 2)).reshape(m, m))


def test_checks_on_a_subproduct_past_the_op_table_bound_build_no_table():
    # pairs(C32)'s mul table would hold 1,048,576 cells, more than op
    # builds, so the checks read its rows through the evaluator a slab
    # at a time and leave the table unbuilt
    c32 = cyclic_group(32)
    alg, projs = subproduct_algebra(
        "pairs(C32)", [c32, c32], cg.full(c32).pairs()
    )
    assert alg.size ** 2 > algebra.OP_TABLE_CELLS
    cg.Congruence(alg, np.zeros(alg.size, dtype=np.int64), check=True)
    check_homomorphism(projs[0])
    squares = Homomorphism(alg, c32, projs[0].map ** 2 % 32, check=False)
    with pytest.raises(InvalidParameters, match="does not preserve 'mul'"):
        check_homomorphism(squares)
    assert alg._tables is None


@pytest.mark.parametrize("chunk_cells", [None, 100])
def test_subproduct_ternary_table_is_componentwise(monkeypatch, chunk_cells):
    # a slab smaller than one first-argument row (27 * 27 cells) still
    # writes the table one row at a time
    if chunk_cells is not None:
        monkeypatch.setattr(algebra, "TABLE_CHUNK_CELLS", chunk_cells)
    x, y, z = np.ix_(range(3), range(3), range(3))
    z3 = make_algebra(
        "Z3p", Signature([("p", 3)]), {"p": (x - y + z) % 3}, "p(x, y, z)"
    )
    alg, _ = product("Z3p^3", [z3, z3, z3])
    m = alg.size
    assert m == 27
    rows, t = alg.carrier.rows, z3.table("p")
    want = np.stack(
        [t[np.ix_(rows[:, c], rows[:, c], rows[:, c])] for c in range(3)],
        axis=-1,
    )
    table = alg.table("p")
    assert table.dtype == np.int32
    assert np.array_equal(
        table, alg.carrier.index_of(want.reshape(-1, 3)).reshape(m, m, m)
    )
    check_maltsev(alg)


def _ternary(name, n, rule):
    x, y, z = np.ix_(range(n), range(n), range(n))
    return make_algebra(
        name, Signature([("p", 3)]), {"p": rule(x, y, z)}, "p(x, y, z)"
    )


# Families of algebras of one signature each, small enough that three
# factors have at most 36 elements (27 for the ternary family).
LIMIT_FAMILIES = [
    [cyclic_group(1), cyclic_group(2), cyclic_group(3), cyclic_group(4),
     symmetric_group(3)],
    [heyting_from_poset({"kind": "chain", "n": 2}),
     heyting_from_poset({"kind": "chain", "n": 3})],
    [_ternary("Z3p", 3, lambda x, y, z: (x - y + z) % 3),
     _ternary("disc3", 3, lambda x, y, z: np.where(x == y, z, x)),
     _ternary("Z2p", 2, lambda x, y, z: x ^ y ^ z)],
]

LIMIT_SETTINGS = settings(
    max_examples=60, derandomize=True, database=None, deadline=None
)


def _assert_eager_constants(alg):
    """The constants are read before any table is built, and equal the
    built tables' nullary entries."""
    assert alg._tables is None
    eager = _read_constants(alg)
    assert alg._tables is None
    assert eager == {opname: int(alg.tables[opname][0]) for opname in eager}


def _assert_limit(alg, projs, factors, want_rows):
    """Carrier rows, every table and the projections of a limit against
    componentwise evaluation."""
    assert [tuple(int(v) for v in r) for r in alg.carrier.rows] == want_rows
    assert alg.size == len(want_rows)
    want = oracles.componentwise_tables(factors, want_rows)
    _assert_eager_constants(alg)
    for opname, _ in alg.signature.ops:
        assert np.array_equal(alg.table(opname), want[opname]), opname
    assert [(p.dom, p.cod) for p in projs] == [(alg, f) for f in factors]
    for c, p in enumerate(projs):
        assert [int(v) for v in p.map] == [r[c] for r in want_rows]


@LIMIT_SETTINGS
@given(st.data())
def test_product_is_componentwise(data):
    family = data.draw(st.sampled_from(LIMIT_FAMILIES))
    bound = 27 if family is LIMIT_FAMILIES[-1] else 36
    factors = data.draw(st.lists(st.sampled_from(family), min_size=1,
                                 max_size=3))
    sizes = [f.size for f in factors]
    assume(np.prod(sizes) <= bound)
    alg, projs = product("prod", factors)
    want_rows = list(itertools.product(*(range(n) for n in sizes)))
    _assert_limit(alg, projs, factors, want_rows)


@LIMIT_SETTINGS
@given(st.data())
def test_pullback_is_componentwise(data):
    family = data.draw(st.sampled_from(LIMIT_FAMILIES))
    a, b, c = (data.draw(st.sampled_from(family)) for _ in range(3))
    f = Homomorphism(a, c, data.draw(st.sampled_from(list(_hom_maps(a, c)))))
    g = Homomorphism(b, c, data.draw(st.sampled_from(list(_hom_maps(b, c)))))
    alg, projs = pullback(f, g)
    want_rows = [
        (x, y) for x in range(a.size) for y in range(b.size)
        if f.map[x] == g.map[y]
    ]
    _assert_limit(alg, projs, [a, b], want_rows)


@LIMIT_SETTINGS
@given(st.data())
def test_image_is_a_componentwise_one_factor_subproduct(data):
    # the representation of a subalgebra: the rows of one factor that a
    # homomorphism hits, often a proper subset of it
    family = data.draw(st.sampled_from(LIMIT_FAMILIES))
    a, c = (data.draw(st.sampled_from(family)) for _ in range(2))
    f = Homomorphism(a, c, data.draw(st.sampled_from(list(_hom_maps(a, c)))))
    alg, projs = subproduct_algebra("im", [c], cg.distinct(f.map)[:, None])
    want_rows = [(y,) for y in sorted(set(int(v) for v in f.map))]
    _assert_limit(alg, projs, [c], want_rows)


@LIMIT_SETTINGS
@given(st.data())
def test_quotient_is_blockwise(data):
    family = data.draw(st.sampled_from(LIMIT_FAMILIES))
    factors = data.draw(st.lists(st.sampled_from(family), min_size=1,
                                 max_size=2))
    alg = product("prod", factors)[0] if len(factors) > 1 else factors[0]
    with mock.patch.object(cg, "ENUMERATION_LIMIT", 36):
        theta = data.draw(st.sampled_from(cg.enumerate_congruences(alg)))
    q, proj = cg.quotient(alg, theta)
    want_proj, want = oracles.quotient_by_blocks(alg, theta.part)
    assert q.size == len(set(want_proj))
    assert proj.dom is alg and proj.cod is q
    assert [int(v) for v in proj.map] == want_proj
    _assert_eager_constants(q)
    for opname, _ in alg.signature.ops:
        assert np.array_equal(q.table(opname), want[opname]), opname
