import numpy as np
import pytest

from simal import algebra
from simal.algebra import (
    Homomorphism,
    check_maltsev,
    identity_hom,
    validate_algebra,
)
from simal.errors import (
    InconsistentConstants,
    InvalidParameters,
    MalformedTable,
    NotMaltsev,
)
from simal.corpus import (
    cyclic_group,
    dihedral_group,
    heyting_from_poset,
    symmetric_group,
    terminal_algebra,
    zk_module,
    GROUP_SIG,
    GROUP_TERM,
    MODULE_SIG,
    MODULE_TERM,
)


def _raw_z2():
    return {
        "name": "Z2",
        "size": 2,
        "operations": [
            {"name": "add", "arity": 2, "table": [[0, 1], [1, 0]]},
            {"name": "neg", "arity": 1, "table": [0, 1]},
            {"name": "zero", "arity": 0, "table": [0]},
        ],
        "maltsev": {"term": "add(add(x, neg(y)), z)"},
    }


def test_validate_algebra_accepts_z2():
    alg = validate_algebra(_raw_z2())
    assert alg.size == 2
    assert alg.op("add", 1, 1) == 0


def test_validate_algebra_rejects_bad_shape():
    raw = _raw_z2()
    raw["operations"][0]["table"] = [[0, 1, 0], [1, 0, 1]]
    with pytest.raises(MalformedTable):
        validate_algebra(raw)


def test_validate_algebra_rejects_out_of_range_entry():
    raw = _raw_z2()
    raw["operations"][1]["table"] = [0, 5]
    with pytest.raises(MalformedTable):
        validate_algebra(raw)


def test_validate_algebra_rejects_non_maltsev_term():
    raw = _raw_z2()
    raw["maltsev"]["term"] = "x"
    with pytest.raises(NotMaltsev):
        validate_algebra(raw)
    raw["maltsev"]["term"] = "mystery(x, y, z)"
    with pytest.raises(NotMaltsev):
        validate_algebra(raw)


def test_maltsev_witness_names_the_failing_identity(monkeypatch):
    # p(x,y,y) = x fails first for z and for a constant, p(x,x,y) = y
    # for x; each witness is the first failing pair in row order, also
    # when the check runs in slabs of one first argument
    for chunk_cells in (algebra.TABLE_CHUNK_CELLS, 1):
        monkeypatch.setattr(algebra, "TABLE_CHUNK_CELLS", chunk_cells)
        for term, witness in [("z", "p(0,1,1) = 1, expected 0"),
                              ("zero", "p(1,0,0) = 0, expected 1"),
                              ("x", "p(0,0,1) = 0, expected 1")]:
            raw = _raw_z2()
            raw["maltsev"]["term"] = term
            with pytest.raises(NotMaltsev) as err:
                validate_algebra(raw)
            assert str(err.value) == f"Z2: {witness}"


def test_slabs_cover_the_grid_in_row_order(monkeypatch):
    # whole first-argument rows, at most a slab of cells each unless one
    # row is larger; a grid in one slab is handed over whole, from grids
    # built once and read-only
    sizes = (5, 3, 2)
    for chunk_cells, rows in ((algebra.TABLE_CHUNK_CELLS, [5]),
                              (13, [2, 2, 1]), (1, [1] * 5)):
        monkeypatch.setattr(algebra, "TABLE_CHUNK_CELLS", chunk_cells)
        walk = list(algebra.slabs(sizes))
        assert [len(first) for first, _ in walk] == rows
        assert np.concatenate([first for first, _ in walk]).tolist() == [
            0, 1, 2, 3, 4]
        for first, grids in walk:
            assert [g.shape for g in grids] == [
                (len(first), 1, 1), (1, 3, 1), (1, 1, 2)]
            assert grids[0].ravel().tolist() == first.tolist()
    monkeypatch.undo()
    (_, once), = algebra.slabs(sizes)
    (_, again), = algebra.slabs(sizes)
    assert all(a is b and not a.flags.writeable for a, b in zip(once, again))
    assert list(algebra.slabs((0, 3))) == []


def test_maltsev_check_on_corpus():
    for alg in [
        cyclic_group(5),
        dihedral_group(4),
        symmetric_group(3),
        zk_module(4, 1),
        zk_module(2, 2),
        heyting_from_poset({"kind": "chain", "n": 3}),
        heyting_from_poset({"kind": "grid", "rows": 2, "cols": 2}),
    ]:
        check_maltsev(alg)


def test_heyting_maltsev_term_all_triples():
    """Spell the identity check out element by element on the diamond."""
    h = heyting_from_poset({"kind": "grid", "rows": 2, "cols": 2})
    for x in range(4):
        for y in range(4):
            assert int(h.p(x, y, y)) == x
            assert int(h.p(x, x, y)) == y


def test_empty_algebra_with_constant_rejected():
    raw = {
        "name": "bad",
        "size": 0,
        "operations": [{"name": "c", "arity": 0, "table": [0]}],
        "maltsev": {"term": "x"},
    }
    with pytest.raises(InconsistentConstants):
        validate_algebra(raw)


def test_homomorphism_checked_on_build():
    z4 = cyclic_group(4)
    z2 = cyclic_group(2)
    Homomorphism(z4, z2, [0, 1, 0, 1])
    with pytest.raises(InvalidParameters):
        Homomorphism(z4, z2, [0, 1, 1, 0])


def test_homomorphism_witness_is_plain_ints(monkeypatch):
    # the witness reads the same whatever numpy prints for its integers,
    # and is the first failing pair in row order in slabs of one row too
    z4 = cyclic_group(4)
    for chunk_cells in (algebra.TABLE_CHUNK_CELLS, 1):
        monkeypatch.setattr(algebra, "TABLE_CHUNK_CELLS", chunk_cells)
        with pytest.raises(InvalidParameters) as err:
            Homomorphism(z4, z4, [0, 2, 1, 3])
        assert str(err.value) == (
            "map does not preserve 'mul' at arguments (1, 1)"
        )


def test_homomorphism_map_must_hold_integers():
    # [0, 1.0, 2.9, 3] was truncated to the identity
    z4 = cyclic_group(4)
    with pytest.raises(InvalidParameters,
                       match=r"^map: entry 1\.0 is not an integer$"):
        Homomorphism(z4, z4, [0, 1.0, 2.9, 3])
    # an int64 map is kept as given, not copied
    fmap = np.arange(4)
    assert Homomorphism(z4, z4, fmap).map is fmap


def test_hom_composition_and_identity():
    z4 = cyclic_group(4)
    z2 = cyclic_group(2)
    f = Homomorphism(z4, z2, [0, 1, 0, 1])
    assert identity_hom(z2) == Homomorphism(z2, z2, [0, 1])
    assert f.is_surjective() and not f.is_bijective()


def test_terminal_algebra():
    t = terminal_algebra(GROUP_SIG, GROUP_TERM)
    assert t.size == 1
    s3 = symmetric_group(3)
    assert Homomorphism(s3, t, np.zeros(s3.size, dtype=np.int64)).is_surjective()


# -- the guards of make_algebra, fired one by one ---------------------------

GUARDS = [
    # size 2 is read off the first positive-arity table, 'add'
    (lambda: algebra.make_algebra(
        "bad", MODULE_SIG,
        {"add": [[0, 1], [1, 0]], "neg": [0, 1, 0], "zero": [0]},
        MODULE_TERM),
     MalformedTable, r"table 'neg' has shape \(3,\), expected \(2,\)"),
    (lambda: algebra.make_algebra(
        "points", algebra.Signature([("e", 0)]), {"e": [0]}, "x"),
     InvalidParameters, "cannot infer size from nullary tables only"),
]


@pytest.mark.parametrize("call, error, witness", GUARDS,
                         ids=[w for _, _, w in GUARDS])
def test_make_algebra_guards(call, error, witness):
    # a file is reshaped to its declared size before these checks, so
    # only a direct call with hand-built tables reaches them
    with pytest.raises(error, match=witness):
        call()
