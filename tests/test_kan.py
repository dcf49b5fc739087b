"""Horn filling: every object over a Mal'tsev signature fills all horns,
and every levelwise surjection lifts horns against its codomain."""

import numpy as np
import pytest

import oracles

from simal.config import resolve_budget
from simal.corpus import default_corpus
from simal import simplicial
from simal.errors import BudgetError, LevelTooLarge, PropertyViolation
from simal.simplicial import (
    SimplicialMorphism,
    exactness_check,
    kan_check,
    kan_fibration_check,
    nerve,
    truncate,
)
from simal.corpus import cyclic_group, one_object_groupoid, pair_groupoid

CORPUS = default_corpus("desk")


def test_every_corpus_object_fills_every_horn():
    for name, X in CORPUS["objects"]:
        entries = kan_check(X)
        expected = sum(n + 1 for n in range(2, X.truncation + 1))
        assert len(entries) == expected, name


def test_horn_sizes_for_one_object_nerve():
    X = nerve(one_object_groupoid(cyclic_group(4)), 2)
    entries = kan_check(X)
    assert [e["k"] for e in entries] == [0, 1, 2]
    for e in entries:
        # two free arrows over a single object
        assert e["horn_size"] == 16
        assert e["image_size"] == 16


def test_horn_respects_budget():
    X = nerve(pair_groupoid(cyclic_group(4)), 3)
    with pytest.raises(BudgetError):
        kan_check(X, budget=3)


def test_every_corpus_extension_is_a_fibration():
    for name, F in CORPUS["extensions"]:
        entries = kan_fibration_check(F)
        assert all(e["surjective"] for e in entries), name


def test_fibration_entries_record_sizes():
    name, F = CORPUS["extensions"][0]
    entries = kan_fibration_check(F)
    for e in entries:
        assert e["image_size"] <= e["pullback_size"]
        assert e["image_size"] <= e["level_size"]
        assert e["surjective"] == (e["image_size"] == e["pullback_size"])
        assert e["bijective"] == (
            e["surjective"] and e["image_size"] == e["level_size"]
        )


def test_trivial_covering_comparison_is_bijective():
    # a unit of the reflection over a groupoid nerve changes nothing,
    # so the horn comparison map is a bijection at every horn
    from simal.reflection import pi1

    X = nerve(pair_groupoid(cyclic_group(3)), 2)
    F = pi1(X).unit
    entries = kan_fibration_check(F)
    assert all(e["bijective"] for e in entries)


def _discrete_into_loops():
    """The discrete nerve of C2 included into the coskeleton of C2's
    loops, which is not a levelwise surjection."""
    from simal.corpus import discrete_groupoid, loops_graph
    from simal.simplicial import coskeleton
    from simal.algebra import Homomorphism

    c2 = cyclic_group(2)
    X = nerve(discrete_groupoid(c2), 2)
    Y = coskeleton(loops_graph(c2, c2), 2)
    f0 = np.arange(2)
    f1 = Y.degeneracies[0][0].map[f0]
    f2 = Y.degeneracies[1][0].map[f1]
    return SimplicialMorphism(X, Y, [
        Homomorphism(X.levels[0], Y.levels[0], f0, check=False),
        Homomorphism(X.levels[1], Y.levels[1], f1, check=False),
        Homomorphism(X.levels[2], Y.levels[2], f2, check=False),
    ], check=True)


def test_non_surjective_morphism_reported_not_lifting():
    # include the discrete nerve into a coskeleton with extra loops: a
    # downstairs filler with a non-degenerate middle face has no
    # preimage, so the horn comparison is not surjective
    incl = _discrete_into_loops()
    assert not incl.is_levelwise_surjective()
    entries = kan_fibration_check(incl)
    assert not all(e["surjective"] for e in entries)


def _doubled_horns(monkeypatch):
    """Count every horn tuple twice, so that no horn has as many
    fillers as tuples and no comparison is onto its pullback."""
    horn = simplicial.horn

    def doubled(X, n, k, budget=None):
        rows, faces = horn(X, n, k, budget=budget)
        return np.concatenate((rows, rows)), faces

    monkeypatch.setattr(simplicial, "horn", doubled)


def test_a_horn_without_a_filler_raises(monkeypatch):
    X = nerve(pair_groupoid(cyclic_group(2)), 2)
    _doubled_horns(monkeypatch)
    with pytest.raises(PropertyViolation) as exc:
        kan_check(X)
    assert str(exc.value) == f"horn (2,0) of {X.name} has no filler"


def test_a_levelwise_surjection_that_does_not_lift_raises(monkeypatch):
    F = _fresh(dict(CORPUS["extensions"])["pairC4-pairC2"])
    _doubled_horns(monkeypatch)
    with pytest.raises(PropertyViolation) as exc:
        kan_fibration_check(F)
    assert str(exc.value) == "levelwise surjection fails horn lifting at (2,0)"
    # the raising check keeps nothing
    assert F.derived == {}
    # a morphism that is not a levelwise surjection gets its entries
    entries = kan_fibration_check(_discrete_into_loops())
    assert not any(e["surjective"] for e in entries)


def test_simal_kan_exits_2_on_a_horn_that_does_not_fill(tmp_path,
                                                        monkeypatch):
    from simal import io as sio
    from simal.cli import run

    X = nerve(pair_groupoid(cyclic_group(2)), 2)
    F = dict(CORPUS["extensions"])["pairC4-pairC2"]
    paths = [str(tmp_path / name) for name in ("X.json", "F.json")]
    sio.save_json(sio.simplicial_to_json(X), paths[0])
    sio.save_json(sio.morphism_to_json(F), paths[1])
    _doubled_horns(monkeypatch)
    for path, witness in zip(paths, [
            f"horn (2,0) of {X.name} has no filler",
            "levelwise surjection fails horn lifting at (2,0)"]):
        code, report, _ = run(["kan", path])
        assert code == 2
        assert report["violations"] == [
            {"property": "PropertyViolation", "witness": witness}]


def test_truncated_corpus_objects_still_fill():
    for name, X in CORPUS["objects"][:4]:
        if X.truncation >= 3:
            assert len(kan_check(truncate(X, 2))) == 3, name


# Horns and kernels whose whole product of X_{n-1} is at most this many
# tuples are swept by the oracle.
SWEEP_LIMIT = 20_000


def test_counts_match_a_sweep_of_the_whole_product():
    checked = 0
    for name, X in CORPUS["objects"]:
        entries = {(e["n"], e["k"]): e for e in kan_check(X)}
        for n in range(1, X.truncation + 1):
            if X.levels[n - 1].size ** (n + 1) <= SWEEP_LIMIT:
                _, sizes = exactness_check(X, n - 1)
                assert oracles.horn_counts(X, n, range(n + 1)) == (
                    sizes["kernel_size"], sizes["image_size"]), name
                checked += 1
            if n < 2 or X.levels[n - 1].size ** n > SWEEP_LIMIT:
                continue
            for k in range(n + 1):
                slots = [i for i in range(n + 1) if i != k]
                e = entries[n, k]
                assert oracles.horn_counts(X, n, slots) == (
                    e["horn_size"], e["image_size"]), (name, n, k)
                checked += 1
    for name, F in CORPUS["extensions"]:
        for e in kan_fibration_check(F):
            n, k = e["n"], e["k"]
            if F.dom.levels[n - 1].size ** n > SWEEP_LIMIT:
                continue
            assert oracles.fibration_counts(F, n, k) == (
                e["pullback_size"], e["image_size"]), (name, n, k)
            checked += 1
    assert checked >= 200


def test_kan_and_exactness_checks_build_no_algebra(monkeypatch):
    # the checks count face tuples: no subproduct algebra of a horn or
    # kernel is built, and no map into one
    from simal import limits, simplicial

    def refused(*args, **kwargs):
        raise AssertionError("built an algebra or a map into one")

    for module in (limits, simplicial):
        monkeypatch.setattr(module, "subproduct_algebra", refused)
        monkeypatch.setattr(module, "tuple_map", refused)
    for name, X in CORPUS["objects"]:
        kan_check(X)
        for level in range(X.truncation):
            exactness_check(X, level)
    for name, F in CORPUS["extensions"]:
        # a copy, since F keeps the entries of an earlier check
        kan_fibration_check(_fresh(F))


def _fresh(F):
    """A copy of F that keeps no fibration entries."""
    return SimplicialMorphism(F.dom, F.cod, F.components, check=False)


def test_fibration_entries_are_kept_per_budget():
    F = _fresh(dict(CORPUS["extensions"])["quotient-cosk-fibers"])
    first = kan_fibration_check(F)
    b = max(e["horn_size"] for e in kan_check(F.dom)) - 1
    with pytest.raises(LevelTooLarge) as fresh:
        kan_fibration_check(_fresh(F), budget=b)
    with pytest.raises(LevelTooLarge) as kept:
        kan_fibration_check(F, budget=b)
    assert str(kept.value) == str(fresh.value)
    # the raising call keeps nothing, and every call gets its own entries
    assert set(F.derived) == {("fibration", resolve_budget(None))}
    again = kan_fibration_check(F)
    assert again == first
    assert all(a is not b for a, b in zip(again, first))


def test_an_empty_object_fills_every_horn():
    # over a signature without constants the empty algebra is allowed;
    # its horns and kernels are empty, and so is every level
    from simal.algebra import FiniteAlgebra, Signature, identity_hom
    from simal.simplicial import SimplicialMorphism, constant_simplicial

    empty = FiniteAlgebra("empty", 0, Signature([("p", 3)]),
                          {"p": np.zeros((0, 0, 0), dtype=np.int64)},
                          "p(x,y,z)")
    X = constant_simplicial(empty, 3)
    entries = kan_check(X)
    assert len(entries) == 7
    assert {e["horn_size"] for e in entries} == {0}
    assert exactness_check(X, 2) == (
        True, {"kernel_size": 0, "image_size": 0})
    F = SimplicialMorphism(X, X, [identity_hom(lvl) for lvl in X.levels])
    assert all(e["bijective"] and e["pullback_size"] == 0
               for e in kan_fibration_check(F))


def test_fibration_check_looks_up_every_tuple_in_the_codomain_horn():
    # Y's horn is never enumerated, but Y's faces and F's images of X's
    # horn tuples must still satisfy Y's face equations
    from simal.algebra import Homomorphism
    from simal.errors import InvalidParameters
    from simal.simplicial import SimplicialMorphism, TruncatedSimplicialAlgebra

    F = dict(CORPUS["extensions"])["pairC4-pairC2"]
    X, Y = F.dom, F.cod
    # d0 and d1 swapped on Y's arrows
    faces = [list(fs) for fs in Y.faces]
    faces[1].reverse()
    swapped = TruncatedSimplicialAlgebra(Y.levels, faces, Y.degeneracies)
    # F's arrow component rotated, so F sends horns of X off Y's horns
    comps = list(F.components)
    comps[1] = Homomorphism(X.levels[1], Y.levels[1],
                            np.roll(comps[1].map, 1), check=False)
    for G in (SimplicialMorphism(X, swapped, F.components, check=False),
              SimplicialMorphism(X, Y, comps, check=False)):
        with pytest.raises(InvalidParameters,
                           match="^tuple outside the carrier$"):
            kan_fibration_check(G)
