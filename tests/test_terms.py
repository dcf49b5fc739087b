import numpy as np
import pytest

from simal.errors import InvalidParameters
from simal.terms import Term, parse_term, evaluate
from simal.corpus import cyclic_group


def test_parse_round_trip():
    t = parse_term("mul(mul(x, inv(y)), z)")
    assert str(t) == "mul(mul(x, inv(y)), z)"
    assert t == Term("mul", [Term("mul", [Term("x"), Term("inv", [Term("y")])]),
                             Term("z")])


def test_parse_constant_with_and_without_parens():
    assert parse_term("e") == parse_term("e()")


def test_parse_rejects_garbage():
    for bad in ["", "mul(x,", "mul x y", "x)", "mul(x, y) z", "3 + 4"]:
        with pytest.raises(InvalidParameters):
            parse_term(bad)


def test_evaluate_scalar_and_vectorized_agree():
    c4 = cyclic_group(4)
    t = c4.maltsev_term
    a = np.arange(4)
    grid = evaluate(t, c4.op, {"x": a[:, None], "y": 1, "z": a[None, :]})
    for i in range(4):
        for j in range(4):
            scalar = evaluate(t, c4.op, {"x": i, "y": 1, "z": j})
            assert int(grid[i, j]) == int(scalar) == (i - 1 + j) % 4
