"""Commutator of two congruences via the pair-algebra construction.

For congruences theta, psi on A: form the algebra of theta-pairs inside
A x A, generate the congruence Delta on it from the doubled psi-pairs
((u,u),(v,v)), and read off

    [theta, psi] = {(a, b) : (a, b) and (b, b) lie in one Delta class}.

This is the standard term-condition commutator for congruence modular
varieties, computed without enumerating matrices.  The partition comes
from congruences.merge over the pairs read off; their distinct count
must equal the partition's pair count, which certifies that the
relation was already an equivalence.
"""

import numpy as np

from .errors import InvalidParameters, PropertyViolation
from . import congruences as cg
from .limits import subproduct_algebra


def tc_commutator(theta, psi):
    if theta.on is not psi.on:
        raise InvalidParameters("commutator arguments live on different algebras")
    alg = theta.on
    n = alg.size
    if n == 0:
        return cg.diagonal(alg)
    pairalg, _ = subproduct_algebra(
        f"pairs({alg.name})", [alg, alg], theta.pairs()
    )
    diag_idx = pairalg.carrier.index_of(
        np.stack([np.arange(n), np.arange(n)], axis=1)
    )
    moved = np.flatnonzero(psi.part != np.arange(n))
    gens = np.stack([diag_idx[moved], diag_idx[psi.part[moved]]], axis=1)
    delta = cg.congruence_generated(pairalg, gens)
    a_col = pairalg.carrier.rows[:, 0]
    b_col = pairalg.carrier.rows[:, 1]
    hits = np.flatnonzero(delta.part == delta.part[diag_idx[b_col]])
    result = cg.Congruence(
        alg, cg.merge(np.arange(n), a_col[hits], b_col[hits])
    )
    raw_pairs = len(np.unique(a_col[hits] * np.int64(n) + b_col[hits]))
    if raw_pairs != result.pair_count():
        raise PropertyViolation(
            "commutator relation was not already an equivalence relation"
        )
    if not cg.leq(result, cg.meet(theta, psi)):
        raise PropertyViolation("commutator exceeded the meet of its arguments")
    return result
