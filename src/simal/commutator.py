"""Commutator of two congruences via the pair-algebra construction.

For congruences theta, psi on A: form the algebra of theta-pairs inside
A x A, generate the congruence Delta on it from the doubled psi-pairs
((u,u),(v,v)), and read off

    [theta, psi] = {(a, b) : (a, b) and (b, b) lie in one Delta class}.

This is the standard term-condition commutator for congruence modular
varieties, computed without enumerating matrices.
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
    rows = []
    for blk in theta.blocks():
        grid_a = np.repeat(blk, len(blk))
        grid_b = np.tile(blk, len(blk))
        rows.append(np.stack([grid_a, grid_b], axis=1))
    rows = np.concatenate(rows, axis=0)
    pairalg, _ = subproduct_algebra(f"pairs({alg.name})", [alg, alg], rows)
    diag_idx = pairalg.carrier.index_of(
        np.stack([np.arange(n), np.arange(n)], axis=1)
    )
    gens = []
    for u in range(n):
        v = int(psi.part[u])
        if v != u:
            gens.append((int(diag_idx[u]), int(diag_idx[v])))
    delta = cg.congruence_generated(pairalg, gens)
    uf = cg.UnionFind(n)
    a_col = pairalg.carrier.rows[:, 0]
    b_col = pairalg.carrier.rows[:, 1]
    same = delta.part == delta.part[diag_idx[b_col]]
    hits = np.nonzero(same)[0]
    for idx in hits:
        uf.union(int(a_col[idx]), int(b_col[idx]))
    result = cg.Congruence(alg, uf.labels())
    raw_pairs = len(np.unique(a_col[hits] * np.int64(n) + b_col[hits]))
    if raw_pairs != result.pair_count():
        raise PropertyViolation(
            "commutator relation was not already an equivalence relation"
        )
    if not cg.leq(result, cg.meet(theta, psi)):
        raise PropertyViolation("commutator exceeded the meet of its arguments")
    return result


def centralizes(theta, psi):
    return tc_commutator(theta, psi).is_diagonal()
