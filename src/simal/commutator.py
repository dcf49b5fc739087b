"""Commutator of two congruences via the pair-algebra construction.

For congruences theta, psi on A: form the algebra P of theta-pairs
inside A x A, generate the congruence Delta on P from the doubled
psi-pairs ((u,u),(v,v)), and read off

    [theta, psi] = {(a, b) : (a, b) and (b, b) lie in one Delta class}.

This is the standard term-condition commutator for congruence modular
varieties, computed without enumerating matrices.

P is never built as an algebra.  The pair (a, b) is named by its code
a*n + b in A x A, so Delta is a least-member label array over the n*n
codes (codes outside P stay singletons).  congruences.close, the one
closure engine, closes Delta from the merge of the generators, and this
module provides its translations.  A basic translation of P, an
operation f with theta-pairs c = (c0, c1) as constants in every slot
but one, is read off A's own operations componentwise: for each slot
and block of constant tuples from congruences.translation_slabs,

    high[v, j] = f(.., v, .., c0_j, ..) * n
    low[v, j]  = f(.., v, .., c1_j, ..)

send the pair (x0, x1) to the code high[x0, j] + low[x1, j], two row
lookups.  The constants before the slot are only the theta-pairs whose
codes are roots of Delta when the wave starts, those after it every
theta-pair, which is all close needs: for a binary operation the pool
is |P| plus the roots instead of 2 |P|.  A block holds about
SLAB_CELLS // n tuples, one alg.op call per row table; the work pairs
go in chunks of about MERGE_CELLS // block, pure gathers, so each image
array is one merge step of close, at most 128 KiB, whatever |P| or the
arity.

The readout merges the pairs read off; their count must equal the
partition's pair count, which certifies that the relation was already
an equivalence, and the result must lie below theta ^ psi.
"""

import functools

import numpy as np

from .errors import InvalidParameters, PropertyViolation
from . import congruences as cg


def tc_commutator(theta, psi):
    if theta.on is not psi.on:
        raise InvalidParameters("commutator arguments live on different algebras")
    alg = theta.on
    n = alg.size
    if n == 0:
        return cg.diagonal(alg)
    pairs = theta.pairs()
    a_col, b_col = pairs[:, 0], pairs[:, 1]
    moved = np.flatnonzero(psi.part != np.arange(n))
    labels = cg.close(
        np.arange(n * n), moved * (n + 1), psi.part[moved] * (n + 1),
        functools.partial(_pair_translations, alg, a_col, b_col),
    )
    hits = np.flatnonzero(labels[a_col * n + b_col] == labels[b_col * (n + 1)])
    result = cg.Congruence(
        alg, cg.merge(np.arange(n), a_col[hits], b_col[hits])
    )
    # theta.pairs() lists each pair once, so the hits are the raw relation
    if len(hits) != result.pair_count():
        raise PropertyViolation(
            "commutator relation was not already an equivalence relation"
        )
    if not cg.leq(result, cg.meet(theta, psi)):
        raise PropertyViolation("commutator exceeded the meet of its arguments")
    return result


def _pair_translations(alg, pa, pb, xs, ys, roots):
    """The images of every pair (xs[k], ys[k]) of codes under every basic
    translation whose constants are the theta-pairs (pa[i], pb[i]), those
    before its slot only the pairs whose codes are roots."""
    n = alg.size
    every = np.arange(n)[:, None]
    x0, x1 = np.divmod(xs, n)
    y0, y1 = np.divmod(ys, n)
    rooted = np.flatnonzero(roots[pa * n + pb])
    for opname, consts, slot in cg.translation_slabs(alg, len(pa), rooted, n):
        high = np.multiply(
            alg.op(opname, *cg.in_slot([pa[c] for c in consts], slot, every)),
            n, dtype=np.int64,
        )
        low = alg.op(opname, *cg.in_slot([pb[c] for c in consts], slot, every))
        chunk = max(1, cg.MERGE_CELLS // high.shape[1])
        for s in range(0, len(xs), chunk):
            w = slice(s, s + chunk)
            yield high[x0[w]] + low[x1[w]], high[y0[w]] + low[y1[w]]
