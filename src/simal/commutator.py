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
SLAB_CELLS // n tuples, one alg.op call per row table.  The absorbed
codes go in runs of about MERGE_CELLS // block, pure gathers, each with
the images of the roots it touches; a root's images are computed when
the runs reach it and yielded again while they stay on it, so a root
that absorbed many codes is translated once per block.  Each image
array is one comparison step of close, at most 128 KiB, whatever |P|
or the arity.

The readout merges the pairs read off; their count must equal the
partition's pair count, which certifies that the relation was already
an equivalence, and the result must be compatible with every operation
and lie below theta ^ psi.
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
    pairs = theta.pairs()
    a_col, b_col = pairs[:, 0], pairs[:, 1]
    moved = np.flatnonzero(psi.part != np.arange(n))
    labels = cg.close(
        np.arange(n * n), moved * (n + 1), psi.part[moved] * (n + 1),
        functools.partial(_pair_translations, alg, a_col, b_col),
    )
    hits = np.flatnonzero(labels[a_col * n + b_col] == labels[b_col * (n + 1)])
    # merge gives least-member labels; compatibility is checked below
    result = cg.Congruence(
        alg, cg.merge(np.arange(n), a_col[hits], b_col[hits]), check=False
    )
    # theta.pairs() lists each pair once, so the hits are the raw relation
    if len(hits) != result.pair_count():
        raise PropertyViolation(
            "commutator relation was not already an equivalence relation"
        )
    try:
        cg.check_compatibility(result)
    except InvalidParameters as exc:
        raise PropertyViolation(
            f"commutator relation is not a congruence: {exc}"
        ) from exc
    if not cg.leq(result, cg.meet(theta, psi)):
        raise PropertyViolation("commutator exceeded the meet of its arguments")
    return result


def _pair_translations(alg, pa, pb, xs, heads, at, roots):
    """close's provider for the basic translations of P whose constants
    are the theta-pairs (pa[i], pb[i]), those before its slot only the
    pairs whose codes are roots: the images of each run of absorbed codes
    and of the heads it touches, a head's images computed when the runs
    reach it and yielded again while they stay on it."""
    n = alg.size
    every = np.arange(n)[:, None]
    x0, x1 = np.divmod(xs, n)
    h0, h1 = np.divmod(heads, n)
    rooted = np.flatnonzero(roots[pa * n + pb])
    for opname, consts, slot in cg.translation_slabs(alg, len(pa), rooted, n):
        high = np.multiply(
            alg.op(opname, *cg.in_slot([pa[c] for c in consts], slot, every)),
            n, dtype=np.int64,
        )
        low = alg.op(opname, *cg.in_slot([pb[c] for c in consts], slot, every))
        held = None
        for w, h, ta in cg.runs(at, max(1, cg.MERGE_CELLS // high.shape[1])):
            if h != held:
                held = h
                th = high.take(h0[h], axis=0) + low.take(h1[h], axis=0)
            yield high.take(x0[w], axis=0) + low.take(x1[w], axis=0), th, ta
