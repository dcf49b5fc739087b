"""Commutator of two congruences via the pair-algebra construction.

For congruences theta, psi on A: form the algebra P of theta-pairs
inside A x A, generate the congruence Delta on P from the doubled
psi-pairs ((u,u),(v,v)), and read off

    [theta, psi] = {(a, b) : (a, b) and (b, b) lie in one Delta class}.

This is the standard term-condition commutator for congruence modular
varieties, computed without enumerating matrices.

P is never built as an algebra.  The pair (a, b) is named by its code
a*n + b in A x A, so Delta is a least-member label array over the n*n
codes (codes outside P stay singletons), and a basic translation of P,
an operation f with theta-pairs c as constants in every slot but one,
is read off A's own tables componentwise:

    f(.., (x0, x1), .., (c0, c1), ..) -> f(.., x0, .., c0, ..) * n
                                         + f(.., x1, .., c1, ..)

Delta is closed by Freese's worklist (Computing congruences
efficiently, Algebra Universalis 59, 2008).  It starts as the merge of
the generators.  Each wave applies every basic translation to the
pairs that the last wave united and merges the results through
congruences.merge.  Those pairs are (r, root of r) for each class root
r that the wave absorbed, so they generate the same equivalence as
everything merged so far, and each code enters the worklist at most
once, as the root it loses.  When a wave absorbs nothing, Delta is an
equivalence generated by pairs whose every translation it holds, hence
compatible with every translation and so a congruence; each merged
pair is forced, so it is the least one.

A wave works in slabs.  For each operation f, slot and block of
constant tuples c = (c0, c1) it reads two tables off f's,

    high[v, j] = f(.., v, .., c0_j, ..) * n
    low[v, j]  = f(.., v, .., c1_j, ..)

with v in the slot, so translation j sends the pair (x0, x1) to the
code high[x0, j] + low[x1, j], two row lookups.  A block holds about
SLAB_CELLS // n constant tuples and the work pairs go in chunks of
about SLAB_CELLS // block, so no temporary passes about SLAB_CELLS
cells, whatever |P| or the arity; for arity 3 and up the blocks split
the |P|^(arity-1) constant tuples.

The readout merges the pairs read off; their count must equal the
partition's pair count, which certifies that the relation was already
an equivalence, and the result must lie below theta ^ psi.
"""

import numpy as np

from .errors import InvalidParameters, PropertyViolation
from . import congruences as cg

# Cells of one slab of a wave: its int64 code arrays stay near 2 MB each.
SLAB_CELLS = 250_000


def tc_commutator(theta, psi):
    if theta.on is not psi.on:
        raise InvalidParameters("commutator arguments live on different algebras")
    alg = theta.on
    n = alg.size
    if n == 0:
        return cg.diagonal(alg)
    pairs = theta.pairs()
    a_col, b_col = pairs[:, 0], pairs[:, 1]
    codes = np.arange(n * n)
    moved = np.flatnonzero(psi.part != np.arange(n))
    labels = cg.merge(codes, moved * (n + 1), psi.part[moved] * (n + 1))
    fresh = labels != codes
    while fresh.any():
        absorbed = np.flatnonzero(fresh)
        before = labels
        labels = _wave(alg, before, absorbed, before[absorbed], a_col, b_col)
        fresh = (before == codes) & (labels != codes)
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


def _wave(alg, labels, xs, ys, pa, pb):
    """labels merged with the image of every pair (xs[k], ys[k]) of codes
    under every basic translation, whose constants are the theta-pairs
    (pa[i], pb[i])."""
    n, m = alg.size, len(pa)
    x0, x1 = np.divmod(xs, n)
    y0, y1 = np.divmod(ys, n)
    for opname, arity in alg.signature.ops:
        if arity == 0:
            continue
        t = alg.table(opname)
        tuples = m ** (arity - 1)
        per_slab = min(tuples, max(1, SLAB_CELLS // n))
        rows = max(1, SLAB_CELLS // per_slab)
        for start in range(0, tuples, per_slab):
            c0, c1 = _constant_columns(
                pa, pb, start, min(start + per_slab, tuples), arity - 1
            )
            for slot in range(arity):
                high = np.multiply(
                    _column_table(t, slot, c0, n), n, dtype=np.int64
                )
                low = _column_table(t, slot, c1, n)
                for s in range(0, len(xs), rows):
                    w = slice(s, s + rows)
                    tx = high[x0[w]] + low[x1[w]]
                    ty = high[y0[w]] + low[y1[w]]
                    labels = cg.merge(labels, tx.ravel(), ty.ravel())
    return labels


def _constant_columns(pa, pb, start, stop, count):
    """Both components of the constant tuples start..stop-1 of P^count,
    numbered in mixed radix |P|, as count row vectors each."""
    flat = np.arange(start, stop)
    m = len(pa)
    picks = [(flat // m ** (count - 1 - j)) % m for j in range(count)]
    return [pa[p][None, :] for p in picks], [pb[p][None, :] for p in picks]


def _column_table(t, slot, consts, n):
    """f(c, .., v, .., c) with v in slot, one row per element v of A and
    one column per constant tuple."""
    return t[tuple(consts[:slot] + [np.arange(n)[:, None]] + consts[slot:])]
