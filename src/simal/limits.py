"""Finite limits as tuple algebras.

A limit carrier is a set of tuples over factor algebras, stored as an
(m, k) row array.  Rows are ordered by their mixed-radix code, so every
such algebra has a canonical element order and lookups are binary
searches.  Constants are looked up in the carrier when the algebra is
built, so reading one, as a limit over this algebra does, builds no
table.  Operations are evaluated componentwise: each factor's op at the
components, the result codes looked up in the carrier.  That one
evaluator gives both the rows a closure reads, building no table of the
limit, and the table itself, as the rows of slot 0 over the carrier.  A
map into a limit is given by its component columns, and tuple_map looks
its tuples up in the carrier, so callers never address rows by hand.
Carrier codes are computed in this module alone: TupleCarrier codes
and looks up tuples (codes_of, index_of) and tuple_map builds maps by
them.  A subalgebra is a one-factor subproduct, on the rows of its
elements.  The one other mixed-radix code, simplicial._face_codes,
codes the faces of horns that are never built, by tuple_weights.
Binary limits are built only by product and pullback, which
simplicial._levelwise_limit calls level by level; is_double_extension
counts the pullback of its cospan by fibers and builds none.

Enumeration starts from range(size) at slot 0, which no constraint is
filed under, as each goes under its later slot.  It fills the later
slots left to right, each by one vectorized sort-based equi-join.  The
rows so far and the new slot's elements are keyed in mixed radix over
the value spans of the constraints between that slot and earlier ones.
Only when the next key could pass 2^62 are the keys so far ranked by
np.unique, which leaves fewer of them than rows and elements, and the
values too if they alone are that wide.  The elements are sorted stably
by key, and each row is extended by its run of equal keys, found with
searchsorted, into one array of the slot's rows.  Rows stay in
lexicographic order, a later slot without constraints is the same join
on a constant key, and the budget is checked before a slot's rows are
allocated, so the full product is never enumerated unless it is the
requested object.  Each slot costs a fixed number of numpy calls,
whatever the number of its rows.
"""

import numpy as np

from .config import resolve_budget
from .errors import (
    InvalidParameters,
    LevelTooLarge,
    NotCommuting,
    NotRegularEpi,
    CrossRouteMismatch,
)
from .algebra import FiniteAlgebra, Homomorphism, same_signature
from . import congruences as cg


def tuple_weights(sizes):
    """The weights of the mixed-radix codes of tuples over ranges of the
    given sizes, last slot fastest; raises LevelTooLarge past 62 bits."""
    w = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        w[i] = w[i + 1] * max(sizes[i + 1], 1)
    total = w[0] * max(sizes[0], 1) if sizes else 1
    if total >= 2 ** 62:
        raise LevelTooLarge("tuple code space exceeds 62 bits")
    return np.asarray(w, dtype=np.int64)


class TupleCarrier:
    """Bookkeeping for a subalgebra of a finite product."""

    def __init__(self, factors, rows):
        self.factors = factors
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, len(factors))
        self.weights = tuple_weights([f.size for f in factors])
        codes = self.codes_of(rows.T)
        # rows almost always arrive in code order: strictly increasing
        # codes are sorted and distinct, and need no sort
        if not _increasing(codes):
            order = codes.argsort()
            rows, codes = rows[order], codes[order]
            if not _increasing(codes):
                raise InvalidParameters("duplicate tuple rows")
        self.rows = rows
        self.codes = codes

    def codes_of(self, cols):
        """The codes of the tuples with components cols[c], as the
        weighted sum of the columns."""
        codes = cols[0] * self.weights[0]
        for c in range(1, len(self.weights)):
            codes = codes + cols[c] * self.weights[c]
        return codes

    def index_of(self, rows):
        rows = np.asarray(rows, dtype=np.int64)
        return self.index_of_codes(
            self.codes_of([rows[..., c] for c in range(len(self.weights))])
        )

    def index_of_codes(self, codes):
        # an empty carrier holds no code, but a lookup of no codes succeeds
        if not len(self.codes) and np.size(codes):
            raise InvalidParameters("tuple outside the carrier")
        pos = self.codes.searchsorted(codes)
        # a scalar code gives a scalar position, which cannot be clipped
        # in place
        pos = np.minimum(pos, len(self.codes) - 1,
                         out=pos if pos.ndim else None)
        if not np.logical_and.reduce(self.codes[pos] == codes, axis=None):
            raise InvalidParameters("tuple outside the carrier")
        return pos


def _increasing(codes):
    return bool(np.logical_and.reduce(codes[1:] > codes[:-1]))


def subproduct_algebra(name, factors, rows):
    """Algebra on a set of tuples, with componentwise operations.

    Returns (algebra, projections).  The carrier attribute .carrier on
    the algebra gives row access.
    """
    if not factors:
        raise InvalidParameters("subproduct needs at least one factor")
    sig = factors[0].signature
    for f in factors[1:]:
        same_signature(factors[0], f)
    carrier = TupleCarrier(factors, rows)
    m = len(carrier.rows)
    k = len(factors)

    # every constant's tuple must be in the carrier; index_of raises if not
    constants = {
        opname: int(carrier.index_of(
            np.asarray([[int(f.table(opname)[0]) for f in factors]])
        )[0])
        for opname, arity in sig.ops
        if arity == 0
    }

    def evaluate(opname, args):
        codes = np.zeros(np.broadcast_shapes(*map(np.shape, args)), np.int64)
        for c, f in enumerate(factors):
            col = carrier.rows[:, c]
            codes += np.multiply(f.op(opname, *(col[a] for a in args)),
                                 carrier.weights[c], dtype=np.int64)
        return carrier.index_of_codes(codes)

    term = factors[0].maltsev_term
    alg = FiniteAlgebra(
        name, m, sig, None, term, evaluator=evaluate, constants=constants
    )
    alg.carrier = carrier
    projections = [
        Homomorphism(alg, factors[c], carrier.rows[:, c].copy(), check=False)
        for c in range(k)
    ]
    return alg, projections


def tuple_map(dom, cod, cols):
    """The homomorphism dom -> cod sending x to the carrier element of
    cod with components cols[c][x], built unchecked; a tuple outside the
    carrier raises InvalidParameters."""
    carrier = cod.carrier
    fmap = carrier.index_of_codes(carrier.codes_of(cols))
    return Homomorphism(dom, cod, fmap, check=False)


def compatible_tuples(slots, constraints, budget=None):
    """Rows (x_0..x_{k-1}) with map_i(x_i) = map_j(x_j) for each constraint,
    in lexicographic order, over k >= 1 slots.

    Constraints are (i, map_i, j, map_j) on slots i != j; each map has
    one entry per element of its slot.  Slot 0's rows are
    range(slots[0].size); each later slot j is one equi-join of the rows
    so far with range(slots[j].size), keyed by the values the
    constraints between j and earlier slots read.  Raises LevelTooLarge,
    before allocating, when a slot's rows would pass the budget.
    """
    budget = resolve_budget(budget)
    by_slot = [[] for _ in slots]
    for (i, mi, j, mj) in constraints:
        if i == j:
            raise InvalidParameters(f"constraint on slot {i} alone")
        if i > j:
            i, j, mi, mj = j, i, mj, mi
        mi, mj = np.asarray(mi, dtype=np.int64), np.asarray(mj, dtype=np.int64)
        both = np.concatenate((mi, mj))
        low = int(np.minimum.reduce(both, initial=0))
        span = int(np.maximum.reduce(both, initial=0)) - low + 1
        by_slot[j].append((i, mi - low, mj - low, span))
    # each constraint is filed under its later slot, so slot 0 has none
    # and its rows are range(its size)
    if slots[0].size > budget:
        raise LevelTooLarge(f"tuple enumeration exceeds budget {budget}")
    rows = np.zeros((slots[0].size, len(slots)), dtype=np.int64)
    rows[:, 0] = np.arange(slots[0].size)
    for j, slot in enumerate(slots[1:], 1):
        # the key of each row and of each element, in mixed radix over
        # the constraints' spans, lies in range(bound): equal keys read
        # equal values (all 0 without constraints)
        rkey = np.zeros(len(rows), dtype=np.int64)
        ekey = np.zeros(slot.size, dtype=np.int64)
        bound = 1
        for (i, mi, mj, span) in by_slot[j]:
            rvals, evals = mi[rows[:, i]], mj
            if bound * span > _KEY_BOUND:
                # ranks leave fewer distinct keys than rows and elements,
                # and so do the values' ranks if the values are that
                # wide; rows and elements stay far below 2^31, so the
                # product of the two fits
                rkey, ekey = _ranks(rkey, ekey)
                bound = len(rkey) + len(ekey)
                if bound * span > _KEY_BOUND:
                    rvals, evals = _ranks(rvals, evals)
                    span = bound
            rkey = rkey * span + rvals
            ekey = ekey * span + evals
            bound *= span
        order = ekey.argsort(kind="stable")
        ekey = ekey[order]
        lo = ekey.searchsorted(rkey, "left")
        counts = ekey.searchsorted(rkey, "right") - lo
        total = int(np.add.reduce(counts))
        if total > budget:
            raise LevelTooLarge(f"tuple enumeration exceeds budget {budget}")
        # each row takes its run order[lo : lo + count], in ascending order
        first = (lo - counts.cumsum() + counts).repeat(counts)
        rows = rows.repeat(counts, axis=0)
        rows[:, j] = order[first + np.arange(total)]
    return rows


# Keys of compatible_tuples stay below this bound, so no int64 overflows.
_KEY_BOUND = 2 ** 62


def _ranks(a, b):
    """The ranks of the values of a and b among the values of both."""
    ranks = np.unique(np.concatenate((a, b)), return_inverse=True)[1]
    return ranks[:len(a)], ranks[len(a):]


def product(name, factors, budget=None):
    rows = compatible_tuples(factors, [], budget=budget)
    return subproduct_algebra(name, factors, rows)


def pullback(f, g, name=None, budget=None):
    """Pullback of f: A -> C and g: B -> C; rows (a, b) with f a = g b."""
    if f.cod is not g.cod:
        raise InvalidParameters("pullback needs a shared codomain")
    rows = compatible_tuples(
        [f.dom, g.dom], [(0, f.map, 1, g.map)], budget=budget
    )
    name = name or f"pb({f.dom.name},{g.dom.name})"
    return subproduct_algebra(name, [f.dom, g.dom], rows)


def is_double_extension(f, g, h, j, budget=None):
    """Decide whether the commuting square with legs f, g and cospan h, j
    is a pushout of a strong kind along both routes.

    f: X -> Y, g: X -> Z, h: Y -> W, j: Z -> W, with h f = j g.
    Route one: the comparison <f, g> into the pullback of (h, j) is
    surjective, its distinct images as many as the pullback's elements;
    both are counted, and no pullback is built.  Route two: f maps Eq[g]
    onto Eq[h] (and symmetrically g maps Eq[f] onto Eq[j]).  The routes
    must agree.
    """
    if not np.array_equal(h.map[f.map], j.map[g.map]):
        raise NotCommuting("square does not commute")
    for leg, tag in ((f, "f"), (g, "g"), (h, "h"), (j, "j")):
        if not leg.is_surjective():
            raise NotRegularEpi(f"square side {tag} is not surjective")
    # |Y x_W Z| counted by fibers; j is onto, so it is never below |Y|
    # and passes the budget exactly when enumerating the pullback would
    budget = resolve_budget(budget)
    pb_size = int(np.bincount(h.map) @ np.bincount(j.map))
    if pb_size > budget:
        raise LevelTooLarge(f"tuple enumeration exceeds budget {budget}")
    codes = f.map.astype(np.int64) * g.cod.size + g.map
    surj = len(cg.distinct(codes)) == pb_size
    eqg_image = cg.image(f, cg.kernel_pair(g))
    route2a = eqg_image == cg.kernel_pair(h)
    eqf_image = cg.image(g, cg.kernel_pair(f))
    route2b = eqf_image == cg.kernel_pair(j)
    if not (surj == route2a == route2b):
        raise CrossRouteMismatch(
            f"double-extension routes disagree: comparison-surjective={surj}, "
            f"f(Eq[g])=Eq[h] is {route2a}, g(Eq[f])=Eq[j] is {route2b}"
        )
    return surj
