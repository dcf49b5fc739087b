"""Internal groupoids: a parallel pair of carrier algebras with a
partial composition that is itself a homomorphism.

In a Mal'tsev variety a reflexive graph carries at most one groupoid
structure, and its composition is forced to be the Mal'tsev composite
g after f = p(g, s0 d1 g, f) (Carboni, Lambek and Pedicchio, 1991).
maltsev_groupoid builds every groupoid that simal constructs from that
formula; only the reflection's simplicial route (pi1) and loaded files
bring their own tables.

validate_groupoid checks that the composition is a homomorphism
componentwise on the arrow operations, over the composable pairs and
their composites, without building the algebra of composable pairs.

Conventions, used consistently everywhere: d0 is the target map, d1 the
source map, s0 picks identity arrows.  comp[g, f] is the composite
"g after f", defined exactly when d1(g) = d0(f); undefined entries hold
-1.
"""

import numpy as np

from .errors import IdentityViolated, InvalidParameters
from .algebra import check_homomorphism, first_failure, same_signature, slabs


class InternalGroupoid:
    def __init__(self, objects, arrows, d0, d1, s0, comp):
        self.objects = objects
        self.arrows = arrows
        self.d0 = d0
        self.d1 = d1
        self.s0 = s0
        self.comp = np.asarray(comp, dtype=np.int64)
        if self.comp.shape != (arrows.size, arrows.size):
            raise InvalidParameters("composition table has wrong shape")
        if self.comp.size and (self.comp.min() < -1
                               or self.comp.max() >= arrows.size):
            raise InvalidParameters("composition table entry out of range")

    def inverse_map(self):
        """Solve for inverses exhaustively; raises if any arrow lacks
        exactly one.  g is an inverse of f when it runs the other way
        and both composites are identities: one comparison over the
        arrow pairs (f, g), a slab of arrows f at a time."""
        d0m, d1m, s0m = self.d0.map, self.d1.map, self.s0.map
        inverses = np.empty(self.arrows.size, dtype=np.int64)
        for first, (f, g) in slabs((self.arrows.size,) * 2):
            src, tgt = d1m[f], d0m[f]
            inverse = ((d0m[g] == src) & (d1m[g] == tgt)
                       & (self.comp[f, g] == s0m[tgt])
                       & (self.comp[g, f] == s0m[src]))
            found = np.add.reduce(inverse, axis=1)
            bad = (found != 1).nonzero()[0]
            if len(bad):
                raise IdentityViolated(
                    f"arrow {int(first[bad[0]])} has {int(found[bad[0]])} "
                    f"inverses, expected exactly 1"
                )
            # each row holds exactly one inverse, its first True
            inverses[first] = inverse.argmax(axis=1)
        return inverses

    def __repr__(self):
        return (
            f"InternalGroupoid(objects={self.objects.name}, "
            f"arrows={self.arrows.name})"
        )


def maltsev_groupoid(objects, arrows, d0, d1, s0):
    """The groupoid on the reflexive graph (d0, d1, s0) whose composite
    g after f is p(g, s0 d1 g, f) on the composable pairs, and -1
    elsewhere.  Read through p, so no table of arrows is built; the
    result is unchecked, and validate_groupoid rejects a graph that
    carries no groupoid structure."""
    d0m, d1m = d0.map, d1.map
    gs, fs = np.nonzero(d1m[:, None] == d0m[None, :])
    comp = np.full((arrows.size, arrows.size), -1, dtype=np.int64)
    comp[gs, fs] = arrows.p(gs, s0.map[d1m[gs]], fs)
    return InternalGroupoid(objects, arrows, d0, d1, s0, comp)


def validate_groupoid(G):
    """Exhaustive check of all groupoid axioms, including that the
    composition is a homomorphism on the algebra of composable pairs,
    checked componentwise without building that algebra."""
    same_signature(G.objects, G.arrows)
    if G.d0.dom is not G.arrows or G.d0.cod is not G.objects:
        raise InvalidParameters("d0 endpoints wrong")
    if G.d1.dom is not G.arrows or G.d1.cod is not G.objects:
        raise InvalidParameters("d1 endpoints wrong")
    if G.s0.dom is not G.objects or G.s0.cod is not G.arrows:
        raise InvalidParameters("s0 endpoints wrong")
    for h in (G.d0, G.d1, G.s0):
        check_homomorphism(h)
    d0m, d1m, s0m = G.d0.map, G.d1.map, G.s0.map
    n0, n1 = G.objects.size, G.arrows.size
    if not np.array_equal(d0m[s0m], np.arange(n0)):
        raise IdentityViolated("d0 s0 is not the identity")
    if not np.array_equal(d1m[s0m], np.arange(n0)):
        raise IdentityViolated("d1 s0 is not the identity")
    defined = G.comp >= 0
    if not np.array_equal(d1m[:, None] == d0m[None, :], defined):
        raise IdentityViolated(
            "composition defined somewhere other than exactly the composable pairs"
        )
    gs, fs = np.nonzero(defined)
    cs = G.comp[gs, fs]
    if not np.array_equal(d0m[cs], d0m[gs]):
        raise IdentityViolated("target of a composite is wrong")
    if not np.array_equal(d1m[cs], d1m[fs]):
        raise IdentityViolated("source of a composite is wrong")
    f_all = np.arange(n1)
    if not np.array_equal(G.comp[s0m[d0m[f_all]], f_all], f_all):
        raise IdentityViolated("left unit law fails")
    if not np.array_equal(G.comp[f_all, s0m[d1m[f_all]]], f_all):
        raise IdentityViolated("right unit law fails")
    # associativity over the triples (h, g, f) of an arrow h and a
    # composable pair (g, f), wherever h after g is defined
    def unassociative(h, k):
        hg = G.comp[h, gs[k]]
        return (hg >= 0) & (G.comp[hg, fs[k]] != G.comp[h, cs[k]])

    if first_failure((n1, len(gs)), unassociative) is not None:
        raise IdentityViolated("associativity fails")
    # comp is a homomorphism from the algebra of composable pairs, read
    # off the arrow operations: an operation t sends the pairs
    # (gs[i], fs[i]) to (t(gs...), t(fs...)), so comp must send that pair
    # to t(cs...).  The pairs come in the order of the codes g * n1 + f,
    # the element order of the pair algebra, so a witness names its
    # arguments by their indices there.  A constant is s0 of the objects'
    # constant, an identity arrow, so the unit laws fix comp there.
    for opname, arity in G.arrows.signature.ops:
        if arity == 0:
            continue

        def unpreserved(*args):
            tg, tf, tc = (G.arrows.op(opname, *(col[a] for a in args))
                          for col in (gs, fs, cs))
            return G.comp[tg, tf] != tc

        where = first_failure((len(gs),) * arity, unpreserved)
        if where is not None:
            raise InvalidParameters(
                f"map does not preserve {opname!r} at arguments {where}"
            )
    G.inverse_map()
    return G
