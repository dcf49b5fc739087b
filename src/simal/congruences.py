"""Congruences on finite Mal'tsev algebras.

A congruence is stored as a partition array: part[i] is the least
element of the block containing i.  Meets, joins, images, preimages and
quotients all work on these label arrays, and read what they need off
the invariant rather than sort: the representatives are the i with
part[i] == i, in increasing order, and bincount(part) is each block's
size at its representative.  Congruence(on, part) takes any integer
labels, relabels them by least members and checks compatibility;
Congruence(on, part, check=False) does neither, so its caller vouches
that part already holds least-member labels of a congruence.  Apart
from that relabelling, only meet sorts: once, over its pair codes.

merge(part, a, b) is the only closure primitive: it hooks the larger
root of each pair onto the smaller and pointer-jumps to a fixpoint, so
the roots stay the least members.  join, image and the closure engine
take their partitions from it.

Every closure runs on one engine, close: Freese's translation worklist
(Computing congruences efficiently, Algebra Universalis 59, 2008).  An
equivalence is a congruence exactly when every basic translation (an
operation with its argument in one slot and constants in the others)
keeps it.  close merges the seeds into a closed start; each wave then
translates the pairs (r, root of r) for the roots r that the last wave
absorbed and merges the images.  With the start these pairs generate
all merged so far, and each element enters at most once, as the root
it loses, so a closure that merges nothing computes nothing.  When a
wave absorbs nothing, every translation keeps the relation, and every
merged pair was forced, so it is the least congruence.  A provider
yields the translations: congruence_generated reads them off alg.op,
which computes a derived algebra's rows from the algebras it was built
from rather than build its table; the simplicial closure adds faces
and degeneracies as unary translations between levels; the commutator
reads them off pair codes.  check_compatibility is a check, not a
closure: one gather per operation, which must find nothing to merge.

The closures of join and image are certified, not trusted:

  join   in a Mal'tsev algebra the closure of theta u psi must already
         be the one-step composite theta o psi, so the composite's pair
         count must equal the closure's; a gap raises JoinNotComposite
         naming a joined pair outside the composite.
  image  the relation {(f a, f b) : a theta b} must already be
         transitive, so its distinct pair count must equal the
         closure's; a gap raises NotTransitive naming a pair that only
         the closure has.
"""

import functools

import numpy as np

from .errors import (
    BudgetExceeded,
    InvalidParameters,
    JoinNotComposite,
    NotSurjective,
    NotTransitive,
)
from .algebra import FiniteAlgebra, Homomorphism, index_grids, int_array

# enumerate_congruences refuses algebras larger than this
ENUMERATION_LIMIT = 16

# Cells of one slab of a closure wave: its int64 code arrays stay near
# 2 MB each.
SLAB_CELLS = 250_000


def canonical_partition(labels):
    """Relabel an arbitrary label array so each class is named by its least
    member: one argsort, whose runs of equal labels are the classes."""
    labels = np.asarray(labels)
    n = labels.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = labels.argsort()
    ordered = labels[order]
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    least = np.minimum.reduceat(order, head.nonzero()[0])
    out = np.empty(n, dtype=np.int64)
    out[order] = least[head.cumsum() - 1]
    return out


def _least_members(labels, m):
    """canonical_partition of labels in range(m), by one scatter of each
    index onto its label instead of a sort."""
    n = len(labels)
    least = np.empty(m, dtype=np.int64)
    least.fill(n)
    np.minimum.at(least, labels, np.arange(n))
    return least[labels]


def merge(part, a, b):
    """Least-member labels of the equivalence generated by the least-member
    partition array part and the pairs (a[k], b[k])."""
    labels = np.array(part, dtype=np.int64)
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    while True:
        ra, rb = labels[a], labels[b]
        split = ra != rb
        if not np.logical_or.reduce(split):
            return labels
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        np.minimum.at(labels, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = labels[labels]
            if np.logical_and.reduce(jumped == labels):
                break
            labels = jumped


def _pairs_within(groups, values):
    """Every (values[i], values[j]) with groups[i] == groups[j], as a (k, 2)
    array ordered by group, then i, then j."""
    order = groups.argsort(kind="stable")
    g, v = groups[order], values[order]
    n = len(g)
    head = np.empty(n, dtype=bool)
    head[:1] = True
    np.not_equal(g[1:], g[:-1], out=head[1:])
    group = head.cumsum() - 1
    size_of = np.bincount(group)[group]
    first_row = size_of.cumsum() - size_of
    left = np.arange(n).repeat(size_of)
    right = np.arange(len(left)) + (
        head.nonzero()[0][group] - first_row
    ).repeat(size_of)
    out = np.empty((len(left), 2), dtype=v.dtype)
    out[:, 0], out[:, 1] = v[left], v[right]
    return out


class Congruence:
    """A congruence on the algebra on, as least-member labels part.

    With check (the default) part may be any integer labels of the
    blocks: they are relabelled by least members and checked compatible
    with every operation.  With check=False part is kept as given, and
    the caller vouches that it already holds least-member labels of a
    congruence.
    """

    def __init__(self, on, part, check=True):
        self.on = on
        part = (int_array(part, "partition array") if check
                else np.asarray(part, dtype=np.int64))
        if part.shape != (on.size,):
            raise InvalidParameters("partition array has wrong length")
        self.part = canonical_partition(part) if check else part
        if check:
            check_compatibility(self)

    # -- queries ----------------------------------------------------------

    def is_diagonal(self):
        return bool(np.logical_and.reduce(self.part == np.arange(self.on.size)))

    def reps(self):
        """The least member of every block, in increasing order."""
        return (self.part == np.arange(self.on.size)).nonzero()[0]

    def class_count(self):
        return len(self.reps())

    def pair_count(self):
        """Number of ordered related pairs."""
        return int(np.add.reduce(np.bincount(self.part) ** 2))

    def pairs(self):
        """All ordered related pairs as a (k, 2) array, block by block."""
        return _pairs_within(self.part, np.arange(self.on.size))

    def key(self):
        return self.part.tobytes()

    def __eq__(self, other):
        return (
            isinstance(other, Congruence)
            and self.on is other.on
            and bool(np.logical_and.reduce(self.part == other.part))
        )

    def __hash__(self):
        return hash((id(self.on), self.key()))

    def __repr__(self):
        return f"Congruence(on={self.on.name}, classes={self.class_count()})"


def diagonal(alg):
    return Congruence(alg, np.arange(alg.size), check=False)


def full(alg):
    return Congruence(alg, np.zeros(alg.size, dtype=np.int64), check=False)


def check_compatibility(cong):
    """Exhaustively verify the partition respects every operation: one
    gather per operation compares the class of each result with the
    class of the result at the representatives of its argument classes."""
    labels = cong.part
    classes = labels.astype(np.int32)
    for opname, arity in cong.on.signature.ops:
        if arity == 0:
            continue
        vs = classes[cong.on.table(opname)]
        ref = vs[index_grids(*[labels] * arity)]
        if not np.logical_and.reduce(vs == ref, axis=None):
            where = tuple(int(i) for i in np.argwhere(vs != ref)[0])
            raise InvalidParameters(
                f"partition not compatible with {opname!r} at {where}"
            )


def leq(theta, psi):
    """theta <= psi as relations."""
    _same_carrier(theta, psi)
    return bool(np.logical_and.reduce(psi.part[theta.part] == psi.part))


def meet(theta, psi):
    _same_carrier(theta, psi)
    n = theta.on.size
    labels = theta.part * (n + 1) + psi.part
    return Congruence(theta.on, canonical_partition(labels), check=False)


def meet_all(congs):
    if not congs:
        raise InvalidParameters("meet of empty list")
    out = congs[0]
    for c in congs[1:]:
        out = meet(out, c)
    return out


def _composite_pair_count(theta, psi):
    """Number of pairs in the relational composite theta o psi: a theta
    block T reaches, through psi, every psi block P that meets it, and
    the blocks of theta ^ psi are exactly the nonempty T n P."""
    r = meet(theta, psi).reps()
    tsizes, psizes = np.bincount(theta.part), np.bincount(psi.part)
    return int(np.add.reduce(tsizes[theta.part[r]] * psizes[psi.part[r]]))


def join(theta, psi):
    """Join; certified equal to the one-step relational composite."""
    _same_carrier(theta, psi)
    n = theta.on.size
    result = Congruence(
        theta.on, merge(theta.part, np.arange(n), psi.part), check=False
    )
    if _composite_pair_count(theta, psi) != result.pair_count():
        joined = result.pairs()
        codes = theta.part[joined[:, 0]] * (n + 1) + psi.part[joined[:, 1]]
        composite = theta.part * (n + 1) + psi.part
        a, c = joined[~np.isin(codes, composite)][0]
        raise JoinNotComposite(
            f"on {theta.on.name}: ({a},{c}) in the join but not in the "
            f"one-step composite"
        )
    return result


def join_all(congs):
    if not congs:
        raise InvalidParameters("join of empty list")
    out = congs[0]
    for c in congs[1:]:
        out = join(out, c)
    return out


def kernel_pair(f):
    """Congruence on the domain identifying elements with equal image."""
    return Congruence(f.dom, _least_members(f.map, f.cod.size), check=False)


def preimage(f, theta):
    if theta.on is not f.cod:
        raise InvalidParameters("preimage congruence lives on the wrong algebra")
    return Congruence(f.dom, _least_members(theta.part[f.map], f.cod.size),
                      check=False)


def image(f, theta):
    """Direct image congruence under a surjection; transitivity is certified."""
    if theta.on is not f.dom:
        raise InvalidParameters("image congruence lives on the wrong algebra")
    if not f.is_surjective():
        raise NotSurjective(f"{f!r} is not surjective")
    m = f.cod.size
    closure = Congruence(
        f.cod, merge(np.arange(m), f.map, f.map[theta.part]), check=False
    )
    items = np.unique(theta.part * m + f.map)
    imaged = _pairs_within(items // m, items % m)
    relation = np.unique(imaged[:, 0] * m + imaged[:, 1])
    if len(relation) != closure.pair_count():
        closed = closure.pairs()
        a, b = closed[~np.isin(closed[:, 0] * m + closed[:, 1], relation)][0]
        raise NotTransitive(
            f"image of congruence under {f!r} is not transitive; "
            f"pair ({a},{b}) is in the closure only"
        )
    return closure


def quotient(alg, theta):
    """Quotient algebra and its projection."""
    if theta.on is not alg:
        raise InvalidParameters("congruence lives on a different algebra")
    reps = theta.reps()
    to_block = ((theta.part == np.arange(alg.size)).cumsum() - 1)[theta.part]

    constants = {
        opname: int(to_block[alg.table(opname)[0]])
        for opname, arity in alg.signature.ops
        if arity == 0
    }

    def evaluate(opname, args):
        return to_block[alg.op(opname, *(reps[a] for a in args))]

    q = FiniteAlgebra(
        f"{alg.name}/cong{len(reps)}", len(reps), alg.signature,
        None, alg.maltsev_term, evaluator=evaluate, constants=constants,
    )
    proj = Homomorphism(alg, q, to_block, check=False)
    return q, proj


def close(start, a, b, translate):
    """Least-member labels of the least equivalence that contains the
    closed labels start and the pairs (a[k], b[k]) and is closed under
    translate(xs, ys), which yields the images of every pair (xs[k],
    ys[k]) under every basic translation, in slabs of index arrays."""
    codes = np.arange(len(start))
    before, labels = start, merge(start, a, b)
    while True:
        absorbed = np.flatnonzero((before == codes) & (labels != codes))
        if not len(absorbed):
            return labels
        before = labels
        for tx, ty in translate(absorbed, before[absorbed]):
            labels = merge(labels, tx.ravel(), ty.ravel())


def translation_slabs(alg, pool, rows):
    """(f, consts, slot) for every operation f of positive arity, slot,
    and block of about SLAB_CELLS // rows constant tuples over
    range(pool)^(arity - 1) in mixed radix: consts holds one row vector
    of pool indices per other slot, in_slot places the argument."""
    for opname, arity in alg.signature.ops:
        if arity == 0:
            continue
        tuples = pool ** (arity - 1)
        block = min(tuples, max(1, SLAB_CELLS // rows))
        for start in range(0, tuples, block):
            flat = np.arange(start, min(start + block, tuples))
            consts = [c[None, :] for c in np.unravel_index(
                flat, (pool,) * (arity - 1)
            )] if arity > 1 else []
            for slot in range(arity):
                yield opname, consts, slot


def in_slot(consts, slot, column):
    return consts[:slot] + [column] + consts[slot:]


def translations(alg, xs, ys):
    """The images of every pair (xs[k], ys[k]) of elements of alg under
    every basic translation, read by alg.op."""
    half = max(1, SLAB_CELLS // 2)
    for s in range(0, len(xs), half):
        both = np.concatenate([xs[s:s + half], ys[s:s + half]])[:, None]
        for opname, consts, slot in translation_slabs(alg, alg.size, len(both)):
            rows = alg.op(opname, *in_slot(consts, slot, both))
            yield rows[:len(both) // 2], rows[len(both) // 2:]


def congruence_generated(alg, pairs, initial=None):
    """Smallest congruence containing the given pairs and the congruence
    initial, if any, closed by the translation worklist."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    start = np.arange(alg.size) if initial is None else initial.part
    labels = close(start, pairs[:, 0], pairs[:, 1],
                   functools.partial(translations, alg))
    return Congruence(alg, labels, check=False)


def principal_congruence(alg, a, b):
    return congruence_generated(alg, [(a, b)])


def enumerate_congruences(alg):
    """Every congruence, as the join closure of the principal ones."""
    if alg.size > ENUMERATION_LIMIT:
        raise BudgetExceeded(
            f"congruence enumeration limited to size {ENUMERATION_LIMIT}, "
            f"{alg.name} has {alg.size}"
        )
    found = {}
    delta = diagonal(alg)
    found[delta.key()] = delta
    principals = []
    for a in range(alg.size):
        for b in range(a + 1, alg.size):
            c = principal_congruence(alg, a, b)
            if c.key() not in found:
                found[c.key()] = c
                principals.append(c)
    frontier = list(found.values())
    while frontier:
        nxt = []
        for c in frontier:
            for p in principals:
                j = join(c, p)
                if j.key() not in found:
                    found[j.key()] = j
                    nxt.append(j)
        frontier = nxt
    out = list(found.values())
    out.sort(key=lambda c: (c.class_count(), c.key()))
    return out


def _same_carrier(theta, psi):
    if theta.on is not psi.on:
        raise InvalidParameters("congruences live on different algebras")
