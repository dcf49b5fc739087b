"""Congruences on finite Mal'tsev algebras.

A congruence is stored as a partition array: part[i] is the least
element of the block containing i.  Meets, joins, images and quotients
all work on these label arrays, and read what they need off the
invariant rather than sort: the representatives are the i with
part[i] == i, in increasing order, and bincount(part) is each block's
size at its representative.  Congruence(on, part) takes any integer
labels, relabels them by least members and checks compatibility;
Congruence(on, part, check=False) does neither, so its caller vouches
that part already holds least-member labels of a congruence.

join and meet first test whether one argument lies below the other,
by one gather each way, and return the larger or the smaller one.
Only when neither does, meet relabels its pair codes by one sort and
join merges and certifies.  kernel_of_codes, the kernel of several
(codes, bound) columns on one domain, folds them into mixed-radix codes
and relabels those by one sort too, so it makes a meet of kernels
without building either kernel; kernel_pair of several maps on one
domain, the kernel of x -> (f(x), g(x), ..), is kernel_of_codes of their
image columns, galois' self-pullback route hands it pair codes of
faces, and galois' top triple meet hands it a congruence's labels
through two faces, which is how a meet of preimages is taken.  No other
operation relabels by a sort: kernel_pair of one map scatters each
element onto its image, and meets_trivially only
counts the distinct pair codes, by distinct, the library's one way to
take the distinct values of an array, which sorts where np.unique would
hash.

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
absorbed and merges the images.  It groups those r by their root, so
each root, a head, is translated once per wave however many elements
it absorbed, and merge gets only the image cells whose labels differ
from their head's image's.  With the start these pairs generate all
merged so far, and each element enters at most once, as the root it
loses, so a closure that merges nothing computes nothing.  A wave
needs only the translations whose constants before the argument's slot
are roots when it starts (close's docstring says why): the final roots
were roots at every wave, and replacing arguments by their roots in
slot order reaches every translation.  When a wave absorbs nothing,
every translation keeps the relation, and every merged pair was
forced, so it is the least congruence.  A provider yields the
translations, for each run of absorbed elements the images of the run
and of the heads it touches under one block of translations (close's
docstring gives the contract): congruence_generated reads them off
alg.op, which computes a derived algebra's rows from the algebras it
was built from rather than build its table; the simplicial closure
adds the faces and degeneracies leaving a level as one stacked array
of unary translations between levels; the commutator reads them off
pair codes.  check_compatibility is a check, not a closure: one
first_failure walk per operation, finding nothing to merge.

Two sizes bound a wave's work.  translation_slabs hands a provider
about SLAB_CELLS // rows constant tuples per alg.op call, so a derived
algebra makes few evaluator calls.  close compares each absorbed-image
array with its heads' labels in steps of MERGE_CELLS = 16,384 int64
cells, 128 KiB, and the commutator, which computes its images per run
rather than per slab, makes each absorbed-image and head-image array at
most that size, so that the gathers and masks stay at glibc's mmap
threshold instead of each being a fresh mapping that page-faults on
first touch.  Slabs of MERGE_CELLS would make derived algebras pay many
more evaluator calls instead.

The closures of join and image are certified, not trusted:

  join   in a Mal'tsev algebra the closure of theta u psi must already
         be the one-step composite theta o psi, so the composite's pair
         count must equal the closure's; a gap raises JoinNotComposite
         naming a joined pair outside the composite.  When theta <= psi
         the composite is psi itself, so comparable arguments hold the
         certificate by definition and need no count.
  image  the relation {(f a, f b) : a theta b} must already be
         transitive, so its distinct pair count must equal the
         closure's; a gap raises NotTransitive naming a pair that only
         the closure has.
"""

import functools
import math

import numpy as np

from .errors import (
    BudgetExceeded,
    InvalidParameters,
    JoinNotComposite,
    NotSurjective,
    NotTransitive,
)
from .algebra import FiniteAlgebra, Homomorphism, first_failure, int_array

# enumerate_congruences refuses algebras larger than this
ENUMERATION_LIMIT = 16

# Cells of one slab of a closure wave: the constant tuples of one
# alg.op call, about SLAB_CELLS // rows of them.
SLAB_CELLS = 250_000

# Cells of absorbed images close compares at a time, and of each image
# array the commutator computes: at most 128 KiB of int64, glibc's
# default mmap threshold.  On the C16..C48, D8..D24 commutator
# ladder, steps of 250k cells took 95k minor page faults, these 0.8k.
MERGE_CELLS = 16_384


def canonical_partition(labels):
    """Relabel an arbitrary label array so each class is named by its least
    member: one stable argsort, whose runs of equal labels are the classes,
    each headed by its least member.  Labels that are all distinct are
    the diagonal, returned as range(n) without scattering the heads."""
    labels = np.asarray(labels)
    n = labels.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = labels.argsort(kind="stable")
    ordered = labels[order]
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    if np.logical_and.reduce(head):
        return np.arange(n)
    out = np.empty(n, dtype=np.int64)
    out[order] = order[head][head.cumsum() - 1]
    return out


def distinct(values):
    """The distinct values of an array, in increasing order, by one sort.
    np.unique without a return_* keyword hashes under numpy 2.4, which
    took 40 us against 7 us for this on 512 random int64 codes (timeit,
    2-core x86-64)."""
    values = np.sort(values, axis=None)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


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
    partition array part and the pairs (a[k], b[k]); part itself, not a
    copy, when every pair is already related."""
    labels = np.asarray(part, dtype=np.int64)
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    owned = False
    while True:
        ra, rb = labels[a], labels[b]
        split = ra != rb
        if not np.count_nonzero(split):
            return labels
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        if not owned:
            labels, owned = labels.copy(), True
        np.minimum.at(labels, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = labels[labels]
            if not np.count_nonzero(jumped != labels):
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
    """Exhaustively verify the partition respects every operation: each
    result must be in the class of the result at the representatives of
    its argument classes, read through op a slab at a time."""
    alg, labels = cong.on, cong.part
    for opname, arity in alg.signature.ops:
        if arity == 0:
            continue
        where = first_failure(
            (alg.size,) * arity,
            lambda *args: labels[alg.op(opname, *args)]
            != labels[alg.op(opname, *(labels[a] for a in args))],
        )
        if where is not None:
            raise InvalidParameters(
                f"partition not compatible with {opname!r} at {where}"
            )


def leq(theta, psi):
    """theta <= psi as relations."""
    _same_carrier(theta, psi)
    return bool(np.logical_and.reduce(psi.part[theta.part] == psi.part))


def meet(theta, psi):
    """theta ^ psi: the smaller argument when the two are comparable,
    otherwise the blocks of the pair codes, relabelled by one sort."""
    if leq(theta, psi):
        return theta
    if leq(psi, theta):
        return psi
    n = theta.on.size
    labels = theta.part * (n + 1) + psi.part
    return Congruence(theta.on, canonical_partition(labels), check=False)


def meets_trivially(theta, psi):
    """Whether theta ^ psi is the diagonal: no two elements share both
    blocks, so the pair codes hold no repeat."""
    _same_carrier(theta, psi)
    n = theta.on.size
    return len(distinct(theta.part * (n + 1) + psi.part)) == n


def _composite_pair_count(theta, psi):
    """Number of pairs in the relational composite theta o psi: a theta
    block T reaches, through psi, every psi block P that meets it, and
    the blocks of theta ^ psi are exactly the nonempty T n P."""
    r = meet(theta, psi).reps()
    tsizes, psizes = np.bincount(theta.part), np.bincount(psi.part)
    return int(np.add.reduce(tsizes[theta.part[r]] * psizes[psi.part[r]]))


def join(theta, psi):
    """Join: the larger argument when the two are comparable, otherwise
    the closure, certified equal to the one-step relational composite."""
    if leq(theta, psi):
        return psi
    if leq(psi, theta):
        return theta
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


def kernel_of_codes(dom, columns):
    """Congruence on dom identifying x and y when codes[x] == codes[y]
    for every column (codes, bound) given, each codes an array over dom
    of values in range(bound).  The columns are folded one at a time
    into mixed-radix codes, and should the next code pass 2^62 the
    labels so far are first relabelled by a sort; the codes are then
    relabelled by one sort.  This is the library's one such fold."""
    columns = iter(columns)
    labels, bound = next(columns)
    for codes, size in columns:
        if bound * size > 2 ** 62:
            labels, bound = canonical_partition(labels), dom.size
        labels = labels * size + codes
        bound *= size
    return Congruence(dom, canonical_partition(labels), check=False)


def kernel_pair(f, *others):
    """Congruence on the domain identifying elements with equal image
    under every map given, the kernel of x -> (f(x), g(x), ..).  One
    map's labels are scattered onto their least members; several maps
    are kernel_of_codes of their maps, each bounded by its codomain."""
    if any(g.dom is not f.dom for g in others):
        raise InvalidParameters("kernel pair of maps on different domains")
    if not others:
        return Congruence(f.dom, _least_members(f.map, f.cod.size),
                          check=False)
    return kernel_of_codes(f.dom,
                           [(g.map, g.cod.size) for g in (f,) + others])


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
    items = distinct(theta.part * m + f.map)
    imaged = _pairs_within(items // m, items % m)
    relation = distinct(imaged[:, 0] * m + imaged[:, 1])
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
    translate.

    Each wave hands translate(xs, heads, at, roots) the elements the
    last one absorbed as xs, sorted by their root, the distinct roots as
    heads, in increasing order, and at, the index into heads of each
    one's root.  It yields triples (tx, th, ta), each for a run of
    consecutive elements of xs under one block of basic translations
    f(c_1, .., x, .., c_m) whose constants before the slot of x are
    roots of the wave (roots[c] is True) and whose constants after it
    are any elements: tx holds the images of the run, a row per element,
    th those of the heads the run touches, a row per head in order, and
    ta the row of th of each row of tx.  A provider may yield one th
    again, the same array, while its runs stay on the same heads.  close
    compares the labels of tx, MERGE_CELLS cells at a time, with those of
    th gathered by ta, hands merge only the cells that differ, and
    gathers the head labels afresh after every merge.

    That is enough.  Let E be the result and r(x) the root of x in E.
    A root of E was a root at every wave, as no merge frees a root, so
    f(x_1, .., x_m) E f(r(x_1), .., r(x_m)) by replacing one argument at
    a time, in slot order: step i replaces x_i by r(x_i) while the
    slots before it already hold roots of E.  If x_i is a non-root of
    start, start relates the two sides, being closed under every
    translation; otherwise x_i lost its root status in some wave, and
    the next wave translated (x_i, its root p then) with exactly such
    constants, relating the sides with x_i and with p; p is r(x_i) or
    was itself absorbed later, and so on to r(x_i).  So x E y gives
    f(.., x, ..) E f(r(..), r(x), r(..)) E f(.., y, ..) for every basic
    translation.
    """
    codes = np.arange(len(start))
    was_root, labels = start == codes, merge(start, a, b)
    while True:
        roots = labels == codes
        absorbed = (was_root & ~roots).nonzero()[0]
        if not len(absorbed):
            return labels
        was_root = roots
        owner = labels[absorbed]
        order = owner.argsort()
        absorbed, owner = absorbed[order], owner[order]
        new = np.empty(len(owner), dtype=bool)
        new[0] = True
        np.not_equal(owner[1:], owner[:-1], out=new[1:])
        heads = owner[new]
        held = None
        for tx, th, ta in translate(absorbed, heads, heads.searchsorted(owner),
                                    roots):
            if th is not held:
                held, head_labels = th, labels[th]
            # a run that touches as many heads as it has rows is one per head
            one_each = len(th) == len(tx)
            step = max(1, MERGE_CELLS // tx.shape[1])
            for s in range(0, len(tx), step):
                lx = labels[tx[s:s + step]]
                ly = (head_labels[s:s + step] if one_each
                      else head_labels.take(ta[s:s + step], axis=0))
                split = lx != ly
                if np.count_nonzero(split):
                    labels = merge(labels, lx[split], ly[split])
                    head_labels = labels[th]


def runs(at, rows):
    """(w, h, local) for the runs of at most rows consecutive absorbed
    elements in turn, at as close hands it to a provider: the slice w of
    the run, the slice h of the heads it touches, and local, the index
    into h of each one's head."""
    for s in range(0, len(at), rows):
        local = at[s:s + rows]
        first = local[0]
        yield (slice(s, s + rows), slice(first, local[-1] + 1),
               local - first if first else local)


def translation_slabs(alg, pool, roots, rows):
    """(f, consts, slot) for every operation f of positive arity, slot,
    and block of about SLAB_CELLS // rows constant tuples in mixed radix:
    the constants before the slot range over the index array roots, those
    after it over range(pool).  consts holds one row vector of pool
    indices per other slot, in_slot places the argument."""
    block = max(1, SLAB_CELLS // rows)
    for opname, arity in alg.signature.ops:
        for slot in range(arity):
            radix = (len(roots),) * slot + (pool,) * (arity - 1 - slot)
            tuples = math.prod(radix)
            for start in range(0, tuples, block):
                flat = np.arange(start, min(start + block, tuples))
                digits = np.unravel_index(flat, radix) if radix else ()
                consts = [(roots[d] if k < slot else d)[None, :]
                          for k, d in enumerate(digits)]
                yield opname, consts, slot


def in_slot(consts, slot, column):
    return consts[:slot] + [column] + consts[slot:]


def translations(alg, xs, heads, at, roots):
    """close's provider for the basic translations of alg, read by
    alg.op: one call per block of constant tuples computes the images of
    a run of the absorbed elements and of the heads it touches together."""
    roots = roots.nonzero()[0]
    for w, h, local in runs(at, max(1, SLAB_CELLS // 2)):
        both = np.concatenate([xs[w], heads[h]])[:, None]
        cut = len(local)
        for opname, consts, slot in translation_slabs(alg, alg.size, roots,
                                                      len(both)):
            rows = alg.op(opname, *in_slot(consts, slot, both))
            yield rows[:cut], rows[cut:], local


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
