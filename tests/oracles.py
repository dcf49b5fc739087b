"""Independent reference implementations used to check the library.

Everything here recomputes results by a different route than the
library: set-based transitive closures, np.unique relabellings of
label arrays, brute-force partition sweeps, the matrix-closure
description of the commutator, the level-by-level closure of
simplicial congruences by gathers over whole tables, horn, kernel and
fibration counts by a sweep of whole products, preimages of
congruences, the monotone-light fixpoint's seeds for every pair of
faces at every level, each face pulled back by preimage, and the
fixpoint they close, a search of the congruence lattice for the
monotone-light factorization, the classification verdicts read off
every level instead of the top one, the top triple meets of every pair
of faces, the coskeleton lift of a morphism, an isomorphic copy of a
morphism with every level renumbered, and a population of extensions
generated by a stated rule.  Kept deliberately naive; only run on small
carriers.
"""

import functools
import itertools

import numpy as np

from simal import congruences as cg
from simal.algebra import FiniteAlgebra, Homomorphism
from simal.corpus import loops_graph, named_algebra
from simal.errors import LevelTooLarge
from simal.galois import _quotient_cofactor
from simal.limits import tuple_map
from simal.reflection import homotopy_family
from simal.simplicial import (
    SimplicialMorphism,
    coskeleton,
    decalage,
    quotient_simplicial,
    simplicial_congruence_generated,
    transport,
    truncate,
)

# Families the lattice walk may visit before it gives up.
WALK_NODE_LIMIT = 20_000

# loops_population's bound on an object's total size, and on the
# elements of a level its principal seeds are drawn from.
POPULATION_SIZE = 1_000
POPULATION_SEED_CAP = 12

# Argument tuples of one step of the matrix closure, so that the C48
# commutators stay under 100 MB.
MATRIX_TUPLES = 1 << 18


def pairs_of_partition(part):
    """All ordered related pairs of a least-member partition array."""
    blocks = {}
    for i, r in enumerate(part):
        blocks.setdefault(int(r), []).append(i)
    out = set()
    for blk in blocks.values():
        for a in blk:
            for b in blk:
                out.add((a, b))
    return out


def brute_tuples(sizes, constraints):
    """Tuples of the product of range(n) over sizes, in lexicographic order,
    that satisfy map_i(x_i) == map_j(x_j) for every (i, map_i, j, map_j)."""
    return [
        t for t in itertools.product(*(range(n) for n in sizes))
        if all(mi[t[i]] == mj[t[j]] for i, mi, j, mj in constraints)
    ]


def face_tuples_by_sweep(X, n, slots):
    """The tuples (x_i)_{i in slots} of the whole product of X_{n-1}
    with d_i x_j = d_{j-1} x_i for slots i < j, one tuple at a time; at
    n = 1 no faces lie below, and every tuple is one."""
    d = [[int(v) for v in f.map] for f in X.faces[n - 1]]
    pairs = [(i, j) for j in slots for i in slots if i < j] if n > 1 else []
    out = []
    for t in itertools.product(range(X.levels[n - 1].size), repeat=len(slots)):
        x = dict(zip(slots, t))
        if all(d[i][x[j]] == d[j - 1][x[i]] for i, j in pairs):
            out.append(t)
    return out


def _faces_at(X, n, slots, x):
    return tuple(int(X.faces[n][i].map[x]) for i in slots)


def horn_counts(X, n, slots):
    """(size, image) of the horn or kernel of X at the slots: how many
    compatible tuples there are, and how many of them are the faces of
    an n-simplex at the slots."""
    tuples = face_tuples_by_sweep(X, n, slots)
    faces = {_faces_at(X, n, slots, x) for x in range(X.levels[n].size)}
    if not faces <= set(tuples):
        raise ValueError("an n-simplex has incompatible faces")
    return len(tuples), len(faces)


def fibration_counts(F, n, k):
    """(pullback size, image) for the horn (n, k) of F: X -> Y.  The
    pullback pairs each horn tuple h of X with every n-simplex of Y whose
    horn is F(h); the image counts the distinct (horn of x, F x)."""
    X, Y = F.dom, F.cod
    slots = [i for i in range(n + 1) if i != k]
    below = [int(v) for v in F.components[n - 1].map]
    y_horns = {}
    for y in range(Y.levels[n].size):
        key = _faces_at(Y, n, slots, y)
        y_horns[key] = y_horns.get(key, 0) + 1
    pullback = sum(y_horns.get(tuple(below[v] for v in h), 0)
                   for h in face_tuples_by_sweep(X, n, slots))
    image = {(_faces_at(X, n, slots, x), int(F.components[n].map[x]))
             for x in range(X.levels[n].size)}
    return pullback, len(image)


def componentwise_tables(factors, rows):
    """Every operation of the algebra on the tuples rows of a product of
    factors, evaluated one argument tuple and one component at a time,
    as {name: index table}; a result outside rows raises KeyError."""
    rows = [tuple(int(v) for v in r) for r in rows]
    index = {r: i for i, r in enumerate(rows)}
    tables = {}
    for opname, arity in factors[0].signature.ops:
        out = np.zeros((len(rows),) * arity if arity else (1,), dtype=np.int64)
        for args in itertools.product(range(len(rows)), repeat=arity):
            result = tuple(
                int(f.table(opname)[tuple(rows[a][c] for a in args)])
                if arity else int(f.table(opname)[0])
                for c, f in enumerate(factors)
            )
            out[args if arity else 0] = index[result]
        tables[opname] = out
    return tables


def quotient_by_blocks(alg, part):
    """(block of each element, {name: table}) for the quotient by the
    least-member partition part, blocks numbered by least member; each
    table entry is written from every argument tuple, and two tuples that
    disagree raise ValueError."""
    block_of = {r: i for i, r in enumerate(sorted(set(int(v) for v in part)))}
    proj = [block_of[int(v)] for v in part]
    tables = {}
    for opname, arity in alg.signature.ops:
        t = alg.table(opname)
        if not arity:
            tables[opname] = np.asarray([proj[int(t[0])]])
            continue
        out = np.full((len(block_of),) * arity, -1, dtype=np.int64)
        for args in itertools.product(range(alg.size), repeat=arity):
            cell = tuple(proj[a] for a in args)
            value = proj[int(t[args])]
            if out[cell] not in (-1, value):
                raise ValueError(f"{opname} is not well defined at {cell}")
            out[cell] = value
        tables[opname] = out
    return proj, tables


def least_members(*columns):
    """Least-member labels of the partition of range(n) whose classes are
    the positions that agree in every column, read off np.unique: each
    position is labelled by the first position of its row."""
    rows = np.stack([np.asarray(c, dtype=np.int64) for c in columns], axis=1)
    if not len(rows):
        return np.zeros(0, dtype=np.int64)
    _, first, inverse = np.unique(rows, axis=0, return_index=True,
                                  return_inverse=True)
    return first[inverse.reshape(-1)]


def kernel_by_images(*maps):
    """Least-member labels of the kernel of x -> (f(x), g(x), ..), by a
    dict from each image tuple to the first element that has it."""
    first = {}
    return np.array([first.setdefault(tuple(int(f.map[x]) for f in maps), x)
                     for x in range(len(maps[0].map))], dtype=np.int64)


def block_statistics(part):
    """(representatives, block number of each element, ordered pair
    count) of a label array, read off np.unique."""
    reps, block, sizes = np.unique(part, return_inverse=True,
                                   return_counts=True)
    return reps, block.reshape(-1), int((sizes ** 2).sum())


def closure_of_pairs(n, pairs):
    """Reflexive-symmetric-transitive closure, as a set of ordered pairs."""
    adj = {i: {i} for i in range(n)}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    seen_pairs = set()
    for start in range(n):
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        for y in seen:
            seen_pairs.add((start, y))
    return seen_pairs


def join_by_closure(theta_part, psi_part):
    """Join oracle: transitive closure of the union of the two relations."""
    n = len(theta_part)
    pairs = pairs_of_partition(theta_part) | pairs_of_partition(psi_part)
    return closure_of_pairs(n, pairs)


def compose_relations(r, s):
    by_first = {}
    for b, c in s:
        by_first.setdefault(b, []).append(c)
    return {(a, c) for a, b in r for c in by_first.get(b, [])}


def all_partitions(n):
    """Every partition of range(n), as tuples of frozensets."""
    if n == 0:
        yield ()
        return

    def rec(i, blocks):
        if i == n:
            yield tuple(frozenset(b) for b in blocks)
            return
        for k in range(len(blocks)):
            blocks[k].append(i)
            yield from rec(i + 1, blocks)
            blocks[k].pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def partition_to_part(n, blocks):
    part = [0] * n
    for b in blocks:
        least = min(b)
        for x in b:
            part[x] = least
    return part


def respects_operations(alg, part):
    """Pure-Python compatibility check of a partition with all operations."""
    n = alg.size
    for opname, arity in alg.signature.ops:
        if arity == 0:
            continue
        t = alg.table(opname)
        for args_a in itertools.product(range(n), repeat=arity):
            for pos in range(arity):
                for other in range(n):
                    if part[other] != part[args_a[pos]]:
                        continue
                    args_b = list(args_a)
                    args_b[pos] = other
                    if part[int(t[args_a])] != part[int(t[tuple(args_b)])]:
                        return False
    return True


def is_homomorphism_map(A, B, fmap):
    """Pure-Python check that fmap commutes with every operation of A
    and B, argument tuple by argument tuple."""
    for opname, arity in A.signature.ops:
        ta, tb = A.table(opname), B.table(opname)
        if arity == 0:
            if fmap[ta[0]] != tb[0]:
                return False
            continue
        for args in itertools.product(range(A.size), repeat=arity):
            if fmap[ta[args]] != tb[tuple(fmap[a] for a in args)]:
                return False
    return True


def is_groupoid_isomorphism(G, H, f0, f1):
    """Whether the map arrays f0 on objects and f1 on arrows are bijective
    homomorphisms G -> H that commute with d0, d1, s0 and the
    composition, undefined composites included."""
    f0, f1 = np.asarray(f0), np.asarray(f1)
    for f, A, B in ((f0, G.objects, H.objects), (f1, G.arrows, H.arrows)):
        if (A.size != B.size or f.shape != (A.size,)
                or sorted(f.tolist()) != list(range(B.size))
                or not is_homomorphism_map(A, B, f)):
            return False
    return (np.array_equal(H.d0.map[f1], f0[G.d0.map])
            and np.array_equal(H.d1.map[f1], f0[G.d1.map])
            and np.array_equal(H.s0.map[f0], f1[G.s0.map])
            and np.array_equal(H.comp[np.ix_(f1, f1)],
                               np.where(G.comp >= 0, f1[G.comp], -1)))


def brute_force_congruences(alg):
    """All congruences of a tiny algebra by filtering every partition."""
    found = []
    for blocks in all_partitions(alg.size):
        part = partition_to_part(alg.size, blocks)
        if respects_operations(alg, part):
            found.append(tuple(part))
    return set(found)


def cg_closure_pure(alg, pairs):
    """Congruence generation by worklist of unary translations."""
    n = alg.size
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = [(int(a), int(b)) for a, b in pairs]
    while queue:
        a, b = queue.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[max(ra, rb)] = min(ra, rb)
        for opname, arity in alg.signature.ops:
            if arity == 0:
                continue
            t = alg.table(opname)
            for pos in range(arity):
                for rest in itertools.product(range(n), repeat=arity - 1):
                    args_a = rest[:pos] + (a,) + rest[pos:]
                    args_b = rest[:pos] + (b,) + rest[pos:]
                    x, y = int(t[args_a]), int(t[args_b])
                    if find(x) != find(y):
                        queue.append((x, y))
    return [find(i) for i in range(n)]


def matrix_closure_commutator(alg, theta_part, psi_part):
    """Term-condition commutator via closure of the matrix subalgebra.

    Matrices are 4-tuples (x, y, z, w) for [[x, y], [z, w]]; generated by
    (a, a, b, b) over theta-pairs and (u, v, u, v) over psi-pairs; the
    result is the least congruence delta with: x delta y implies
    z delta w for every matrix.  Each round applies every operation to
    every tuple of the matrices found so far, of any arity.
    """
    n = alg.size
    if n == 0:
        return []

    def encode(rows):
        return ((rows[:, 0] * n + rows[:, 1]) * n + rows[:, 2]) * n + rows[:, 3]

    def decode(codes):
        return np.stack([codes // n ** (3 - c) % n for c in range(4)], axis=1)

    seeds = [(a, a, b, b) for a, b in pairs_of_partition(theta_part)]
    seeds += [(u, v, u, v) for u, v in pairs_of_partition(psi_part)]
    mat = decode(np.unique(encode(np.asarray(seeds, dtype=np.int64))))
    while True:
        added = False
        for opname, arity in alg.signature.ops:
            t = alg.table(opname)
            if arity == 0:
                found = [encode(np.asarray([[int(t[0])] * 4]))]
            else:
                # every tuple of matrices, MATRIX_TUPLES at a time
                total, found = len(mat) ** arity, []
                for s in range(0, total, MATRIX_TUPLES):
                    args = np.unravel_index(
                        np.arange(s, min(s + MATRIX_TUPLES, total)),
                        (len(mat),) * arity,
                    )
                    cand = np.stack(
                        [t[tuple(mat[a, c] for a in args)] for c in range(4)],
                        axis=1,
                    ).astype(np.int64)
                    found.append(np.unique(encode(cand)))
            new = decode(np.setdiff1d(np.concatenate(found), encode(mat)))
            if len(new):
                mat = np.concatenate([mat, new])
                added = True
        if not added:
            break
    matrices = [tuple(int(v) for v in row) for row in mat]
    delta = list(range(n))
    while True:
        changed = False
        for (x, y, z, w) in matrices:
            if delta[x] == delta[y] and delta[z] != delta[w]:
                delta = cg_closure_pure(
                    alg, [(i, delta[i]) for i in range(n)] + [(z, w)]
                )
                changed = True
        if not changed:
            return delta


def _structure_maps(X):
    """(n, m, map) for every face and degeneracy X_n -> X_m."""
    faces = [(n, n - 1, d.map) for n in range(1, X.truncation + 1)
             for d in X.faces[n]]
    degeneracies = [(n, n + 1, s.map) for n in range(X.truncation)
                    for s in X.degeneracies[n]]
    return faces + degeneracies


def _pushed_pairs(cong, fmap):
    """The pairs (f x, f r) with r the least member of the class of x,
    wherever they differ; they generate the image of the relation."""
    b = fmap[cong.part]
    mask = fmap != b
    return np.stack([fmap[mask], b[mask]], axis=1)


def gather_closure(alg, pairs, initial=None):
    """Congruence generated by pairs over the congruence initial, if any,
    by gathers over whole tables: each round compares, for every
    operation, the class of each result with the class of the result at
    the representatives of its argument classes, and merges every pair
    that differs, until none does."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    start = np.arange(alg.size) if initial is None else initial.part
    labels = cg.merge(start, pairs[:, 0], pairs[:, 1])
    while True:
        a, b = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        for opname, arity in alg.signature.ops:
            if arity == 0:
                continue
            vs = labels[alg.table(opname)]
            ref = vs[np.ix_(*([labels] * arity)) if arity > 1 else (labels,)]
            split = vs != ref
            a.append(vs[split])
            b.append(ref[split])
        a, b = np.concatenate(a), np.concatenate(b)
        if not len(a):
            return cg.Congruence(alg, labels, check=False)
        labels = cg.merge(labels, a, b)


def simplicial_closure_by_levels(X, seeds):
    """Simplicial congruence generated by seeds {level: pairs}, level by
    level: close each level on its own by gather_closure, then push each
    level's relation along every face and degeneracy and close the target
    level again, until no level changes."""
    parts = [gather_closure(X.levels[n], seeds.get(n, []))
             for n in range(X.truncation + 1)]
    changed = True
    while changed:
        changed = False
        for n, m, fmap in _structure_maps(X):
            merged = gather_closure(
                X.levels[m], _pushed_pairs(parts[n], fmap), initial=parts[m]
            )
            if merged != parts[m]:
                parts[m] = merged
                changed = True
    return parts


def is_closed_family(X, parts):
    """Whether every face and degeneracy sends each level's relation into
    its target level's, pair by pair."""
    return all(
        parts[m].part[a] == parts[m].part[b]
        for n, m, fmap in _structure_maps(X)
        for a, b in _pushed_pairs(parts[n], fmap).tolist()
    )


def _family_pairs(cong):
    src = np.arange(len(cong.part))
    mask = src != cong.part
    return list(zip(src[mask].tolist(), cong.part[mask].tolist()))


def _family_key(fam):
    return tuple(c.key() for c in fam)


def _family_leq(fam_a, fam_b):
    return all(cg.leq(a, b) for a, b in zip(fam_a, fam_b))


def meet_all(congs):
    """The meet of a nonempty list of congruences, folded left to right."""
    return functools.reduce(cg.meet, congs)


def preimage(f, theta):
    """The congruence on f's domain relating a and b when f a theta f b:
    the least members of theta's labels read through f."""
    return cg.Congruence(f.dom, least_members(theta.part[f.map]),
                         check=False)


def obstruction_seeds_by_pullback(X, kernels, fam):
    """The seeds of one round of the monotone-light fixpoint for every
    level n >= 2 and every pair of faces i < j, with every face pulled
    back by preimage, over the diagonal too: {(n, i, j): the pairs
    (x, least member of its class) of
    ker F_n /\\ d_i^-1(fam[n-1]) /\\ d_j^-1(fam[n-1]), met left to
    right}."""
    seeds = {}
    for n in range(2, X.truncation + 1):
        pulled = [preimage(d, fam[n - 1]) for d in X.faces[n]]
        for j in range(1, n + 1):
            for i in range(j):
                seeds[n, i, j] = _family_pairs(
                    meet_all([kernels[n], pulled[i], pulled[j]]))
    return seeds


def ml_fixpoint_by_levels(F):
    """The monotone-light fixpoint seeded by every pair of faces at every
    level: from the diagonal, close the last family together with all of
    obstruction_seeds_by_pullback's seeds by simplicial_closure_by_levels,
    until the family already relates every seed.  Returns the family."""
    X = F.dom
    kernels = [cg.kernel_pair(c) for c in F.components]
    fam = [cg.diagonal(lvl) for lvl in X.levels]
    while True:
        seeds = {n: _family_pairs(c) for n, c in enumerate(fam)}
        for (n, _, _), pairs in obstruction_seeds_by_pullback(
                X, kernels, fam).items():
            seeds[n] += pairs
        if all(fam[n].part[a] == fam[n].part[b]
               for n, pairs in seeds.items() for a, b in pairs):
            return fam
        fam = simplicial_closure_by_levels(X, seeds)


def ml_walk(F):
    """Monotone-light factorization by search: walk the join lattice of
    the single-pair closures below the kernel breadth-first, stop each
    branch at its first central cofactor, and require the minimal
    successes to be one family.  Returns (middle object, e, m)."""
    X = F.dom
    N = X.truncation
    kernels = [cg.kernel_pair(c) for c in F.components]
    atoms = {}
    for n in range(1, N + 1):
        P = kernels[n].pairs()
        for a, b in P[P[:, 0] < P[:, 1]].tolist():
            fam = simplicial_closure_by_levels(X, {n: [(a, b)]})
            assert _family_leq(fam, kernels)
            atoms.setdefault(_family_key(fam), fam)

    def central(fam):
        Z, e, m = _quotient_cofactor(X, F, fam)
        assert m.is_levelwise_surjective()
        return central_by_levels(m)

    bottom = [cg.diagonal(lvl) for lvl in X.levels]
    if central(bottom):
        return _quotient_cofactor(X, F, bottom)
    visited = {_family_key(bottom)}
    frontier = [bottom]
    successes = []
    while frontier:
        fam = frontier.pop(0)
        for atom in atoms.values():
            merged = [cg.join(fam[n], atom[n]) for n in range(N + 1)]
            new = simplicial_closure_by_levels(
                X, {n: _family_pairs(merged[n]) for n in range(N + 1)}
            )
            key = _family_key(new)
            if key in visited:
                continue
            visited.add(key)
            if len(visited) > WALK_NODE_LIMIT:
                raise RuntimeError(
                    f"lattice walk exceeded {WALK_NODE_LIMIT} nodes"
                )
            (successes if central(new) else frontier).append(new)
    assert successes, "no quotient below the kernel has a central cofactor"
    minimal = [
        fam for fam in successes
        if not any(_family_leq(other, fam) and
                   _family_key(other) != _family_key(fam)
                   for other in successes)
    ]
    meet_fam = [meet_all([fam[n] for fam in minimal]) for n in range(N + 1)]
    assert is_closed_family(X, meet_fam)
    assert central(meet_fam), "meet of minimal successes is not central"
    assert all(_family_key(fam) == _family_key(meet_fam) for fam in minimal), \
        "minimal central quotient is not unique"
    return _quotient_cofactor(X, F, meet_fam)


# -- verdicts at every level, and a morphism one level up or down ----------

def central_by_levels(F):
    """Whether ker F_n /\\ ker d_i /\\ ker d_j is the diagonal at every
    level n >= 2 and for all faces i < j, each kernel taken alone."""
    X = F.dom
    return all(
        meet_all([cg.kernel_pair(F.components[n]),
                  cg.kernel_pair(X.faces[n][i]),
                  cg.kernel_pair(X.faces[n][j])]).is_diagonal()
        for n in range(2, X.truncation + 1)
        for j in range(1, n + 1) for i in range(j))


def top_triple_meets_trivial(F):
    """{(i, j): whether ker F_N /\\ ker d_i /\\ ker d_j is the diagonal}
    at the top level N, for every pair of faces i < j, each meet read
    off np.unique of the three maps' images."""
    X = F.dom
    N = X.truncation
    d = X.faces[N]
    return {(i, j): np.array_equal(
                least_members(F.components[N].map, d[i].map, d[j].map),
                np.arange(X.levels[N].size))
            for j in range(1, N + 1) for i in range(j)}


def verdicts_by_levels(F):
    """(trivial, central) of an extension F, read off every level:
    ker F_n meets the homotopy congruence h_n trivially at every n, and
    central_by_levels."""
    trivial = all(cg.meet(cg.kernel_pair(c), h).is_diagonal()
                  for c, h in zip(F.components, homotopy_family(F.dom)))
    return trivial, central_by_levels(F)


def coskeleton_lift(F, budget=None):
    """F: X -> Y one level up: the (N+1)-coskeleta of both ends, and at
    level N+1 the map sending a simplicial-kernel tuple (x_0..x_{N+1}) of
    N-simplices to (F_N x_0, ..., F_N x_{N+1})."""
    N = F.dom.truncation
    X, Y = (coskeleton(Z, N + 1, budget=budget) for Z in (F.dom, F.cod))
    rows = X.levels[N + 1].carrier.rows
    top = tuple_map(X.levels[N + 1], Y.levels[N + 1],
                    [F.components[N].map[rows[:, c]] for c in range(N + 2)])
    return SimplicialMorphism(X, Y, F.components + [top], check=True)


def truncated_morphism(F, M):
    """F: X -> Y cut down to its levels 0..M."""
    return SimplicialMorphism(truncate(F.dom, M), truncate(F.cod, M),
                              F.components[:M + 1], check=True)


# -- relabelling -----------------------------------------------------------

def _renamed(fmap, perm_dom, perm_cod):
    """The map sending perm_dom[a] to perm_cod[fmap[a]]."""
    out = np.empty_like(fmap)
    out[perm_dom] = perm_cod[fmap]
    return out


def _relabelled_algebra(alg, perm):
    """alg with each element a renamed perm[a]: every operation is read
    through alg's, its arguments renamed back and its value forward."""
    back = np.argsort(perm)
    constants = {op: int(perm[alg.op(op)])
                 for op, arity in alg.signature.ops if arity == 0}
    return FiniteAlgebra(
        f"{alg.name}~", alg.size, alg.signature, None, alg.maltsev_term,
        evaluator=lambda op, args: perm[alg.op(op, *(back[a] for a in args))],
        constants=constants)


def _relabelled_object(X, rng):
    perms = [rng.permutation(lvl.size) for lvl in X.levels]
    levels = [_relabelled_algebra(lvl, p) for lvl, p in zip(X.levels, perms)]
    Y = transport(X, levels,
                  lambda n, m, key, f: _renamed(f.map, perms[n], perms[m]),
                  f"{X.name}~")
    return Y, perms


def relabel(F, seed):
    """An isomorphic copy of F: every level of both ends renumbered by a
    permutation drawn from seed, with the faces, degeneracies and
    components conjugated to match."""
    rng = np.random.default_rng(seed)
    X, px = _relabelled_object(F.dom, rng)
    Y, py = _relabelled_object(F.cod, rng)
    comps = [Homomorphism(X.levels[n], Y.levels[n],
                          _renamed(c.map, px[n], py[n]), check=False)
             for n, c in enumerate(F.components)]
    return SimplicialMorphism(X, Y, comps, check=True)


# -- a generated population -------------------------------------------------

def loops_population():
    """(name, extension) pairs generated by one rule, in a fixed order:
    - objects: X = coskeleton(loops_graph(B, F), M) for M in 2, 3, B in
      C2, C3, C4 and F in C2, C3, C4, C2xC2, those built within a budget
      of POPULATION_SIZE tuples and of total size (the sum of the level
      sizes) at most POPULATION_SIZE;
    - extensions of each X: at every level n, each principal seed (a, b)
      with a < b < min(|X_n|, POPULATION_SEED_CAP), closed by
      simplicial_congruence_generated, each family once, in the order
      first met, gives the quotient projection X -> X/G; and, when
      M = 3, the decalage counit Dec X -> X cut to level 2.
    Nothing is sampled, so every run yields the same extensions."""
    out = []
    for M in (2, 3):
        for B in ("C2", "C3", "C4"):
            for F in ("C2", "C3", "C4", "C2xC2"):
                graph = loops_graph(named_algebra(B), named_algebra(F))
                try:
                    X = coskeleton(graph, M, budget=POPULATION_SIZE)
                except LevelTooLarge:
                    continue
                if sum(lvl.size for lvl in X.levels) > POPULATION_SIZE:
                    continue
                seen = set()
                for n, lvl in enumerate(X.levels):
                    cap = min(lvl.size, POPULATION_SEED_CAP)
                    for a, b in itertools.combinations(range(cap), 2):
                        fam = simplicial_congruence_generated(
                            X, {n: [(a, b)]})
                        if _family_key(fam) in seen:
                            continue
                        seen.add(_family_key(fam))
                        out.append((f"{X.name}/{n}:{a},{b}",
                                    quotient_simplicial(X, fam)[1]))
                if M == 3:
                    out.append((f"counit({X.name})", decalage(X)[1]))
    return out
