"""Independent reference implementations used to check the library.

Everything here recomputes results by a different route than the
library: set-based transitive closures, brute-force partition sweeps,
the matrix-closure description of the commutator, and a search of the
congruence lattice for the monotone-light factorization.  Kept
deliberately naive; only run on small carriers.
"""

import itertools

import numpy as np

from simal import congruences as cg
from simal.galois import _central_by_lattice, _quotient_cofactor
from simal.simplicial import (
    is_simplicial_congruence,
    simplicial_congruence_generated,
)

# Families the lattice walk may visit before it gives up.
WALK_NODE_LIMIT = 20_000


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
    z delta w for every matrix.
    """
    n = alg.size
    if n == 0:
        return []
    present = set()
    frontier = []
    for a, b in pairs_of_partition(theta_part):
        frontier.append((a, a, b, b))
    for u, v in pairs_of_partition(psi_part):
        frontier.append((u, v, u, v))
    rows = []
    for q in frontier:
        if q not in present:
            present.add(q)
            rows.append(q)
    mat = np.asarray(rows, dtype=np.int64)
    while True:
        added = False
        for opname, arity in alg.signature.ops:
            t = alg.table(opname)
            m = len(mat)
            if arity == 0:
                cand = np.asarray([[int(t[0])] * 4])
            elif arity == 1:
                cand = t[mat]
            elif arity == 2:
                left = np.repeat(np.arange(m), m)
                right = np.tile(np.arange(m), m)
                cand = np.stack(
                    [t[mat[left, c], mat[right, c]] for c in range(4)], axis=1
                )
            else:
                raise NotImplementedError("oracle handles arity <= 2")
            codes = ((cand[:, 0] * n + cand[:, 1]) * n + cand[:, 2]) * n + cand[:, 3]
            new = []
            for row, code in zip(cand, codes):
                key = tuple(int(v) for v in row)
                if key not in present:
                    present.add(key)
                    new.append(key)
            if new:
                mat = np.concatenate([mat, np.asarray(new, dtype=np.int64)])
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


def _family_pairs(cong):
    src = np.arange(len(cong.part))
    mask = src != cong.part
    return list(zip(src[mask].tolist(), cong.part[mask].tolist()))


def _family_key(fam):
    return tuple(c.key() for c in fam)


def _family_leq(fam_a, fam_b):
    return all(cg.leq(a, b) for a, b in zip(fam_a, fam_b))


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
            fam = simplicial_congruence_generated(X, {n: [(a, b)]})
            assert _family_leq(fam, kernels)
            atoms.setdefault(_family_key(fam), fam)

    def central(fam):
        Z, e, m = _quotient_cofactor(X, F, fam)
        assert m.is_levelwise_surjective()
        return _central_by_lattice(m)

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
            new = simplicial_congruence_generated(
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
    meet_fam = [cg.meet_all([fam[n] for fam in minimal]) for n in range(N + 1)]
    assert is_simplicial_congruence(X, meet_fam)
    assert central(meet_fam), "meet of minimal successes is not central"
    assert all(_family_key(fam) == _family_key(meet_fam) for fam in minimal), \
        "minimal central quotient is not unique"
    return _quotient_cofactor(X, F, meet_fam)
