"""Deterministic corpus generators.

Every generator is a pure function of its parameters and seed; the seed
feeds a splitmix64 stream, so regeneration is reproducible across runs
and platforms.  Generated objects are validated before being returned.
"""

import itertools
import json

import numpy as np

from .errors import InvalidParameters, UnsupportedVariety
from .algebra import (
    Homomorphism,
    Signature,
    check_maltsev,
    check_tables,
    identity_hom,
    int_array,
    int_scalar,
    make_algebra,
)
from . import congruences as cg
from . import limits
from .groupoid import maltsev_groupoid
from .reflection import pi1
from .simplicial import (
    SimplicialMorphism,
    TruncatedSimplicialAlgebra,
    constant_simplicial,
    coskeleton,
    decalage,
    nerve,
    nerve_map,
    quotient_simplicial,
    simplicial_congruence_generated,
    simplicial_product,
    validate_simplicial,
)

GROUP_SIG = Signature([("mul", 2), ("inv", 1), ("e", 0)])
MODULE_SIG = Signature([("add", 2), ("neg", 1), ("zero", 0)])
HEYTING_SIG = Signature(
    [("meet", 2), ("join", 2), ("imp", 2), ("bot", 0), ("top", 0)]
)

GROUP_TERM = "mul(mul(x, inv(y)), z)"
MODULE_TERM = "add(add(x, neg(y)), z)"
HEYTING_TERM = "meet(join(x, z), imp(y, meet(x, z)))"

_MASK = (1 << 64) - 1


class SplitMix:
    """splitmix64 stream; stable across platforms and Python versions."""

    def __init__(self, seed):
        self.state = seed & _MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randrange(self, n):
        return self.next_u64() % n


# -- group-like algebras ---------------------------------------------------

def _group_from_elements(name, elements, compose, invert, identity):
    order = {g: i for i, g in enumerate(elements)}
    n = len(elements)
    mul = np.zeros((n, n), dtype=np.int64)
    for i, gi in enumerate(elements):
        for j, gj in enumerate(elements):
            mul[i, j] = order[compose(gi, gj)]
    inv = np.asarray([order[invert(g)] for g in elements])
    e = np.asarray([order[identity]])
    alg = make_algebra(
        name, GROUP_SIG, {"mul": mul, "inv": inv, "e": e}, GROUP_TERM
    )
    alg.elements = list(elements)
    return alg


def _perm_compose(g, h):
    return tuple(g[h[i]] for i in range(len(g)))


def _perm_invert(g):
    out = [0] * len(g)
    for i, v in enumerate(g):
        out[v] = i
    return tuple(out)


def cyclic_group(n):
    """Z_n in multiplicative signature."""
    if n < 1:
        raise InvalidParameters("cyclic group needs n >= 1")
    a = np.arange(n)
    return make_algebra(
        f"C{n}",
        GROUP_SIG,
        {
            "mul": (a[:, None] + a[None, :]) % n,
            "inv": (-a) % n,
            "e": np.asarray([0]),
        },
        GROUP_TERM,
    )


def dihedral_group(n):
    """Symmetries of the n-gon, order 2n, as permutations of vertices."""
    if n < 2:
        raise InvalidParameters("dihedral group needs n >= 2")
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((-i) % n for i in range(n))
    elements = set()
    frontier = [tuple(range(n))]
    while frontier:
        g = frontier.pop()
        if g in elements:
            continue
        elements.add(g)
        frontier.append(_perm_compose(rot, g))
        frontier.append(_perm_compose(ref, g))
    elements = sorted(elements)
    return _group_from_elements(
        f"D{n}", elements, _perm_compose, _perm_invert, tuple(range(n))
    )


def symmetric_group(n):
    if not 1 <= n <= 4:
        raise InvalidParameters("symmetric group supported for n <= 4")
    elements = sorted(itertools.permutations(range(n)))
    return _group_from_elements(
        f"S{n}", elements, _perm_compose, _perm_invert, tuple(range(n))
    )


def zk_module(k, copies=1):
    """(Z_k)^copies in additive signature."""
    if k < 1 or copies < 0:
        raise InvalidParameters("zk_module needs k >= 1, copies >= 0")
    n = k ** copies
    idx = np.arange(n)
    digits = []
    rest = idx.copy()
    for _ in range(copies):
        digits.append(rest % k)
        rest = rest // k
    add = np.zeros((n, n), dtype=np.int64)
    neg = np.zeros(n, dtype=np.int64)
    weight = 1
    for d in digits:
        add += ((d[:, None] + d[None, :]) % k) * weight
        neg += ((-d) % k) * weight
        weight *= k
    name = f"Z{k}" if copies == 1 else f"Z{k}^{copies}"
    return make_algebra(
        name, MODULE_SIG,
        {"add": add, "neg": neg, "zero": np.asarray([0])},
        MODULE_TERM,
    )


def product_group(a, b):
    alg, _ = limits.product(f"{a.name}x{b.name}", [a, b])
    check_tables(alg)
    check_maltsev(alg)
    return alg


def terminal_algebra(signature, term):
    """One-element algebra of the signature."""
    tables = {opname: np.zeros((1,) * max(arity, 1), dtype=np.int64)
              for opname, arity in signature.ops}
    return make_algebra("terminal", signature, tables, term)


# -- Heyting algebras from posets ------------------------------------------

def _poset_grid(rows, cols):
    """The product order on a rows x cols grid, numbered row by row; a
    negative size gives the empty matrix, which heyting_from_poset rejects."""
    r, c = np.divmod(np.arange(rows * cols if min(rows, cols) > 0 else 0),
                     max(cols, 1))
    return (r[:, None] <= r) & (c[:, None] <= c)


def _require_partial_order(leq):
    """Raise InvalidParameters naming the first law of a partial order
    that the boolean matrix leq breaks, and its first failing entry."""
    loose = np.flatnonzero(~leq.diagonal())
    if len(loose):
        i = loose[0]
        raise InvalidParameters(f"poset is not reflexive: entry ({i},{i}) is 0")
    two_way = np.argwhere(leq & leq.T & ~np.eye(len(leq), dtype=bool))
    if len(two_way):
        i, j = two_way[0]
        raise InvalidParameters(
            f"poset is not antisymmetric: entries ({i},{j}) and ({j},{i}) "
            f"are 1")
    gaps = np.argwhere(~leq & (leq.astype(np.int64) @ leq > 0))
    if len(gaps):
        i, j = gaps[0]
        k = np.flatnonzero(leq[i] & leq[:, j])[0]
        raise InvalidParameters(
            f"poset is not transitive: entries ({i},{k}) and ({k},{j}) are "
            f"1, ({i},{j}) is 0")


def heyting_from_poset(poset):
    """Heyting algebra on a finite lattice given by its order relation.

    poset: {"kind": "chain", "n": k} or {"kind": "grid", "rows": a,
    "cols": b}, or an explicit boolean order matrix.
    """
    if isinstance(poset, dict):
        if poset.get("kind") == "chain":
            leq_mat = _poset_grid(1, _int_param(poset, "n"))
            name = f"H-chain{poset['n']}"
        elif poset.get("kind") == "grid":
            leq_mat = _poset_grid(
                _int_param(poset, "rows"), _int_param(poset, "cols")
            )
            name = f"H-grid{poset['rows']}x{poset['cols']}"
        else:
            raise InvalidParameters(f"unknown poset kind {poset.get('kind')!r}")
    else:
        try:
            leq_mat = np.asarray(poset)
        except ValueError:
            leq_mat = np.zeros(0)
        name = None
    n = len(leq_mat) if leq_mat.ndim else 0
    if (n == 0 or leq_mat.shape != (n, n) or leq_mat.dtype.kind not in "biu"
            or not np.isin(leq_mat, (0, 1)).all()):
        raise InvalidParameters(
            "poset must be a chain or grid kind, or a square, non-empty "
            "0/1 order matrix"
        )
    leq_mat = leq_mat.astype(bool)
    _require_partial_order(leq_mat)
    name = name or f"H-poset{n}"

    def glb(i, j):
        lower = [z for z in range(n) if leq_mat[z, i] and leq_mat[z, j]]
        tops = [z for z in lower if all(leq_mat[w, z] for w in lower)]
        if len(tops) != 1:
            raise UnsupportedVariety("poset is not a lattice (meet missing)")
        return tops[0]

    def lub(i, j):
        upper = [z for z in range(n) if leq_mat[i, z] and leq_mat[j, z]]
        bots = [z for z in upper if all(leq_mat[z, w] for w in upper)]
        if len(bots) != 1:
            raise UnsupportedVariety("poset is not a lattice (join missing)")
        return bots[0]

    meet_t = np.zeros((n, n), dtype=np.int64)
    join_t = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            meet_t[i, j] = glb(i, j)
            join_t[i, j] = lub(i, j)
    # the meet and the join of all elements: a finite lattice has both
    bots = [z for z in range(n) if all(leq_mat[z, w] for w in range(n))]
    tops = [z for z in range(n) if all(leq_mat[w, z] for w in range(n))]
    imp_t = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            cands = [z for z in range(n) if leq_mat[meet_t[i, z], j]]
            # the set of candidates needs a greatest element, else not Heyting
            best = [z for z in cands if all(leq_mat[w, z] for w in cands)]
            if len(best) != 1:
                raise UnsupportedVariety("poset has no relative pseudocomplement")
            imp_t[i, j] = best[0]
    return make_algebra(
        name,
        HEYTING_SIG,
        {
            "meet": meet_t,
            "join": join_t,
            "imp": imp_t,
            "bot": np.asarray(bots),
            "top": np.asarray(tops),
        },
        HEYTING_TERM,
    )


# -- internal groupoids ----------------------------------------------------

def congruence_groupoid(alg, theta, name=None):
    """Groupoid whose arrows are the related pairs of a congruence.

    An arrow (a, b) runs from a to b, so d1 picks the first component
    and d0 the second; composition pastes (a, b) then (b, c) to (a, c).
    """
    arrows, (d1, d0) = limits.subproduct_algebra(
        name or f"{alg.name}-cong-arrows", [alg, alg], theta.pairs()
    )
    s0 = limits.tuple_map(alg, arrows, [np.arange(alg.size)] * 2)
    return maltsev_groupoid(alg, arrows, d0, d1, s0)


def pair_groupoid(alg):
    return congruence_groupoid(alg, cg.full(alg), name=f"{alg.name}-pairs")


def discrete_groupoid(alg):
    return congruence_groupoid(alg, cg.diagonal(alg), name=f"{alg.name}-disc")


def _check_group(grp):
    if not _is_group(grp):
        raise UnsupportedVariety(f"{grp.name} is not in the group signature")


def is_abelian_group(grp):
    _check_group(grp)
    mul = grp.table("mul")
    return bool(np.array_equal(mul, mul.T))


def one_object_groupoid(grp):
    """A group as a groupoid over a one-point object algebra.

    Composition is group multiplication, which is only a homomorphism
    on composable pairs when the group is abelian.
    """
    if not is_abelian_group(grp):
        raise UnsupportedVariety(
            f"{grp.name} is not abelian; its delooping is not internal"
        )
    obj = terminal_algebra(grp.signature, GROUP_TERM)
    bang = Homomorphism(grp, obj, np.zeros(grp.size, dtype=np.int64), check=False)
    e_idx = int(grp.table("e")[0])
    s0 = Homomorphism(obj, grp, np.array([e_idx]), check=False)
    return maltsev_groupoid(obj, grp, bang, bang, s0)


def bundle_groupoid(fiber, base):
    """Disjoint bundle of abelian isotropy groups over a discrete base.

    Arrows are pairs (t, g) looping at the object g; composition adds
    the fiber components.
    """
    if not is_abelian_group(fiber):
        raise UnsupportedVariety("bundle isotropy must be abelian")
    arrows, projections = limits.product(
        f"({fiber.name}|{base.name})", [fiber, base]
    )
    pi_base = projections[1]
    e_f = int(fiber.table("e")[0])
    s0 = limits.tuple_map(
        base, arrows, [np.full(base.size, e_f), np.arange(base.size)]
    )
    return maltsev_groupoid(base, arrows, pi_base, pi_base, s0)


def inner_coset_groupoid(grp, subgroup):
    """Groupoid of a normal subgroup acting on the whole group.

    Arrows are pairs (t, g) with t in the subgroup, running from g to
    t*g; they form the semidirect product under conjugation.
    """
    _check_group(grp)
    n = grp.size
    sub = np.sort(int_array(subgroup, "subgroup"))
    if len(cg.distinct(sub)) != len(sub):
        raise InvalidParameters("subgroup lists an element twice")
    mul = grp.table("mul").astype(np.int64)
    inv = grp.table("inv").astype(np.int64)
    e_idx = int(grp.table("e")[0])
    # pos[t] is the index of t in sub, or -1 outside it
    pos = np.full(n, -1, dtype=np.int64)
    pos[sub] = np.arange(len(sub))
    if pos[e_idx] < 0:
        raise InvalidParameters("subgroup must contain the identity")
    if (pos[inv[sub]] < 0).any():
        raise InvalidParameters("subgroup not closed under inverse")
    if (pos[mul[np.ix_(sub, sub)]] < 0).any():
        raise InvalidParameters("subgroup not closed under product")
    if (pos[mul[mul[:, sub], inv[:, None]]] < 0).any():
        raise InvalidParameters("subgroup is not normal")
    # the arrow (t, g) is coded pos[t] * n + g
    tpos, g = np.divmod(np.arange(len(sub) * n), n)
    t = sub[tpos]
    conj = mul[mul[g[:, None], t[None, :]], inv[g][:, None]]
    arrows = make_algebra(
        f"{grp.name}-coset-arrows",
        GROUP_SIG,
        {"mul": pos[mul[t[:, None], conj]] * n + mul[g[:, None], g[None, :]],
         "inv": pos[mul[mul[inv[g], inv[t]], g]] * n + inv[g],
         "e": np.array([pos[e_idx] * n + e_idx])},
        GROUP_TERM,
    )
    d0 = Homomorphism(arrows, grp, mul[t, g], check=True)
    d1 = Homomorphism(arrows, grp, g, check=True)
    s0 = Homomorphism(grp, arrows, pos[e_idx] * n + np.arange(n), check=True)
    return maltsev_groupoid(grp, arrows, d0, d1, s0)


# -- reflexive graphs and their simplicial objects -------------------------

def graph_object(X0, X1, d0, d1, s0, name="graph"):
    """A reflexive graph packaged as a truncation-1 simplicial object."""
    obj = TruncatedSimplicialAlgebra(
        [X0, X1], [[], [d0, d1]], [[s0], []], name=name
    )
    return validate_simplicial(obj)


def loops_graph(base, fiber):
    """Every edge is a loop: X1 = base x fiber with both faces the base
    projection."""
    return _product_graph(base, fiber, None,
                          f"loops({base.name},{fiber.name})")


def translation_graph(base, fiber, delta):
    """Edges (a, b) from a to a + delta(b) over a commutative base."""
    if len(delta) != fiber.size:
        raise InvalidParameters(
            "delta must list one base step per fiber element"
        )
    if any(not 0 <= d < base.size for d in delta):
        raise InvalidParameters(f"delta must list elements of {base.name}")
    return _product_graph(base, fiber, np.asarray(delta),
                          f"transl({base.name},{fiber.name})")


def _product_graph(base, fiber, delta, name):
    """The reflexive graph on X1 = base x fiber with d0 the base
    projection, d1 (a, b) = a + delta(b), or d1 = d0 when delta is None,
    and s0 a = (a, e)."""
    e_f = _neutral_index(fiber)
    X1, (pi, _) = limits.product(f"{base.name}*{fiber.name}", [base, fiber])
    d1 = pi
    if delta is not None:
        plus = "add" if "add" in dict(base.signature.ops) else "mul"
        a, b = X1.carrier.rows.T
        d1 = Homomorphism(X1, base, base.table(plus)[a, delta[b]], check=True)
    s0 = limits.tuple_map(
        base, X1, [np.arange(base.size), np.full(base.size, e_f)]
    )
    return graph_object(base, X1, pi, d1, s0, name=name)


def _neutral_index(alg):
    ops = dict(alg.signature.ops)
    for cname in ("e", "zero"):
        if cname in ops and ops[cname] == 0:
            return int(alg.table(cname)[0])
    raise UnsupportedVariety("no neutral constant in signature")


def sk1_two_truncation(graph):
    """Degenerate 2-simplices freely added to a reflexive module graph.

    Level 2 is (X1 + X1) / (s0 a, -s0 a); the two degeneracies are the
    coprojections.  Only available over the module signature, where sums
    of levels exist.
    """
    X0, X1 = graph.levels[0], graph.levels[1]
    names = [op for op, _ in X1.signature.ops]
    if sorted(names) != ["add", "neg", "zero"]:
        raise UnsupportedVariety("level sums need the module signature")
    d0m = graph.faces[1][0].map
    d1m = graph.faces[1][1].map
    s0m = graph.degeneracies[0][0].map
    add_t = X1.table("add")
    neg_t = X1.table("neg")
    zero = int(X1.table("zero")[0])
    P, _ = limits.product(f"{X1.name}+{X1.name}", [X1, X1])
    degenerate = P.carrier.index_of(np.stack([s0m, neg_t[s0m]], axis=1))
    origin = P.carrier.index_of([zero, zero])
    theta = cg.congruence_generated(
        P, np.stack([degenerate, np.full_like(degenerate, origin)], axis=1)
    )
    X2, proj2 = cg.quotient(P, theta)
    reps = theta.reps()
    R = P.carrier.rows[reps]
    u, v = R[:, 0], R[:, 1]
    faces2 = [
        Homomorphism(X2, X1, add_t[u, s0m[d0m[v]]], check=False),
        Homomorphism(X2, X1, add_t[u, v], check=False),
        Homomorphism(X2, X1, add_t[s0m[d1m[u]], v], check=False),
    ]
    all_u = np.arange(X1.size)
    zeros = np.full(X1.size, zero)
    s0_2 = Homomorphism(
        X1, X2, proj2.map[limits.tuple_map(X1, P, [all_u, zeros]).map],
        check=False,
    )
    s1_2 = Homomorphism(
        X1, X2, proj2.map[limits.tuple_map(X1, P, [zeros, all_u]).map],
        check=False,
    )
    obj = TruncatedSimplicialAlgebra(
        [X0, X1, X2],
        [[], list(graph.faces[1]), faces2],
        [[graph.degeneracies[0][0]], [s0_2, s1_2], []],
        name=f"sk1({graph.name})",
    )
    return validate_simplicial(obj, check_homs=True)


# -- nerves and extensions -------------------------------------------------

def congruence_nerve(alg, theta, M):
    return nerve(
        congruence_groupoid(alg, theta), M,
        name=f"N({alg.name},{theta.class_count()}cl)",
    )


def groupoid_functor_nerve_map(GX, GY, f0, f1, M, name=None, target=None):
    """Nerve of a functor given by its object and arrow components.

    A prebuilt nerve of the codomain groupoid may be passed as target so
    several morphisms can share one codomain instance.
    """
    X = nerve(GX, M)
    Y = target if target is not None else nerve(GY, M)
    out = nerve_map(X, Y, f0, f1)
    out.name = name or f"{X.name}->{Y.name}"
    return out


def congruence_nerve_extension(alg, theta, psi, M):
    """Collapse a congruence nerve along a second congruence."""
    B, q = cg.quotient(alg, psi)
    phi = cg.image(q, cg.join(theta, psi))
    GX = congruence_groupoid(alg, theta)
    GY = congruence_groupoid(B, phi)
    f1 = _pairs_map(GX, GY, q.map)
    return groupoid_functor_nerve_map(GX, GY, q, f1, M)


def _pairs_map(GX, GY, h):
    """The arrow map into the congruence groupoid GY sending each arrow
    of GX to the pair of h at its source and at its target."""
    return limits.tuple_map(
        GX.arrows, GY.arrows, [h[GX.d1.map], h[GX.d0.map]]
    )


def delooping_extension(hom, M):
    """Nerve of a surjective homomorphism between abelian groups."""
    GX = one_object_groupoid(hom.dom)
    GY = one_object_groupoid(hom.cod)
    f0 = Homomorphism(GX.objects, GY.objects, np.zeros(1, dtype=np.int64),
                      check=False)
    return groupoid_functor_nerve_map(GX, GY, f0, hom, M)


def bundle_collapse_extension(fiber, base, M):
    """Forget the isotropy of a bundle groupoid onto the discrete base."""
    GX = bundle_groupoid(fiber, base)
    GY = discrete_groupoid(base)
    f1 = _pairs_map(GX, GY, np.arange(base.size))
    return groupoid_functor_nerve_map(GX, GY, identity_hom(base), f1, M)


def coset_sign_extension(grp, M):
    """The sign of a permutation group as a functor from the coset
    groupoid of its even permutations onto the discrete groupoid of C2."""
    coset = inner_coset_groupoid(grp, alternating_indices(grp))
    sign = sign_homomorphism(grp)
    disc = discrete_groupoid(sign.cod)
    f1 = Homomorphism(
        coset.arrows, disc.arrows, sign.map[coset.d1.map], check=False
    )
    return groupoid_functor_nerve_map(coset, disc, sign, f1, M)


def augmentation_extension(X, q):
    """Map a simplicial object onto a constant one along an augmentation
    q: X_0 -> A with q d0 = q d1."""
    N = X.truncation
    C = constant_simplicial(q.cod, N)
    comps = [q]
    for n in range(1, N + 1):
        comps.append(
            Homomorphism(
                X.levels[n], q.cod,
                comps[0].map[_iterated_last_face(X, n)], check=False,
            )
        )
    out = SimplicialMorphism(X, C, comps, check=True)
    out.name = f"{X.name}->const"
    return out


def _iterated_last_face(X, n):
    vertex = np.arange(X.levels[n].size)
    for m in range(n, 0, -1):
        vertex = X.faces[m][m].map[vertex]
    return vertex


# -- named lookup and generation specs -------------------------------------

def _perm_parity(perm):
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return inv % 2


def alternating_indices(sym):
    """Indices of the even permutations of a permutation group (S_n, D_n),
    read off the permutation list its generator keeps."""
    perms = getattr(sym, "elements", None)
    if perms is None:
        raise InvalidParameters(f"{sym.name} is not a permutation group")
    return [i for i, p in enumerate(perms) if _perm_parity(p) == 0]


def sign_homomorphism(sym):
    c2 = cyclic_group(2)
    parity = np.array([_perm_parity(p) for p in sym.elements], dtype=np.int64)
    return Homomorphism(sym, c2, parity, check=True)


def named_algebra(name):
    import re

    if not isinstance(name, str):
        raise InvalidParameters(f"algebra name {name!r} is not a string")
    if m := re.fullmatch(r"C(\d+)xC(\d+)", name):
        return product_group(
            cyclic_group(int(m.group(1))), cyclic_group(int(m.group(2)))
        )
    if m := re.fullmatch(r"C(\d+)", name):
        return cyclic_group(int(m.group(1)))
    if m := re.fullmatch(r"D(\d+)", name):
        return dihedral_group(int(m.group(1)))
    if m := re.fullmatch(r"S(\d+)", name):
        return symmetric_group(int(m.group(1)))
    if m := re.fullmatch(r"Z(\d+)\^(\d+)", name):
        return zk_module(int(m.group(1)), int(m.group(2)))
    if m := re.fullmatch(r"Z(\d+)", name):
        return zk_module(int(m.group(1)))
    if m := re.fullmatch(r"chain(\d+)", name):
        return heyting_from_poset({"kind": "chain", "n": int(m.group(1))})
    if m := re.fullmatch(r"grid(\d+)x(\d+)", name):
        return heyting_from_poset(
            {"kind": "grid", "rows": int(m.group(1)), "cols": int(m.group(2))}
        )
    raise InvalidParameters(f"unknown algebra name {name!r}")


def spec_from_params(kind, params):
    """The generator spec of `simal gen KIND KEY=VALUE...`: each value is
    read as JSON when it parses, else kept as a string."""
    spec = {"kind": kind}
    for item in params:
        if "=" not in item:
            raise InvalidParameters(f"parameter {item!r} is not KEY=VALUE")
        key, raw = item.split("=", 1)
        try:
            spec[key] = json.loads(raw)
        except json.JSONDecodeError:
            spec[key] = raw
    return spec


def _field(spec, key, default=None):
    """spec[key], or the default when it is absent; a missing required
    field raises InvalidParameters."""
    if key not in spec and default is None:
        raise InvalidParameters(f"generator spec needs a {key!r} field")
    return spec.get(key, default)


def _shared(memo, raw, build):
    """build(raw), made once per canonical JSON of raw within one build,
    so that a spec, an algebra name or a product met twice yields one
    instance; raw that is not plain JSON data, such as a numpy integer,
    is not shared."""
    try:
        key = json.dumps(raw, sort_keys=True)
    except TypeError:
        return build(raw)
    if key not in memo:
        memo[key] = build(raw)
    return memo[key]


def _int_params(spec, key, default=None):
    """spec[key], or the default when it is absent, as an int64 array; a
    missing required field or a non-integer entry raises InvalidParameters."""
    return int_array(_field(spec, key, default), f"parameter {key!r}")


def _int_param(spec, key, default=None):
    """spec[key], or the default when it is absent, as one Python int."""
    return int_scalar(_field(spec, key, default), f"parameter {key!r}")


def _elements(spec, key, alg, what, pairs=False):
    """spec[key] as elements of alg: a flat int64 array, or with pairs=True
    a (k, 2) one; a wrong shape or an entry outside alg raises
    InvalidParameters."""
    arr = _int_params(spec, key)
    shape_ok = arr.ndim == 2 and arr.shape[1] == 2 if pairs else arr.ndim == 1
    if arr.size and (not shape_ok or arr.min() < 0 or arr.max() >= alg.size):
        kind = "be pairs of" if pairs else "list"
        raise InvalidParameters(f"{what} must {kind} elements of {alg.name}")
    return arr.reshape(-1, 2) if pairs else arr.reshape(-1)


def _generated(spec, key, alg):
    """The congruence of alg generated by the pairs spec[key]."""
    return cg.congruence_generated(
        alg, _elements(spec, key, alg, key, pairs=True)
    )


def _level_seeds(X, raw):
    """The seeds {level: pairs} of a quotient_extension spec; levels may
    be given as strings, since JSON object keys are strings."""
    if not isinstance(raw, dict):
        raise InvalidParameters("parameter 'pairs' must map levels to pairs")
    seeds = {}
    for key in raw:
        text = str(key)
        if not (text.isascii() and text.isdigit()) or int(text) > X.truncation:
            raise InvalidParameters(
                f"pairs level {key!r} is not a level of {X.name} "
                f"(0..{X.truncation})"
            )
        level = int(text)
        seeds[level] = _elements(
            raw, key, X.levels[level], f"pairs at level {level}", pairs=True
        )
    return seeds


def generate(spec):
    """Build an artifact from a JSON description.

    Returns an algebra, a simplicial object, or a simplicial morphism
    depending on the kind. Identical spec and seed give identical output.
    """
    return _generate(spec, {})


def _generate(spec, memo):
    """generate(spec) within the build whose instances memo holds."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidParameters("generator spec needs a 'kind' field")
    return _shared(memo, spec, lambda raw: _build(raw, memo))


def _build(spec, memo):
    kind = spec["kind"]
    M = _int_param(spec, "truncation", 2)

    def named(key):
        """The algebra named by the required field spec[key]."""
        return _shared(memo, _field(spec, key), named_algebra)

    def simplicial(key):
        """The simplicial object generated from the required field
        spec[key]; any other artifact raises InvalidParameters."""
        X = _generate(_field(spec, key), memo)
        if not isinstance(X, TruncatedSimplicialAlgebra):
            raise InvalidParameters(
                f"parameter {key!r} must give a simplicial object"
            )
        return X

    if kind == "cyclic_group":
        return cyclic_group(_int_param(spec, "n"))
    if kind == "dihedral_group":
        return dihedral_group(_int_param(spec, "n"))
    if kind == "symmetric_group_3":
        return symmetric_group(3)
    if kind == "zk_module":
        return zk_module(_int_param(spec, "k"), _int_param(spec, "copies", 1))
    if kind == "heyting_from_poset":
        return heyting_from_poset(_field(spec, "poset"))

    if kind in ("pair", "pair_groupoid"):
        return nerve(pair_groupoid(named("algebra")), M)
    if kind in ("discrete", "discrete_groupoid"):
        return nerve(discrete_groupoid(named("algebra")), M)
    if kind == "delooping":
        return nerve(one_object_groupoid(named("algebra")), M)
    if kind == "bundle":
        return nerve(bundle_groupoid(named("fiber"), named("base")), M)
    if kind in ("congruence", "congruence_nerve"):
        alg = named("algebra")
        return congruence_nerve(alg, _generated(spec, "generators", alg), M)
    if kind == "random_congruence":
        alg = named("algebra")
        rng = SplitMix(_int_param(spec, "seed", 0))
        a = rng.randrange(alg.size)
        b = rng.randrange(alg.size)
        theta = cg.congruence_generated(alg, [(a, b)])
        return congruence_nerve(alg, theta, M)
    if kind in ("coset", "crossed_module_groupoid"):
        grp = named("group")
        if spec.get("subgroup") is None:
            sub = alternating_indices(grp)
        else:
            sub = _elements(spec, "subgroup", grp, "subgroup")
        return nerve(inner_coset_groupoid(grp, sub), M)
    if kind == "sk1_loops":
        return sk1_two_truncation(loops_graph(named("base"), named("fiber")))
    if kind == "sk1_translation":
        base, fiber = named("base"), named("fiber")
        return sk1_two_truncation(translation_graph(
            base, fiber, _elements(spec, "delta", base, "delta")
        ))
    if kind in ("cosk_loops", "coskeleton_of_graph"):
        return coskeleton(loops_graph(named("base"), named("fiber")), M)

    if kind == "decalage_of":
        return decalage(simplicial("of"))[0]
    if kind == "decalage_counit":
        return decalage(simplicial("of"))[1]
    if kind == "quotient_extension":
        X = simplicial("of")
        seeds = _level_seeds(X, spec.get("pairs"))
        parts = simplicial_congruence_generated(X, seeds)
        return quotient_simplicial(X, parts)[1]
    if kind == "product_projection":
        X, Y = simplicial("left"), simplicial("right")
        side = _field(spec, "side", "left")
        if side not in ("left", "right"):
            raise InvalidParameters("parameter 'side' must be left or right")
        # both projections of one product come from one instance of it
        product = _shared(
            memo, ["product", spec["left"], spec["right"]],
            lambda _: simplicial_product(X, Y),
        )
        return product[1 if side == "left" else 2]
    if kind == "augmentation":
        X = simplicial("of")
        return augmentation_extension(X, identity_hom(X.levels[0]))
    if kind == "pi1_unit":
        return pi1(simplicial("of")).unit
    if kind == "congruence_extension":
        alg = named("algebra")
        return congruence_nerve_extension(
            alg, _generated(spec, "theta", alg), _generated(spec, "psi", alg), M
        )
    if kind == "delooping_extension":
        dom, cod = named("dom"), named("cod")
        hom = Homomorphism(dom, cod, _elements(spec, "map", cod, "map"))
        return delooping_extension(hom, M)
    if kind == "bundle_collapse":
        return bundle_collapse_extension(named("fiber"), named("base"), M)
    if kind == "coset_sign":
        return coset_sign_extension(named("group"), M)
    raise InvalidParameters(f"unknown generator kind {kind!r}")


# -- the default corpus ----------------------------------------------------

# One member per line: `name profile kind KEY=VALUE...`, where kind and
# the parameters are the arguments of `simal gen` for that member.  A
# nested spec equal to an earlier row's spec reads that row's instance,
# so augment-*, quotient-*, unit-* and dec-counit-* extend the named
# objects.  quotient-cosk-fibers glues the two loops at a base point: its
# kernel sits inside the loop congruence, so it is central, not trivial.
CORPUS = tuple("""\
pair-C2-t3 desk pair algebra=C2 truncation=3
pair-C4-t3 desk pair algebra=C4 truncation=3
disc-C4-t3 desk discrete algebra=C4 truncation=3
B-C4-t3 desk delooping algebra=C4 truncation=3
B-V4-t3 desk delooping algebra=C2xC2 truncation=3
bundle-C2-C3-t3 desk bundle fiber=C2 base=C3 truncation=3
cong-Z6-t3 desk congruence algebra=C6 generators=[[0,3]] truncation=3
coset-S3-t2 desk coset group=S3
sk1-loops-Z2 desk sk1_loops base=Z2 fiber=Z2
sk1-transl-Z4 desk sk1_translation base=Z4 fiber=Z2 delta=[0,2]
cosk-loops-C2-t3 desk cosk_loops base=C2 fiber=C2 truncation=3
pair-S3-t3 deep pair algebra=S3 truncation=3
pair-D4-t2 deep pair algebra=D4
B-C6-t3 deep delooping algebra=C6 truncation=3
bundle-V4-C4-t2 deep bundle fiber=C2xC2 base=C4
cosk-loops-C4-t3 deep cosk_loops base=C4 fiber=C2 truncation=3
sk1-loops-Z3 deep sk1_loops base=Z3 fiber=Z3
pairC4-pairC2 desk congruence_extension algebra=C4 theta=[[0,1]] psi=[[0,2]]
congC4-discC2 desk congruence_extension algebra=C4 theta=[[0,2]] psi=[[0,2]]
discC4-discC2 desk congruence_extension algebra=C4 theta=[] psi=[[0,2]]
congZ6-mix desk congruence_extension algebra=C6 theta=[[0,3]] psi=[[0,2]]
pairZ6-pairC3 desk congruence_extension algebra=C6 theta=[[0,1]] psi=[[0,3]]
pairS3-pairC2 desk congruence_extension algebra=S3 theta=[[0,1],[0,3]] psi=[[0,3],[0,4]]
congS3-discC2 desk congruence_extension algebra=S3 theta=[[0,3],[0,4]] psi=[[0,3],[0,4]]
pairZ22-pairZ2 desk congruence_extension algebra=Z2^2 theta=[[0,1],[0,2]] psi=[[0,1]]
pairD4-center desk congruence_extension algebra=D4 theta=[[0,1],[0,2]] psi=[[0,5]]
heyting-chain3 desk congruence_extension algebra=chain3 theta=[[0,2]] psi=[[0,1]]
deloop-C4-C2 desk delooping_extension dom=C4 cod=C2 map=[0,1,0,1] truncation=3
deloop-V4-C2 desk delooping_extension dom=C2xC2 cod=C2 map=[0,0,1,1] truncation=3
deloop-C6-C3 desk delooping_extension dom=C6 cod=C3 map=[0,1,2,0,1,2] truncation=3
deloop-C6-C2 desk delooping_extension dom=C6 cod=C2 map=[0,1,0,1,0,1] truncation=3
deloop-C4-id desk delooping_extension dom=C4 cod=C4 map=[0,1,2,3] truncation=3
bundle-C2-C3-collapse desk bundle_collapse fiber=C2 base=C3 truncation=3
bundle-C2-S3-collapse desk bundle_collapse fiber=C2 base=S3
bundle-V4-C2-collapse desk bundle_collapse fiber=C2xC2 base=C2 truncation=3
product-proj-left desk product_projection left={"kind":"pair","algebra":"C2"} right={"kind":"delooping","algebra":"C4"}
product-proj-right desk product_projection left={"kind":"pair","algebra":"C2"} right={"kind":"delooping","algebra":"C4"} side=right
dec-counit-pairC4 desk decalage_counit of={"kind":"pair","algebra":"C4","truncation":3}
dec-counit-B-C4 desk decalage_counit of={"kind":"delooping","algebra":"C4","truncation":3}
augment-cosk-loops desk augmentation of={"kind":"cosk_loops","base":"C2","fiber":"C2","truncation":3}
augment-sk1-loops desk augmentation of={"kind":"sk1_loops","base":"Z2","fiber":"Z2"}
quotient-sk1-transl desk quotient_extension of={"kind":"sk1_translation","base":"Z4","fiber":"Z2","delta":[0,2]} pairs={"1":[[0,4]]}
quotient-cosk-fibers desk quotient_extension of={"kind":"cosk_loops","base":"C2","fiber":"C2","truncation":3} pairs={"1":[[0,1]]}
coset-disc-C2 desk coset_sign group=S3
unit-pair-C2 desk pi1_unit of={"kind":"pair","algebra":"C2","truncation":3}
unit-bundle-C2-C3 desk pi1_unit of={"kind":"bundle","fiber":"C2","base":"C3"}
unit-sk1-loops desk pi1_unit of={"kind":"sk1_loops","base":"Z2","fiber":"Z2"}
unit-cosk-loops desk pi1_unit of={"kind":"cosk_loops","base":"C2","fiber":"C2"}
unit-coset-S3 desk pi1_unit of={"kind":"coset","group":"S3"}
pairC6-pairC2 deep congruence_extension algebra=C6 theta=[[0,1]] psi=[[0,2]]
pairC6-pairC3-t3 deep congruence_extension algebra=C6 theta=[[0,1]] psi=[[0,3]] truncation=3
pairC4-pairC2-t3 deep congruence_extension algebra=C4 theta=[[0,1]] psi=[[0,2]] truncation=3
deloop-C8-C4 deep delooping_extension dom=C8 cod=C4 map=[0,1,2,3,0,1,2,3] truncation=3
heyting-grid-ext deep congruence_extension algebra=grid2x2 theta=[[0,3]] psi=[[0,1]]
bundle-C3-C4-collapse deep bundle_collapse fiber=C3 base=C4
unit-pair-C4 deep pi1_unit of={"kind":"pair","algebra":"C4"}
unit-bundle-V4-C4 deep pi1_unit of={"kind":"bundle","fiber":"C2xC2","base":"C4"}
""".splitlines())


def default_corpus(profile="desk"):
    """Deterministic collection of simplicial objects and extensions, one
    per CORPUS row read through generate.

    The desk profile stays small enough for an interactive run; deep
    adds larger instances of the same families.
    """
    if profile not in ("desk", "deep"):
        raise InvalidParameters("profile must be desk or deep")
    memo = {}
    algebras = {}
    for name in "C2 C3 C4 C6 Z2 Z4 Z2^2 S3 D4 chain3 C2xC2".split():
        alg = _shared(memo, name, named_algebra)
        algebras[alg.name] = alg
    objects, extensions = [], []
    for line in CORPUS:
        name, row_profile, kind, *params = line.split()
        if profile == "desk" and row_profile != "desk":
            continue
        member = _generate(spec_from_params(kind, params), memo)
        member.name = name
        if isinstance(member, TruncatedSimplicialAlgebra):
            objects.append((name, member))
        elif member.is_levelwise_surjective():
            extensions.append((name, member))
        else:
            raise InvalidParameters(f"corpus extension {name} is not surjective")
    return {
        "profile": profile,
        "algebras": algebras,
        "objects": objects,
        "extensions": extensions,
    }


def probe_kit(alg, inclusion, companion, M=2):
    """A morphism and extensions sharing one pair-groupoid nerve target.

    inclusion: a homomorphism into alg inducing the probed morphism;
    companion: an algebra whose product with alg supplies a collapsing
    extension over the target.
    """
    G = pair_groupoid(alg)
    target = nerve(G, M)

    GW = pair_groupoid(inclusion.dom)
    probed = groupoid_functor_nerve_map(
        GW, G, inclusion, _pairs_map(GW, G, inclusion.map), M,
        name="probed", target=target,
    )

    prod = product_group(alg, companion)
    GZ = pair_groupoid(prod)
    pi0 = Homomorphism(
        prod, alg, prod.carrier.rows[:, 0].copy(), check=True
    )
    collapse = groupoid_functor_nerve_map(
        GZ, G, pi0, _pairs_map(GZ, G, pi0.map), M,
        name="collapse", target=target,
    )

    other = nerve(pair_groupoid(companion), M)
    _, _, proj = simplicial_product(other, target)
    proj.name = "projection"
    return probed, [("collapse", collapse), ("projection", proj)]


def _is_group(alg):
    return [op for op, _ in alg.signature.ops] == ["mul", "inv", "e"]
