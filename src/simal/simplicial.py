"""Truncated simplicial objects over a fixed Mal'tsev signature.

A truncation-N object stores levels X_0..X_N, face maps d_i at each
level 1..N and degeneracies s_i at each level 0..N-1.  All five
simplicial identities are checked by composing the underlying index
arrays; higher constructions (kernels, coskeleta, nerves, decalage)
produce tuple-algebra levels through the fiber-join engine.

Each construction has one builder.  Simplicial kernels and horns are
both tuples of compatible faces, the horn leaving one slot out.  The
Kan and exactness checks only count them: face_tuples enumerates the
tuples and codes the faces of every simplex in TupleCarrier's mixed
radix, sizes and images are read off the codes, and no horn is built
as an algebra; simplicial_kernel builds one level of a coskeleton.  A
morphism into a groupoid nerve is fixed by its components at levels 0
and 1, since the nerve is right adjoint to the reflection, and
nerve_map reads every higher component off the spine edges.

One walk, _structure_maps, visits every face and then every degeneracy
with its endpoints and its name d_i or s_i.  Validation, the morphism
check, the closure and the JSON writer go through it, and so does
transport, the one rebuild: it carries each structure map over to
new levels by a per-map move, for quotients, images, products and
pullbacks alike.

Face conventions: d1 is the source and d0 the target of a 1-simplex,
matching the nerve of a groupoid where composition g after f requires
d1(g) = d0(f).

One closure serves every level of a simplicial congruence at once: the
faces and degeneracies are unary operations between the levels of one
multi-sorted algebra, closed by the translation worklist of
congruences.close.
"""

import numpy as np

from .config import resolve_budget
from .errors import (
    IdentityViolated,
    InvalidParameters,
    PreconditionUnmet,
    PropertyViolation,
)
from .algebra import Homomorphism, check_homomorphism, identity_hom
from . import congruences as cg
from .limits import (
    compatible_tuples,
    product,
    pullback,
    subproduct_algebra,
    tuple_map,
    tuple_weights,
)


class TruncatedSimplicialAlgebra:
    def __init__(self, levels, faces, degeneracies, name="X"):
        self.levels = list(levels)
        self.faces = [list(fs) for fs in faces]
        self.degeneracies = [list(ds) for ds in degeneracies]
        self.name = name
        # data derived from the structure maps alone, kept by reflection
        self._derived = {}
        n = self.truncation
        if len(self.faces) != n + 1 or len(self.degeneracies) != n + 1:
            raise InvalidParameters(
                "faces and degeneracies must be indexed by every level"
            )

    @property
    def truncation(self):
        return len(self.levels) - 1

    def __repr__(self):
        sizes = ", ".join(str(l.size) for l in self.levels)
        return f"TruncatedSimplicialAlgebra({self.name}, sizes=[{sizes}])"


def validate_simplicial(X, check_homs=False):
    """Check endpoints, arities and all five simplicial identities."""
    N = X.truncation
    sig = X.levels[0].signature
    for lvl in X.levels:
        if lvl.signature != sig:
            raise InvalidParameters("levels have mixed signatures")
    for n in range(1, N + 1):
        if len(X.faces[n]) != n + 1:
            raise InvalidParameters(f"level {n} needs {n + 1} faces")
    for n in range(N):
        if len(X.degeneracies[n]) != n + 1:
            raise InvalidParameters(f"level {n} needs {n + 1} degeneracies")
    if X.degeneracies[N]:
        raise InvalidParameters("top level admits no degeneracies")
    for n, m, name, f in _structure_maps(X):
        if f.dom is not X.levels[n] or f.cod is not X.levels[m]:
            kind = "face" if name[0] == "d" else "degeneracy"
            raise InvalidParameters(f"{kind} {name} at level {n} has wrong endpoints")
    if check_homs:
        check_structure_homs(X)
    d = [[f.map for f in maps] for maps in X.faces]
    for n in range(2, N + 1):
        for j in range(n + 1):
            for i in range(j):
                lhs = d[n - 1][i][d[n][j]]
                rhs = d[n - 1][j - 1][d[n][i]]
                _expect(lhs, rhs, f"d{i} d{j} = d{j - 1} d{i} at level {n}")
    s = [[f.map for f in maps] for maps in X.degeneracies]
    for n in range(N - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                lhs = s[n + 1][i][s[n][j]]
                rhs = s[n + 1][j + 1][s[n][i]]
                _expect(lhs, rhs, f"s{i} s{j} = s{j + 1} s{i} at level {n}")
    for n in range(N):
        ident = np.arange(X.levels[n].size)
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = d[n + 1][i][s[n][j]]
                if i == j or i == j + 1:
                    _expect(lhs, ident, f"d{i} s{j} = 1 at level {n}")
                elif i < j:
                    rhs = s[n - 1][j - 1][d[n][i]]
                    _expect(lhs, rhs, f"d{i} s{j} = s{j - 1} d{i} at level {n}")
                else:
                    rhs = s[n - 1][j][d[n][i - 1]]
                    _expect(lhs, rhs, f"d{i} s{j} = s{j} d{i - 1} at level {n}")
    return X


def check_structure_homs(X):
    """Check that every face and degeneracy of X is a homomorphism."""
    for _, _, _, f in _structure_maps(X):
        check_homomorphism(f)
    return X


def _expect(lhs, rhs, what):
    if lhs.shape == rhs.shape and np.logical_and.reduce(lhs == rhs):
        return
    k = int(np.nonzero(lhs != rhs)[0][0])
    raise IdentityViolated(f"{what} fails at element {k}")


class SimplicialMorphism:
    def __init__(self, dom, cod, components, check=True):
        self.dom = dom
        self.cod = cod
        self.components = list(components)
        if dom.truncation != cod.truncation:
            raise InvalidParameters("truncations differ")
        if len(self.components) != dom.truncation + 1:
            raise InvalidParameters("one component per level required")
        for n, f in enumerate(self.components):
            if f.dom is not dom.levels[n] or f.cod is not cod.levels[n]:
                raise InvalidParameters(f"component {n} has wrong endpoints")
        if check:
            check_simplicial_morphism(self)

    @property
    def derived(self):
        """Results kept on the morphism per resolved budget, by
        kan_fibration_check and galois.classify_extension.  The dict is
        made on first use, so building a morphism allocates none."""
        return self.__dict__.setdefault("_derived", {})

    def is_levelwise_surjective(self):
        return all(f.is_surjective() for f in self.components)

    def __repr__(self):
        return f"SimplicialMorphism({self.dom.name} -> {self.cod.name})"


def check_simplicial_morphism(F):
    comps = F.components
    for (n, m, name, f), (_, _, _, g) in zip(_structure_maps(F.dom),
                                             _structure_maps(F.cod)):
        _expect(comps[m].map[f.map], g.map[comps[n].map],
                f"morphism must commute with {name} at level {n}")
    return F


def truncate(X, M):
    if M > X.truncation or M < 0:
        raise InvalidParameters("truncation level out of range")
    return TruncatedSimplicialAlgebra(
        X.levels[: M + 1],
        X.faces[: M + 1],
        [X.degeneracies[n] if n < M else [] for n in range(M + 1)],
        name=f"tr{M}({X.name})",
    )


def constant_simplicial(alg, N):
    levels = [alg] * (N + 1)
    faces = [[]] + [[identity_hom(alg) for _ in range(n + 1)] for n in range(1, N + 1)]
    degeneracies = [
        [identity_hom(alg) for _ in range(n + 1)] for n in range(N)
    ] + [[]]
    return TruncatedSimplicialAlgebra(
        levels, faces, degeneracies, name=f"const({alg.name})"
    )


# -- kernels and horns -----------------------------------------------------

def _face_equations(X, n, slots):
    """The constraints of compatible_tuples on tuples (x_i)_{i in slots}
    over X_{n-1}: d_i x_j = d_{j-1} x_i for slots i < j.  At n = 1
    nothing lies below X_0, so every tuple is compatible."""
    if n == 1:
        return []
    faces = X.faces[n - 1]
    pos = {i: t for t, i in enumerate(slots)}
    return [(pos[i], faces[j - 1].map, pos[j], faces[i].map)
            for j in slots for i in slots if i < j]


def _face_codes(X, n, slots, cols):
    """The codes, in TupleCarrier's mixed radix, of the tuples over
    X_{n-1} with components cols[t] at the slots.  These and the tuples
    of X_{n-1}'s constants lie in the horn or kernel at the slots, so
    each is checked to be compatible: one that is not raises
    InvalidParameters, as a lookup in that carrier does."""
    lvl = X.levels[n - 1]
    weights = tuple_weights([lvl.size] * len(slots))
    consts = [lvl.op(name) for name, arity in lvl.signature.ops if arity == 0]
    cols = np.concatenate(
        (np.full((len(slots), len(consts)), consts, dtype=np.int64), cols),
        axis=1)
    for s, a, t, b in _face_equations(X, n, slots):
        if not np.array_equal(a[cols[s]], b[cols[t]]):
            raise InvalidParameters("tuple outside the carrier")
    return (weights @ cols)[len(consts):]


def face_tuples(X, n, slots, budget=None):
    """The horn or kernel at the slots, counted instead of built: the
    compatible tuples (x_i)_{i in slots} over X_{n-1}, as rows, and the
    codes of the faces at the slots of each n-simplex (none above the
    truncation)."""
    rows = compatible_tuples([X.levels[n - 1]] * len(slots),
                             _face_equations(X, n, slots), budget=budget)
    top = n > X.truncation
    faces = _face_codes(X, n, slots, [
        np.zeros(0, np.int64) if top else X.faces[n][i].map for i in slots])
    return rows, faces


def simplicial_kernel(X, n, budget=None):
    """Tuples (x_0..x_n) over X_{n-1} with d_i x_j = d_{j-1} x_i for i < j,
    built as a subproduct algebra; returns it with its projections.
    Valid for 1 <= n <= truncation + 1."""
    if n < 1 or n > X.truncation + 1:
        raise PreconditionUnmet(f"simplicial kernel undefined at {n}")
    factors = [X.levels[n - 1]] * (n + 1)
    rows = compatible_tuples(factors, _face_equations(X, n, range(n + 1)),
                             budget=budget)
    return subproduct_algebra(f"K{n}({X.name})", factors, rows)


def horn(X, n, k, budget=None):
    """The (n, k)-horn, tuples (x_i)_{i != k}, counted by face_tuples."""
    return face_tuples(X, n, [i for i in range(n + 1) if i != k], budget)


def exactness_check(X, at_level, budget=None):
    """Whether the comparison into the simplicial kernel one step above
    the given level is surjective."""
    n = at_level + 1
    if n > X.truncation:
        raise PreconditionUnmet(
            f"exactness at level {at_level} needs level {n} data"
        )
    rows, faces = face_tuples(X, n, range(n + 1), budget=budget)
    hit = len(cg.distinct(faces))
    return hit == len(rows), {"kernel_size": len(rows), "image_size": hit}


def kan_check(X, budget=None):
    """Horn-filling at every level and index, one entry per horn (n, k).
    Over a Mal'tsev signature every horn has a filler (Carboni, Kelly and
    Pedicchio), so the first horn (n, k) without one raises
    PropertyViolation."""
    entries = []
    for n in range(2, X.truncation + 1):
        for k in range(n + 1):
            rows, faces = horn(X, n, k, budget=budget)
            image = len(cg.distinct(faces))
            if image != len(rows):
                raise PropertyViolation(
                    f"horn ({n},{k}) of {X.name} has no filler"
                )
            entries.append(
                {
                    "n": n,
                    "k": k,
                    "horn_size": len(rows),
                    "image_size": image,
                    "surjective": True,
                }
            )
    return entries


def kan_fibration_check(F, budget=None):
    """For each horn, compare X_n against the horn-and-simplex pullback.

    Entry (n, k) records the size of Horn_k^n(X) x_{Horn_k^n(Y)} Y_n, the
    size of the image of the comparison, and the resulting flags.  Y's
    horn is never enumerated: a horn tuple of X pairs with each n-simplex
    of Y whose horn is the tuple's image under F, so the pullback size
    sums, over X's horn tuples, how many horns of Y's n-simplices share
    that image's code.  Over a Mal'tsev signature every levelwise
    surjection is a Kan fibration (Carboni, Kelly and Pedicchio), so on
    one the first comparison that is not onto raises PropertyViolation;
    any other morphism just gets its entries.

    The entries are kept on F per resolved budget (F.derived), so a
    repeat at that budget enumerates nothing; a check that raises keeps
    nothing, and every call gets its own copies of the entry dicts.
    """
    key = ("fibration", resolve_budget(budget))
    if key not in F.derived:
        F.derived[key] = _fibration_entries(F, key[1])
    return [dict(e) for e in F.derived[key]]


def _fibration_entries(F, budget):
    X, Y = F.dom, F.cod
    lifts = F.is_levelwise_surjective()
    entries = []
    for n in range(2, X.truncation + 1):
        for k in range(n + 1):
            rows, xfaces = horn(X, n, k, budget=budget)
            slots = [i for i in range(n + 1) if i != k]
            size = Y.levels[n].size
            codes = _face_codes(Y, n, slots, np.concatenate(
                ([Y.faces[n][i].map for i in slots],
                 F.components[n - 1].map[rows.T]), axis=1))
            yfaces, images = np.sort(codes[:size]), codes[size:]
            pb_size = int((yfaces.searchsorted(images, "right")
                           - yfaces.searchsorted(images, "left")).sum())
            # equal face codes share their first place in sorted order
            lam = np.sort(xfaces).searchsorted(xfaces)
            image = len(cg.distinct(lam * size + F.components[n].map))
            if lifts and image != pb_size:
                raise PropertyViolation(
                    f"levelwise surjection fails horn lifting at ({n},{k})"
                )
            entries.append(
                {
                    "n": n,
                    "k": k,
                    "pullback_size": pb_size,
                    "image_size": image,
                    "level_size": X.levels[n].size,
                    "surjective": bool(image == pb_size),
                    "injective": bool(image == X.levels[n].size),
                    "bijective": bool(
                        image == pb_size and image == X.levels[n].size
                    ),
                }
            )
    return entries


# -- decalage and coskeleton ----------------------------------------------

def decalage(X):
    """Shift away level 0; the counit collects the dropped last faces."""
    N = X.truncation
    if N < 1:
        raise PreconditionUnmet("decalage needs truncation >= 1")
    levels = X.levels[1:]
    faces = [[]]
    degeneracies = []
    for n in range(1, N):
        faces.append(X.faces[n + 1][: n + 1])
        degeneracies.append(X.degeneracies[n][: n])
    degeneracies.append([])
    dec = TruncatedSimplicialAlgebra(
        levels, faces, degeneracies, name=f"Dec({X.name})"
    )
    validate_simplicial(dec)
    target = truncate(X, N - 1)
    eps = SimplicialMorphism(
        dec, target, [X.faces[n + 1][n + 1] for n in range(N)], check=True
    )
    return dec, eps


def coskeleton(X, M, budget=None):
    """Extend by simplicial kernels up to truncation M, which may not be
    below X's truncation."""
    if X.truncation < 1:
        raise PreconditionUnmet("coskeleton extension needs truncation >= 1")
    if M < X.truncation:
        raise InvalidParameters(
            f"coskeleton truncation {M} is below the truncation "
            f"{X.truncation} of {X.name}"
        )
    current = TruncatedSimplicialAlgebra(X.levels, X.faces, X.degeneracies,
                                         name=X.name)
    for n in range(X.truncation + 1, M + 1):
        alg, projections = simplicial_kernel(current, n, budget=budget)
        lower = current.levels[n - 1]
        new_degs = []
        for i in range(n):
            cols = []
            for j in range(n + 1):
                if j < i:
                    cols.append(
                        current.degeneracies[n - 2][i - 1].map[
                            current.faces[n - 1][j].map
                        ]
                    )
                elif j in (i, i + 1):
                    cols.append(np.arange(lower.size))
                else:
                    cols.append(
                        current.degeneracies[n - 2][i].map[
                            current.faces[n - 1][j - 1].map
                        ]
                    )
            new_degs.append(tuple_map(lower, alg, cols))
        current = TruncatedSimplicialAlgebra(
            current.levels + [alg], current.faces + [projections],
            current.degeneracies[:-1] + [new_degs, []],
            name=f"cosk{n}({X.name})",
        )
        validate_simplicial(current)
    current.name = f"cosk({X.name},{M})"
    return current


# -- nerves ----------------------------------------------------------------

def nerve(G, M, budget=None, name=None):
    """Nerve of an internal groupoid, truncated at M >= 1.

    An n-simplex is a composable path (a_1..a_n) with d0 a_t = d1 a_{t+1},
    stored as the tuple of its spine edges."""
    if M < 1:
        raise InvalidParameters("nerve truncation must be at least 1")
    d0m, d1m, s0m = G.d0.map, G.d1.map, G.s0.map
    comp = G.comp
    levels = [G.objects, G.arrows]
    faces = [[], [G.d0, G.d1]]
    degeneracies = [[G.s0]]
    for n in range(2, M + 1):
        cons = [(t - 1, d0m, t, d1m) for t in range(1, n)]
        rows = compatible_tuples([G.arrows] * n, cons, budget=budget)
        alg, _ = subproduct_algebra(f"N{n}({G.arrows.name})", [G.arrows] * n, rows)
        prev = levels[n - 1]
        cols = list(alg.carrier.rows.T)
        prev_cols = (
            [np.arange(prev.size)] if n == 2 else list(prev.carrier.rows.T)
        )
        fs = []
        for i in range(n + 1):
            if i == 0:
                new = cols[1:]
            elif i == n:
                new = cols[:-1]
            else:
                new = cols[: i - 1] + [comp[cols[i], cols[i - 1]]] + cols[i + 1:]
            fs.append(Homomorphism(alg, prev, new[0], check=False) if n == 2
                      else tuple_map(alg, prev, new))
        faces.append(fs)
        ds = []
        for i in range(n):
            if i == 0:
                ins = s0m[d1m[prev_cols[0]]]
            else:
                ins = s0m[d0m[prev_cols[i - 1]]]
            ds.append(tuple_map(prev, alg, prev_cols[:i] + [ins] + prev_cols[i:]))
        degeneracies.append(ds)
        levels.append(alg)
    degeneracies = degeneracies[: M] + [[]]
    out = TruncatedSimplicialAlgebra(
        levels, faces, degeneracies, name=name or f"nerve({G.arrows.name})"
    )
    validate_simplicial(out)
    return out


def spine_maps(X, n):
    """Index arrays for the n spine edges of every n-simplex."""
    maps = []
    for i in range(1, n + 1):
        m = np.arange(X.levels[n].size)
        level = n
        for j in range(n, i, -1):
            m = X.faces[level][j].map[m]
            level -= 1
        for _ in range(i - 1):
            m = X.faces[level][0].map[m]
            level -= 1
        maps.append(m)
    return maps


def nerve_map(X, NY, f0, f1):
    """The morphism X -> NY into a groupoid nerve with components f0 and
    f1 at levels 0 and 1.  Such a morphism is fixed by them: it sends an
    n-simplex to the tuple of f1 on its spine edges.  The result is
    checked to commute with every face and degeneracy."""
    comps = [f0, f1] + [
        tuple_map(X.levels[n], NY.levels[n],
                  [f1.map[m] for m in spine_maps(X, n)])
        for n in range(2, X.truncation + 1)
    ]
    return SimplicialMorphism(X, NY, comps, check=True)


# -- products, pullbacks, quotients ---------------------------------------

def _levelwise_limit(X, Y, limit_at, name):
    """The levelwise limit of X and Y, with componentwise structure maps
    and both projections; level n and its projections to X_n and Y_n are
    limit_at(n, level_name), a limits.product or limits.pullback."""
    levels, projections = zip(*(limit_at(n, f"{name}_{n}")
                                for n in range(X.truncation + 1)))
    by_key = {(n, key): g for n, _, key, g in _structure_maps(Y)}

    def move(n, m, key, f):
        x, y = levels[n].carrier.rows.T
        return tuple_map(levels[n], levels[m],
                         [f.map[x], by_key[n, key].map[y]]).map

    P = transport(X, levels, move, name)
    proj1, proj2 = (
        SimplicialMorphism(P, Z, [projs[c] for projs in projections], check=True)
        for c, Z in enumerate((X, Y))
    )
    return P, proj1, proj2


def simplicial_product(X, Y, budget=None, name=None):
    if X.truncation != Y.truncation:
        raise InvalidParameters("product needs equal truncations")
    return _levelwise_limit(
        X, Y, lambda n, level_name: product(
            level_name, [X.levels[n], Y.levels[n]], budget=budget),
        name or f"({X.name}x{Y.name})",
    )


def simplicial_pullback(F, G, budget=None, name=None):
    """Levelwise pullback of F: X -> Z and G: Y -> Z, with projections."""
    X, Y = F.dom, G.dom
    if F.cod is not G.cod:
        raise InvalidParameters("pullback needs a shared codomain")
    return _levelwise_limit(
        X, Y, lambda n, level_name: pullback(
            F.components[n], G.components[n], level_name, budget=budget),
        name or f"pb({X.name},{Y.name})",
    )


def _structure_maps(X):
    """(n, m, name, f) for every face f = d_i: X_n -> X_{n-1}, level by
    level, and then every degeneracy f = s_i: X_n -> X_{n+1}, level by
    level, where name is "d{i}" or "s{i}".  Checks that walk it meet the
    maps in this order, so each reports the first failure in it."""
    for table, step, letter in ((X.faces, -1, "d"), (X.degeneracies, 1, "s")):
        for n, maps in enumerate(table):
            for i, f in enumerate(maps):
                yield n, n + step, f"{letter}{i}", f


def simplicial_congruence_generated(X, seeds, initial=None):
    """Smallest levelwise family of congruences containing the seeds
    (level -> pair list) and the family initial, if any, and closed under
    faces and degeneracies; initial must be such a family already.

    The levels are the sorts of one multi-sorted algebra whose unary
    operations between sorts are the faces and degeneracies, closed by
    congruences.close on one label array over the disjoint union of the
    levels, level n from offsets[n] on.  A wave sends the elements of
    level n it translates, absorbed ones and their roots, through every
    face and degeneracy out of it, as one stacked image array, and
    through the basic translations of X_n, read off X_n.op.  No pair
    crosses two levels, so no class does.
    """
    offsets = np.cumsum([0] + [lvl.size for lvl in X.levels])
    pairs = np.concatenate([
        np.asarray(seeds.get(n, []), dtype=np.int64).reshape(-1, 2)
        + offsets[n] for n in range(X.truncation + 1)
    ])
    start = (np.arange(offsets[-1]) if initial is None else
             np.concatenate([c.part + offsets[n]
                             for n, c in enumerate(initial)]))

    # images[n]: X_n's images under the faces and degeneracies leaving
    # it, one column each, built when a wave first reaches level n
    images = [None] * len(X.levels)

    def translate(xs, heads, at, roots):
        ends = heads.searchsorted(offsets)
        starts = at.searchsorted(ends)
        for n, lvl in enumerate(X.levels):
            if starts[n] == starts[n + 1]:
                continue
            a, o = slice(starts[n], starts[n + 1]), offsets[n]
            xs_n, heads_n = xs[a] - o, heads[ends[n]:ends[n + 1]] - o
            at_n = at[a] - ends[n]
            if images[n] is None:
                images[n] = np.array([f.map + offsets[m] for k, m, _, f
                                      in _structure_maps(X) if k == n]).T
            if images[n].size:  # a truncation-0 object has no such maps
                yield images[n][xs_n], images[n][heads_n], at_n
            for tx, th, ta in cg.translations(lvl, xs_n, heads_n, at_n,
                                              roots[o:offsets[n + 1]]):
                yield tx + o, th + o, ta

    labels = cg.close(start, pairs[:, 0], pairs[:, 1], translate)
    return [cg.Congruence(lvl, labels[offsets[n]:offsets[n + 1]] - offsets[n],
                          check=False)
            for n, lvl in enumerate(X.levels)]


def transport(X, levels, move, name):
    """The simplicial object on new levels with X's structure carried over.

    Each face or degeneracy f: X_n -> X_m, named key, becomes the map
    move(n, m, key, f) from levels[n] to levels[m].  The simplicial
    identities are checked; the maps are not.
    """
    faces, degeneracies = [[] for _ in levels], [[] for _ in levels]
    for n, m, key, f in _structure_maps(X):
        (faces if key[0] == "d" else degeneracies)[n].append(
            Homomorphism(levels[n], levels[m], move(n, m, key, f), check=False)
        )
    return validate_simplicial(
        TruncatedSimplicialAlgebra(levels, faces, degeneracies, name=name)
    )


def quotient_simplicial(X, parts, name=None):
    """Quotient by a simplicial congruence; returns (object, projection).

    The projection is checked to commute with every structure map f,
    which holds exactly when f(x) and f(rep x) lie in one class: a family
    not closed under the faces and degeneracies raises IdentityViolated
    there, if the quotient's simplicial identities have not already.
    """
    levels, projs = zip(*(cg.quotient(lvl, p) for lvl, p in zip(X.levels, parts)))
    reps = [p.reps() for p in parts]
    Y = transport(X, list(levels),
                  lambda n, m, key, f: projs[m].map[f.map[reps[n]]],
                  name or f"{X.name}/~")
    return Y, SimplicialMorphism(X, Y, projs, check=True)
