"""Groupoid reflection of truncated simplicial objects.

Two independent routes live here.  The simplicial route quotients level
one by the homotopy congruence read off from level two and reads the
composition off the spines of the 2-simplices; the graph route
quotients by the commutator of the two face kernels and composes in
the quotient through the Mal'tsev term (groupoid.maltsev_groupoid).
The lattice formulas for the homotopy congruences at every level
are computed separately from the unit map so the two can be compared.
The unit is simplicial.nerve_map of the identity on objects and the
quotient on arrows; spines and nerve maps live in simplicial.  Both
routes quotient the level-1 graph through _graph_quotient, which builds
X1/theta and its induced faces and degeneracy: pi1 with theta = h1 and
graph_reflection with the commutator of the two level-1 face kernels;
each composes its own way.  homotopy_family, which pi1 keeps as R.h,
lists the homotopy congruences of every level; coskeletality is read
off simplicial.exactness_check.  The pairwise face-kernel meets
(face_meet), the level-1 homotopy congruence h1 and the homotopy
congruence h_n of each level n >= 2 (homotopy_congruence) are computed
once per object and kept on it.  face_meet is the kernel of the pair
(d_i, d_j), one cg.kernel_pair of both faces.  Their readers share them:
  face_meet  homotopy_congruence, groupoid_injectivity_conditions,
             commutator_chain_check (level 1), galois' exactness lemma,
             and the suite's criteria 3 and 10;
  h1         homotopy_family, commutator_chain_check,
             galois.homotopy_relation and the suite's criteria 3 and 10;
  h_n        homotopy_family and, at the top level,
             galois.is_trivial_extension, so a classification, em's
             triviality test and pi1 join it once.
Morphisms keep results the same way, per resolved budget, in their
own F.derived: simplicial.kan_fibration_check its entries and
galois.classify_extension its flags, so the suite's criteria 6, 7 and 9
check and classify each extension once.
"""

import numpy as np

from .errors import (
    CompositionIllDefined,
    PreconditionUnmet,
    PropertyViolation,
    TripleEqualityViolated,
)
from .algebra import Homomorphism, identity_hom
from . import congruences as cg
from .commutator import tc_commutator
from .groupoid import InternalGroupoid, maltsev_groupoid, validate_groupoid
from .simplicial import (
    nerve,
    nerve_map,
    SimplicialMorphism,
    exactness_check,
    spine_maps,
)


# Face-kernel meets, h1 and the homotopy congruences depend on an
# object's structure maps alone, so each is computed once and kept in
# the object's own dict, X._derived, which goes with it.  A computation
# that raises keeps nothing.  Each function tests the dict itself: one
# helper taking the computation as a closure made the lattice check of
# ml-deep's cases, each run once in a fresh process, about 10% slower.

def face_meet(X, n, i, j):
    """The meet of the kernels of the faces d_i and d_j at level n, as
    the kernel of the pair (d_i, d_j)."""
    key = ("meet", n, i, j)
    if key not in X._derived:
        X._derived[key] = cg.kernel_pair(X.faces[n][i], X.faces[n][j])
    return X._derived[key]


def homotopy_congruence_level1(X):
    """The relation identifying arrows joined by a thin 2-simplex,
    computed as the image of a face-kernel meet."""
    if X.truncation < 2:
        raise PreconditionUnmet("level-1 homotopy needs two levels of faces")
    if "h1" not in X._derived:
        h1 = cg.image(X.faces[2][1], face_meet(X, 2, 0, 2))
        if X.truncation >= 3:
            alt0 = cg.image(X.faces[2][0], face_meet(X, 2, 1, 2))
            alt2 = cg.image(X.faces[2][2], face_meet(X, 2, 0, 1))
            if alt0 != h1 or alt2 != h1:
                raise TripleEqualityViolated(
                    "face images of the kernel meets at level 2 disagree"
                )
        X._derived["h1"] = h1
    return X._derived["h1"]


def homotopy_congruence(X, n):
    """Join of all pairwise face-kernel meets at a level n >= 2."""
    key = ("h", n)
    if key not in X._derived:
        X._derived[key] = cg.join_all([
            face_meet(X, n, i, j) for j in range(1, n + 1) for i in range(j)])
    return X._derived[key]


def homotopy_family(X):
    """Homotopy congruence at every level: the diagonal on objects, the
    level-1 congruence on arrows, then the joins of pairwise meets."""
    return [cg.diagonal(X.levels[0]), homotopy_congruence_level1(X)] + [
        homotopy_congruence(X, n) for n in range(2, X.truncation + 1)]


def _graph_quotient(X, theta):
    """The quotient Q = X1/theta of the level-1 reflexive graph of X, for
    theta below both face kernels: Q, the projection X1 -> Q, and the
    induced d0, d1: Q -> X0 and s0: X0 -> Q, which the caller's
    validate_groupoid checks to be homomorphisms."""
    X0, X1 = X.levels[0], X.levels[1]
    if any(not np.array_equal(d.map, d.map[theta.part]) for d in X.faces[1]):
        raise PropertyViolation("homotopic arrows must share both faces")
    Q, proj = cg.quotient(X1, theta)
    reps = theta.reps()
    d0b, d1b = (Homomorphism(Q, X0, d.map[reps], check=False)
                for d in X.faces[1])
    s0b = Homomorphism(X0, Q, proj.map[X.degeneracies[0][0].map], check=False)
    return Q, proj, d0b, d1b, s0b


class ReflectionResult:
    def __init__(self, groupoid, nerve_obj, unit, h):
        self.groupoid = groupoid
        self.nerve = nerve_obj
        self.unit = unit
        self.h = h

    @property
    def eta1(self):
        return self.unit.components[1]


def pi1(X, budget=None):
    """Reflect into internal groupoids; the unit is the nerve map with
    the identity on objects and the quotient map on arrows."""
    N = X.truncation
    if N < 2:
        raise PreconditionUnmet("reflection needs truncation >= 2")
    X0 = X.levels[0]
    h = homotopy_family(X)
    Q, eta1, d0b, d1b, s0b = _graph_quotient(X, h[1])

    spins = spine_maps(X, 2)
    qa = eta1.map[spins[0]]
    qb = eta1.map[spins[1]]
    qm = eta1.map[X.faces[2][1].map]
    comp = -np.ones((Q.size, Q.size), dtype=np.int64)
    comp[qb, qa] = qm
    bad = comp[qb, qa] != qm
    if bad.any():
        s = int(np.nonzero(bad)[0][0])
        raise CompositionIllDefined(
            f"simplices give conflicting composites for classes "
            f"({int(qb[s])},{int(qa[s])})"
        )
    need = d1b.map[:, None] == d0b.map[None, :]
    missing = (comp == -1) & need
    if missing.any():
        g, f = map(int, np.argwhere(missing)[0])
        raise CompositionIllDefined(
            f"no simplex composes the class pair ({g},{f})"
        )

    G = InternalGroupoid(X0, Q, d0b, d1b, s0b, comp)
    validate_groupoid(G)
    NG = nerve(G, N, budget=budget, name=f"N(Pi1 {X.name})")

    unit = nerve_map(X, NG, identity_hom(X0), eta1)
    return ReflectionResult(G, NG, unit, h)


def universal_property_check(R, F):
    """Factor a morphism into a groupoid nerve uniquely through the unit.

    R is a reflection of F's domain.  The factorization exists exactly
    when every level's homotopy congruence is below the kernel of F;
    that containment is the property under test.
    """
    X = F.dom
    if R.unit.dom is not X:
        raise PreconditionUnmet("reflection belongs to a different object")
    for n in range(X.truncation + 1):
        if not cg.leq(R.h[n], cg.kernel_pair(F.components[n])):
            raise PropertyViolation(
                f"morphism does not kill the homotopy congruence at level {n}"
            )
    comps = []
    for n in range(X.truncation + 1):
        hit, section = np.unique(R.unit.components[n].map, return_index=True)
        if len(hit) != R.nerve.levels[n].size:
            raise PropertyViolation(f"unit is not surjective at level {n}")
        comps.append(
            Homomorphism(
                R.nerve.levels[n], F.cod.levels[n],
                F.components[n].map[section], check=False,
            )
        )
    g = SimplicialMorphism(R.nerve, F.cod, comps, check=True)
    for n in range(X.truncation + 1):
        if not np.array_equal(
            g.components[n].map[R.unit.components[n].map],
            F.components[n].map,
        ):
            raise PropertyViolation(
                f"factorization misses the original morphism at level {n}"
            )
    return g


def is_internal_groupoid(X, with_report=False):
    """Whether every level is the composable-path pullback of the one
    below, witnessed by the outer-face comparison being bijective."""
    N = X.truncation
    entries = []
    ok = True
    for n in range(2, N + 1):
        a = X.faces[n][0].map
        b = X.faces[n][n].map
        lower = X.levels[n - 2].size
        fa = np.bincount(X.faces[n - 1][n - 1].map, minlength=lower)
        fb = np.bincount(X.faces[n - 1][0].map, minlength=lower)
        pb_size = int((fa * fb).sum())
        codes = a.astype(np.int64) * X.levels[n - 1].size + b
        image = len(cg.distinct(codes))
        bij = image == pb_size and image == X.levels[n].size
        entries.append(
            {
                "n": n,
                "pullback_size": pb_size,
                "image_size": image,
                "level_size": X.levels[n].size,
                "bijective": bool(bij),
            }
        )
        ok = ok and bij
    if with_report:
        return ok, entries
    return ok


def groupoid_injectivity_conditions(X, n):
    """Three meet conditions on the face kernels at one level: every
    pair's meet is trivial, the pair (0, n)'s is, and some pair's is.
    galois._central_by_lattice's lemma with Y = 1 (F_n then has the full
    kernel) makes the three equal at n >= 2."""
    trivial = {(i, j): face_meet(X, n, i, j).is_diagonal()
               for j in range(1, n + 1) for i in range(j)}
    return all(trivial.values()), trivial[0, n], any(trivial.values())


def graph_reflection(X):
    """Reflection computed from levels 0 and 1 only.

    The quotient Q is by the commutator of the two face kernels, and
    the composition is maltsev_groupoid's, g after f = p(g, s0 d1 g, f)
    computed in Q, so it cannot depend on representatives; the result
    is checked to satisfy every groupoid axiom.
    """
    if X.truncation < 1:
        raise PreconditionUnmet("graph reflection needs a level of arrows")
    Q, proj, d0b, d1b, s0b = _graph_quotient(
        X, tc_commutator(*[cg.kernel_pair(d) for d in X.faces[1]]))
    return (validate_groupoid(maltsev_groupoid(X.levels[0], Q, d0b, d1b, s0b)),
            proj)


def is_two_coskeletal_at_top(X, budget=None):
    """Whether the comparison into the simplicial kernel at the top
    level is bijective."""
    N = X.truncation
    if N < 2:
        raise PreconditionUnmet("needs at least two levels")
    onto, sizes = exactness_check(X, N - 1, budget=budget)
    return onto and sizes["image_size"] == X.levels[N].size


def commutator_chain_check(X):
    """Sandwich the level-1 homotopy congruence between the commutator
    of the face kernels and their meet; reports the three class counts."""
    if X.truncation < 2:
        raise PreconditionUnmet("commutator chain needs two levels of faces")
    low = tc_commutator(*[cg.kernel_pair(d) for d in X.faces[1]])
    high = face_meet(X, 1, 0, 1)
    h1 = homotopy_congruence_level1(X)
    report = {
        "commutator_below": cg.leq(low, h1),
        "meet_above": cg.leq(h1, high),
        "meet_equal": h1 == high,
        "commutator_equal": h1 == low,
        "classes": {"commutator": low.class_count(),
                    "homotopy": h1.class_count(),
                    "meet": high.class_count()},
    }
    if not (report["commutator_below"] and report["meet_above"]):
        raise PropertyViolation("homotopy congruence escapes its sandwich")
    return report
