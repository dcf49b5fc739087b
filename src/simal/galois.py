"""Classification of levelwise-surjective morphisms and the two
factorization systems attached to the groupoid reflection.

Every classification is computed along at least two independent routes
(lattice conditions, horn-comparison maps, self-pullback) and the
routes are required to agree; a disagreement raises instead of picking
a side.
"""

import numpy as np

from .errors import (
    CrossRouteMismatch,
    HomotopyMismatch,
    InvalidParameters,
    NotLevelwiseSurjective,
    PreconditionUnmet,
    PropertyViolation,
)
from .algebra import Homomorphism
from . import congruences as cg
from .limits import tuple_map
from .simplicial import (
    SimplicialMorphism,
    kan_fibration_check,
    nerve_map,
    quotient_simplicial,
    simplicial_congruence_generated,
    simplicial_kernel,
    simplicial_pullback,
)
from .reflection import (
    face_kernels,
    homotopy_congruence,
    homotopy_congruence_level1,
    pi1,
)


def homotopy_family(X):
    """Homotopy congruence at every level, diagonal at level zero."""
    h = [cg.diagonal(X.levels[0])]
    if X.truncation >= 2:
        h.append(homotopy_congruence_level1(X))
    else:
        h.append(cg.diagonal(X.levels[1]))
    for n in range(2, X.truncation + 1):
        h.append(homotopy_congruence(X, n))
    return h


def _require_extension(F):
    if not F.is_levelwise_surjective():
        raise NotLevelwiseSurjective(
            "classification applies to levelwise surjections"
        )
    if F.dom.truncation < 2:
        raise PreconditionUnmet("classification needs truncation >= 2")


def _kernel_meets_homotopy_trivially(F):
    h = homotopy_family(F.dom)
    for n in range(1, F.dom.truncation + 1):
        if not cg.meet(cg.kernel_pair(F.components[n]), h[n]).is_diagonal():
            return False
    return True


def is_trivial_extension(F):
    """Kernel meets the homotopy congruence trivially at every level."""
    _require_extension(F)
    return _kernel_meets_homotopy_trivially(F)


def _central_by_lattice(F):
    X = F.dom
    D2 = face_kernels(X, 2)
    F2 = cg.kernel_pair(F.components[2])
    rel = cg.image(
        X.faces[2][1], cg.meet_all([F2, D2[0], D2[2]])
    )
    if not rel.is_diagonal():
        return False
    for n in range(2, X.truncation + 1):
        Fn = cg.kernel_pair(F.components[n])
        D = face_kernels(X, n)
        for j in range(1, n + 1):
            for i in range(j):
                if not cg.meet_all([Fn, D[i], D[j]]).is_diagonal():
                    return False
    return True


def _central_by_fibration(F, budget=None):
    report = kan_fibration_check(F, budget=budget)
    return all(e["bijective"] for e in report.entries), report


class ExtensionReport:
    def __init__(self, name, trivial, central, normal, fibration_entries):
        self.name = name
        self.trivial = trivial
        self.central = central
        self.normal = normal
        self.fibration_entries = fibration_entries

    def to_json(self):
        return {
            "name": self.name,
            "trivial": self.trivial,
            "central": self.central,
            "normal": self.normal,
            "fibration": self.fibration_entries,
        }


def classify_extension(F, budget=None, name=None):
    """Trivial, central and normal flags with cross-route agreement.

    Centrality is computed both from triple kernel meets and from the
    horn comparison maps; normality from triviality of the self-pullback
    projection.  Any disagreement between routes raises.
    """
    _require_extension(F)
    central_lattice = _central_by_lattice(F)
    central_fib, fib_report = _central_by_fibration(F, budget=budget)
    if central_lattice != central_fib:
        raise CrossRouteMismatch(
            "lattice and horn-comparison centrality disagree: "
            f"{central_lattice} vs {central_fib}"
        )
    P, p1, _ = simplicial_pullback(F, F, budget=budget)
    normal = is_trivial_extension(p1)
    if normal != central_lattice:
        raise CrossRouteMismatch(
            f"centrality {central_lattice} but self-pullback triviality {normal}"
        )
    trivial = is_trivial_extension(F)
    if trivial and not central_lattice:
        raise CrossRouteMismatch("trivial extension classified non-central")
    return ExtensionReport(
        name or getattr(F, "name", "extension"),
        trivial, central_lattice, normal, fib_report.entries,
    )


# -- homotopy relations ----------------------------------------------------

def _code_set(a, b, modulus):
    return np.unique(a.astype(np.int64) * modulus + b)


def _degenerate_mask(values, s0_map):
    img = np.unique(s0_map)
    pos = np.searchsorted(img, values)
    pos = np.clip(pos, 0, len(img) - 1)
    return img[pos] == values


def homotopy_relation(X):
    """Pairs of arrows bounding a 2-simplex with degenerate last face.

    The collection route must coincide with the image of the kernel
    meet; the congruence is returned.
    """
    if X.truncation < 2:
        raise PreconditionUnmet("homotopy relation needs 2-simplices")
    d0m, d1m, d2m = (X.faces[2][i].map for i in range(3))
    thin = _degenerate_mask(d2m, X.degeneracies[0][0].map)
    n1 = X.levels[1].size
    collected = _code_set(d0m[thin], d1m[thin], n1)
    lattice = homotopy_congruence_level1(X)
    pairs = lattice.pairs()
    expected = np.unique(pairs[:, 0] * n1 + pairs[:, 1])
    if not np.array_equal(collected, expected):
        raise HomotopyMismatch(
            "thin-simplex relation differs from the kernel-meet image"
        )
    return lattice


def relative_homotopy_relation(F):
    """Arrows joined by a 2-simplex whose last face is degenerate and
    whose image simplex is degenerate; equals an image of kernel meets."""
    X, Y = F.dom, F.cod
    if X.truncation < 2:
        raise PreconditionUnmet("relative relation needs 2-simplices")
    d0m, d1m, d2m = (X.faces[2][i].map for i in range(3))
    thin_x = _degenerate_mask(d2m, X.degeneracies[0][0].map)
    fy = F.components[2].map
    thin_y = _degenerate_mask(fy, Y.degeneracies[1][0].map)
    mask = thin_x & thin_y
    n1 = X.levels[1].size
    collected = _code_set(d0m[mask], d1m[mask], n1)
    D2 = face_kernels(X, 2)
    F2 = cg.kernel_pair(F.components[2])
    lattice = cg.image(X.faces[2][1], cg.meet_all([F2, D2[0], D2[2]]))
    pairs = lattice.pairs()
    expected = np.unique(pairs[:, 0] * n1 + pairs[:, 1])
    if not np.array_equal(collected, expected):
        raise HomotopyMismatch(
            "relative thin-simplex relation differs from the lattice value"
        )
    return lattice


def fiber_connectivity_relation(F):
    """Objects joined by an arrow that the morphism sends to an identity;
    equals the first-face image of a kernel meet."""
    X, Y = F.dom, F.cod
    d0m, d1m = X.faces[1][0].map, X.faces[1][1].map
    f1 = F.components[1].map
    killed = _degenerate_mask(f1, Y.degeneracies[0][0].map)
    n0 = X.levels[0].size
    collected = _code_set(d0m[killed], d1m[killed], n0)
    D1 = cg.kernel_pair(X.faces[1][1])
    F1 = cg.kernel_pair(F.components[1])
    lattice = cg.image(X.faces[1][0], cg.meet(D1, F1))
    pairs = lattice.pairs()
    expected = np.unique(pairs[:, 0] * n0 + pairs[:, 1])
    if not np.array_equal(collected, expected):
        raise HomotopyMismatch(
            "kernel-arrow connectivity differs from the lattice value"
        )
    return lattice


# -- factorizations --------------------------------------------------------

def induced_groupoid_nerve_map(RX, RY, F):
    """Nerve of the functor between the two reflections induced by F."""
    phi1 = RY.eta1.map[F.components[1].map]
    if not np.array_equal(phi1, phi1[RX.h[1].part]):
        raise PropertyViolation("morphism does not descend to arrow classes")
    reps = np.unique(RX.h[1].part)
    f1 = Homomorphism(
        RX.groupoid.arrows, RY.groupoid.arrows, phi1[reps], check=True
    )
    return nerve_map(RX.nerve, RY.nerve, F.components[0], f1)


def _check_reflection_iso(RX, RP, e):
    """The functor induced by e between the reflections must be an
    isomorphism of groupoids."""
    phi0 = e.components[0].map
    if len(np.unique(phi0)) != RP.groupoid.objects.size or \
            RX.groupoid.objects.size != RP.groupoid.objects.size:
        raise PropertyViolation("comparison is not bijective on objects")
    phi1 = RP.eta1.map[e.components[1].map]
    if not np.array_equal(phi1, phi1[RX.h[1].part]):
        raise PropertyViolation("comparison does not respect arrow classes")
    reps = np.unique(RX.h[1].part)
    cls = phi1[reps]
    if len(np.unique(cls)) != RP.groupoid.arrows.size or \
            len(cls) != RP.groupoid.arrows.size:
        raise PropertyViolation("comparison is not bijective on arrow classes")
    gx, gp = RX.groupoid, RP.groupoid
    if not np.array_equal(phi0[gx.d0.map], gp.d0.map[cls]):
        raise PropertyViolation("comparison breaks targets")
    if not np.array_equal(phi0[gx.d1.map], gp.d1.map[cls]):
        raise PropertyViolation("comparison breaks sources")
    defined = gx.comp >= 0
    gg, ff = np.nonzero(defined)
    lhs = cls[gx.comp[gg, ff]]
    rhs = gp.comp[cls[gg], cls[ff]]
    if not np.array_equal(lhs, rhs):
        raise PropertyViolation("comparison breaks composition")


def em_factorization(F, budget=None):
    """Factor through the pullback of the reflected morphism.

    Returns (middle object, e, m) with e inverted by the reflection and
    m a trivial covering; both facts are verified, not assumed.
    """
    if F.dom.truncation < 2:
        raise PreconditionUnmet("factorization needs truncation >= 2")
    X, Y = F.dom, F.cod
    RX, RY = pi1(X, budget=budget), pi1(Y, budget=budget)
    nf = induced_groupoid_nerve_map(RX, RY, F)
    P, m, to_nx = simplicial_pullback(
        RY.unit, nf, budget=budget, name=f"em({X.name})"
    )
    comps = [
        tuple_map(X.levels[n], P.levels[n],
                  [F.components[n].map, RX.unit.components[n].map])
        for n in range(X.truncation + 1)
    ]
    e = SimplicialMorphism(X, P, comps, check=True)
    for n in range(X.truncation + 1):
        en = e.components[n].map
        if not (np.array_equal(m.components[n].map[en], F.components[n].map)
                and np.array_equal(to_nx.components[n].map[en],
                                   RX.unit.components[n].map)):
            raise PropertyViolation("pullback factors do not recover F")
    RP = pi1(P, budget=budget)
    _check_reflection_iso(RX, RP, e)
    if not _kernel_meets_homotopy_trivially(m):
        raise PropertyViolation("projection from the pullback is not trivial")
    return P, e, m


def _quotient_cofactor(X, F, fam):
    Z, e = quotient_simplicial(X, fam, name=f"{X.name}/fam")
    comps = []
    for n in range(X.truncation + 1):
        reps = np.unique(fam[n].part)
        comps.append(
            Homomorphism(
                Z.levels[n], F.cod.levels[n],
                F.components[n].map[reps], check=False,
            )
        )
    m = SimplicialMorphism(Z, F.cod, comps, check=True)
    return Z, e, m


def _obstruction_seeds(X, kernels, fam):
    """Pairs of ker F_n /\\ d_i^-1(fam[n-1]) /\\ d_j^-1(fam[n-1]) for all
    n >= 2 and i < j: the cofactor's triple meets, pulled back to X."""
    seeds = {}
    for n in range(2, X.truncation + 1):
        pulled = [cg.preimage(d, fam[n - 1]) for d in X.faces[n]]
        seeds[n] = []
        for j in range(1, n + 1):
            for i in range(j):
                part = cg.meet_all([kernels[n], pulled[i], pulled[j]]).part
                src = np.nonzero(part != np.arange(len(part)))[0]
                seeds[n] += zip(src.tolist(), part[src].tolist())
    return seeds


def ml_factorization(F):
    """Least simplicial congruence below the kernel whose cofactor is
    central, computed as a monotone fixpoint on X = F.dom.

    From the diagonal, each round closes the pulled-back triple meets
    under faces and degeneracies.  The rounds grow (each meet contains
    fam[n], and closing level 2 recovers levels 0 and 1) and stay below
    the kernel family, so they stop; at the limit every triple meet of
    the cofactor is diagonal, and the d1-image condition follows from
    the level-2 (0, 2) meet.  Any central family G below the kernel
    contains its own pulled-back triple meets, hence by induction every
    stage: the limit is the least central family.

    Returns (middle object, e, m) with m central.
    """
    _require_extension(F)
    X = F.dom
    kernels = [cg.kernel_pair(c) for c in F.components]
    fam, new = None, [cg.diagonal(lvl) for lvl in X.levels]
    while new != fam:
        fam = new
        new = simplicial_congruence_generated(
            X, _obstruction_seeds(X, kernels, fam)
        )
        if not all(cg.leq(a, b) for a, b in zip(new, kernels)):
            raise PropertyViolation(
                "kernel family is not closed under the structure maps"
            )
    Z, e, m = _quotient_cofactor(X, F, fam)
    if not m.is_levelwise_surjective():
        raise PropertyViolation("cofactor lost surjectivity")
    if not _central_by_lattice(m):
        raise PropertyViolation("fixpoint cofactor is not central")
    return Z, e, m


# -- exactness interactions ------------------------------------------------

def exactness_lemma_check(F, budget=None):
    """Image of a kernel meet versus meet-then-image, over an exact base.

    Requires the codomain to have surjective comparison into its level-3
    simplicial kernel; returns the two congruences' equality.
    """
    X, Y = F.dom, F.cod
    if Y.truncation < 3:
        raise PreconditionUnmet("lemma needs truncation 3 on the codomain")
    K, _, kappa = simplicial_kernel(Y, 3, budget=budget)
    if len(np.unique(kappa.map)) != K.size:
        raise PreconditionUnmet("codomain is not exact one level down")
    D = face_kernels(X, 2)
    F1 = cg.kernel_pair(F.components[1])
    F2 = cg.kernel_pair(F.components[2])
    lhs = cg.meet(cg.image(X.faces[2][0], cg.meet(D[1], D[2])), F1)
    rhs = cg.image(X.faces[2][0], cg.meet_all([D[1], D[2], F2]))
    return lhs == rhs, {"lhs_classes": lhs.class_count(),
                        "rhs_classes": rhs.class_count()}


def stabilizing_probe(f, extensions, budget=None):
    """Pull an arbitrary morphism back along sampled extensions and
    re-run the reflective factorization each time.

    The factorization's internal checks (comparison inverted by the
    reflection, projection trivial) are the pass condition; the probe
    reports one entry per sampled extension.
    """
    X = f.cod
    for lvl in range(1, X.truncation):
        K, _, kappa = simplicial_kernel(X, lvl + 1, budget=budget)
        if len(np.unique(kappa.map)) != K.size:
            raise PreconditionUnmet("probe target must be exact")
    results = []
    for name, g in extensions:
        if g.cod is not X:
            raise InvalidParameters(f"extension {name} has a different base")
        _, _, pulled = simplicial_pullback(f, g, budget=budget)
        em_factorization(pulled, budget=budget)
        results.append({"along": name, "ok": True})
    return results
