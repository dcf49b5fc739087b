"""Classification of levelwise-surjective morphisms and the two
factorization systems attached to the groupoid reflection.

Every classification is computed along at least two independent routes
(lattice conditions, horn-comparison maps, self-pullback) and the
routes are required to agree; a disagreement raises instead of picking
a side.

The top level N >= 2 decides triviality and lattice centrality, which
read level N alone (the proofs are in their docstrings); so does the
self-pullback route, by the proof of triviality applied to its
projection.  At level N one pair of faces, 0 and 1, decides lattice
centrality, by a lemma that uses only the Mal'tsev term, so the lattice
route and ml's seeds each read one triple meet, _top_meet, ml's pulled
back through its last family.  The horn and self-pullback routes read
every pair, and the horn route every level, so either would catch a
false proof.

Each derived structure has one builder: reflection.homotopy_congruence
for the top-level homotopy congruence of a built object (pi1's R.h
lists every level), induced_groupoid_nerve_map for the functor between
reflections, and simplicial.exactness_check for exactness.  A morphism
that is already its own factorization, a trivial extension for em or a
central one for ml, is returned as (F.dom, identity, F) by one helper.
The self-pullback route builds no object: it enumerates P = X x_Y X at
the top level alone, codes each of P's faces there once, as the pair of
X's faces through the two projections, and joins P's face-kernel meets,
each a kernel of two such codes, as it builds them; simplicial_pullback
builds the full object for em and the probes.  A classification is kept
on F per budget, so classifying an extension again runs no route.
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
from .algebra import Homomorphism, identity_hom
from . import congruences as cg
from .config import resolve_budget
from .limits import pullback, tuple_map
from .simplicial import (
    SimplicialMorphism,
    exactness_check,
    kan_fibration_check,
    nerve_map,
    quotient_simplicial,
    simplicial_congruence_generated,
    simplicial_pullback,
)
from .reflection import (
    face_meet,
    homotopy_congruence,
    homotopy_congruence_level1,
    pi1,
)


def _require_extension(F):
    if not F.is_levelwise_surjective():
        raise NotLevelwiseSurjective(
            "classification applies to levelwise surjections"
        )
    if F.dom.truncation < 2:
        raise PreconditionUnmet("classification needs truncation >= 2")


def _kernel_meets_homotopy_trivially(F, h):
    """Whether ker F_N meets h, the homotopy congruence of F.dom at its
    top level N, trivially."""
    return cg.meets_trivially(cg.kernel_pair(F.components[-1]), h)


def is_trivial_extension(F):
    """Whether ker F_n meets the homotopy congruence h_n of X = F.dom
    trivially at every level n, read off the top level N >= 2 alone.

    The top level decides, given h_n = ker eta_n at every level for the
    unit eta of pi1 (so built at levels 0 and 1; criterion 4 checks it
    at levels 2 and 3).  Let
    n < N and s = s_0 ... s_0: X_n -> X_N.  s is injective, since
    d_0 s_0 = id, and F s = s F, F being simplicial.  eta is simplicial
    too, so eta_N(s a) = s eta_n(a): s carries h_n = ker eta_n into
    ker eta_N = h_N.  A pair a != b of ker F_n /\\ h_n therefore goes to
    the pair s a != s b of ker F_N /\\ h_N.
    """
    _require_extension(F)
    X = F.dom
    return _kernel_meets_homotopy_trivially(
        F, homotopy_congruence(X, X.truncation))


def _top_meet(F, below):
    """ker F_N /\\ d_0^-1(below) /\\ d_1^-1(below) on X_N, X = F.dom
    being of truncation N and below a congruence on X_(N-1), or None for
    the diagonal, when it is ker F_N /\\ ker d_0 /\\ ker d_1: one
    cg.kernel_of_codes of the columns F_N, below's labels through d_0
    and below's labels through d_1."""
    X = F.dom
    N = X.truncation
    m = X.levels[N - 1].size
    part = np.arange(m) if below is None else below.part
    d0, d1 = X.faces[N][:2]
    FN = F.components[N]
    return cg.kernel_of_codes(X.levels[N], [
        (FN.map, FN.cod.size), (part[d0.map], m), (part[d1.map], m)])


def _central_by_lattice(F):
    """Whether ker F_n /\\ D_i /\\ D_j is trivial for every level n >= 2
    and faces i < j, D_i being ker d_i, read off the top level N and the
    faces 0 and 1 alone.

    The top level decides, with no premise.  Take n < N and i < j <= n,
    and pick k in {0..n} other than i and j, which exists as n + 1 >= 3.
    Let i' = i if i < k, else i + 1, and j' likewise, so i' < j'.  The
    simplicial identities give d_i' s_k = s d_i and d_j' s_k = s d_j,
    s being s_(k-1) or s_k.  s_k is injective, since d_k s_k = id, and
    commutes with F, so it embeds ker F_n /\\ D_i /\\ D_j into
    ker F_(n+1) /\\ D_i' /\\ D_j'.

    One pair of faces decides at a level n >= 2, by the Mal'tsev term p
    alone.  Write K = ker F_n.  If i, j, k are distinct and |j - k| = 1,
    then K /\\ D_i /\\ D_k = Delta implies K /\\ D_i /\\ D_j = Delta.
    Take (a, b) in K /\\ D_i /\\ D_j, and let e = d_k a, e' = d_k b and
    s = s_min(j,k), so that d_j s = d_k s = id.
    - As i is not j or k, the simplicial identities and d_i a = d_i b
      give d_i s e = d_i s e'.  Also F e = d_k F a = d_k F b = F e', so
      F s e = F s e'.
    - Put w = p(s e, a, b) and u = s e'.  Then d_i w = p(d_i s e, d_i a,
      d_i a) = d_i s e = d_i u; d_k w = p(e, e, e') = e' = d_k u; and
      F w = p(F s e, F a, F a) = F s e = F u.
    - So (w, u) lies in K /\\ D_i /\\ D_k, and w = u.  Hence
      e = p(e, d_j a, d_j b) = d_j w = d_j u = e', as d_j a = d_j b.
    - Now (a, b) lies in K /\\ D_i /\\ D_k too, so a = b.
    Moving one index of a pair to a neighbour outside the pair connects
    all pairs of {0..n} when n >= 2, so every pair gives the answer of
    (0, 1).  The proof uses only p(x, y, y) = x, p(x, x, y) = y and that
    faces, degeneracies and F are homomorphisms.  The one meet read is
    _top_meet(F, None).
    """
    return _top_meet(F, None).is_diagonal()


def _central_by_fibration(F, budget=None):
    entries = kan_fibration_check(F, budget=budget)
    return all(e["bijective"] for e in entries), entries


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


def _normal_by_self_pullback(F, budget):
    """Whether the kernel-pair projection p1: P = X x_Y X -> X of F is a
    trivial extension, X being F.dom (Janelidze and Kelly's normality),
    read off P's top level N alone.

    is_trivial_extension's proof, applied to p1, shows that level N
    decides: it needs P's degeneracies, which are componentwise, not
    that they are built.  So P_N, the pullback of F_N along itself, is
    the one level enumerated, and nothing else of P is built or checked:
    - the budget stops the same inputs as a build of every level would,
      since the componentwise s_0 embeds P_n in P_(n+1), so |P_n| <= |P_N|;
    - P's faces are componentwise, d_i (x, y) = (d_i x, d_i y), which
      lies in P since F d_i = d_i F, and they satisfy the face
      identities, as X's do;
    - p1 commutes with the componentwise faces by definition, and it is
      onto at every level, since (x, x) lies in P.
    ker d_i /\\ ker d_j on P_N is then the kernel of the four maps d_i p1,
    d_i p2, d_j p1 and d_j p2 into X_(N-1), of size m.  Each face d_k is
    coded once, as the pair code c_k = d_k p1 * m + d_k p2 below m^2, and
    each meet is cg.kernel_of_codes of the columns (c_i, m^2) and
    (c_j, m^2), whose fold c_i * m^2 + c_j is the code kernel_pair of the
    four maps would fold (relabelled first past 2^62, when m > 46,341).
    The homotopy congruence h of P_N is the join of those meets, in the
    order j, then i < j, each joined into h as soon as it is built, so
    at most two meets are held at a time.
    """
    X = F.dom
    N = X.truncation
    PN, projs = pullback(F.components[N], F.components[N],
                         f"pb({X.name},{X.name})_{N}", budget=budget)
    m = X.levels[N - 1].size
    pair_codes = [d.map[projs[0].map] * m + d.map[projs[1].map]
                  for d in X.faces[N]]
    h = None
    for j in range(1, N + 1):
        for i in range(j):
            meet = cg.kernel_of_codes(
                PN, [(pair_codes[i], m * m), (pair_codes[j], m * m)])
            h = meet if h is None else cg.join(h, meet)
    return cg.meets_trivially(cg.kernel_pair(projs[0]), h)


def _classification(F, budget):
    central_lattice = _central_by_lattice(F)
    central_fib, fib_entries = _central_by_fibration(F, budget=budget)
    if central_lattice != central_fib:
        raise CrossRouteMismatch(
            "lattice and horn-comparison centrality disagree: "
            f"{central_lattice} vs {central_fib}"
        )
    normal = _normal_by_self_pullback(F, budget)
    if normal != central_lattice:
        raise CrossRouteMismatch(
            f"centrality {central_lattice} but self-pullback triviality {normal}"
        )
    trivial = is_trivial_extension(F)
    if trivial and not central_lattice:
        raise CrossRouteMismatch("trivial extension classified non-central")
    return trivial, central_lattice, normal, fib_entries


def classify_extension(F, budget=None, name=None):
    """Trivial, central and normal flags with cross-route agreement.

    Centrality is computed both from triple kernel meets and from the
    horn comparison maps; normality from triviality of the self-pullback
    projection (_normal_by_self_pullback), which enumerates the top
    level of the self-pullback alone.  Any disagreement between routes
    raises.

    The flags and fibration entries are kept on F per resolved budget
    (F.derived), so a repeat at that budget runs no route; a
    classification that raises keeps nothing.  Every call gets its own
    report, named name or F's name, and its own copies of the entries.
    """
    _require_extension(F)
    key = ("classification", resolve_budget(budget))
    if key not in F.derived:
        F.derived[key] = _classification(F, key[1])
    trivial, central, normal, entries = F.derived[key]
    return ExtensionReport(
        name or getattr(F, "name", "extension"),
        trivial, central, normal, [dict(e) for e in entries],
    )


# -- homotopy relations ----------------------------------------------------

def _code_set(a, b, modulus):
    return cg.distinct(a.astype(np.int64) * modulus + b)


def _degenerate_mask(values, s0_map):
    img = cg.distinct(s0_map)
    pos = np.searchsorted(img, values)
    pos = np.clip(pos, 0, len(img) - 1)
    return img[pos] == values


def _collected_equals(lattice, faces, mask, what):
    """The lattice value, once the face pairs (a(x), b(x)) of the
    simplices x picked by mask are exactly its pairs."""
    a, b = (f.map[mask] for f in faces)
    n, pairs = lattice.on.size, lattice.pairs()
    if not np.array_equal(_code_set(a, b, n),
                          _code_set(pairs[:, 0], pairs[:, 1], n)):
        raise HomotopyMismatch(f"{what} differs from the lattice value")
    return lattice


def homotopy_relation(X):
    """Pairs of arrows bounding a 2-simplex with degenerate last face.

    The collection route must coincide with the image of the kernel
    meet; the congruence is returned.
    """
    h1 = homotopy_congruence_level1(X)
    thin = _degenerate_mask(X.faces[2][2].map, X.degeneracies[0][0].map)
    return _collected_equals(h1, X.faces[2][:2], thin, "thin-simplex relation")


def relative_homotopy_relation(F):
    """Arrows joined by a 2-simplex whose last face is degenerate and
    whose image simplex is degenerate; equals d1(ker F_2 /\\ D_0 /\\ D_2)."""
    X, Y = F.dom, F.cod
    if X.truncation < 2:
        raise PreconditionUnmet("relative relation needs 2-simplices")
    d = X.faces[2]
    thin = (_degenerate_mask(d[2].map, X.degeneracies[0][0].map)
            & _degenerate_mask(F.components[2].map, Y.degeneracies[1][0].map))
    return _collected_equals(
        cg.image(d[1], cg.kernel_pair(F.components[2], d[0], d[2])),
        d[:2], thin, "relative thin-simplex relation")


def fiber_connectivity_relation(F):
    """Objects joined by an arrow that the morphism sends to an identity;
    equals the first-face image of a kernel meet."""
    X, Y = F.dom, F.cod
    killed = _degenerate_mask(F.components[1].map, Y.degeneracies[0][0].map)
    connected = cg.image(X.faces[1][0],
                         cg.kernel_pair(X.faces[1][1], F.components[1]))
    return _collected_equals(connected, X.faces[1], killed,
                             "kernel-arrow connectivity")


# -- factorizations --------------------------------------------------------

def induced_groupoid_nerve_map(RX, RY, F):
    """Nerve of the functor between the two reflections induced by F."""
    phi1 = RY.eta1.map[F.components[1].map]
    if not np.array_equal(phi1, phi1[RX.h[1].part]):
        raise PropertyViolation("morphism does not descend to arrow classes")
    reps = RX.h[1].reps()
    f1 = Homomorphism(
        RX.groupoid.arrows, RY.groupoid.arrows, phi1[reps], check=True
    )
    return nerve_map(RX.nerve, RY.nerve, F.components[0], f1)


def _induced_isomorphism(RX, RY, F):
    """Raise unless the functor induced by F between the reflections is
    an isomorphism, that is its nerve is bijective at every level."""
    iso = induced_groupoid_nerve_map(RX, RY, F)
    if not all(c.is_bijective() for c in iso.components):
        raise PropertyViolation("induced functor is not an isomorphism")


def _own_factorization(F):
    """(F.dom, identity, F): F as its own factorization, the identity
    being the SimplicialMorphism of identity_hom components."""
    X = F.dom
    identity = [identity_hom(lvl) for lvl in X.levels]
    return X, SimplicialMorphism(X, X, identity, check=False), F


def _pullback_factorization(F, budget=None):
    """(P, e, m) through P, the pullback of the reflection unit of F.cod
    along the nerve of the functor F induces between the reflections;
    checks that e is inverted by the reflection and that m is trivial."""
    X, Y = F.dom, F.cod
    RX, RY = pi1(X, budget=budget), pi1(Y, budget=budget)
    nf = induced_groupoid_nerve_map(RX, RY, F)
    P, m, _ = simplicial_pullback(
        RY.unit, nf, budget=budget, name=f"em({X.name})"
    )
    comps = [
        tuple_map(X.levels[n], P.levels[n],
                  [F.components[n].map, RX.unit.components[n].map])
        for n in range(X.truncation + 1)
    ]
    e = SimplicialMorphism(X, P, comps, check=True)
    RP = pi1(P, budget=budget)
    _induced_isomorphism(RX, RP, e)
    if not _kernel_meets_homotopy_trivially(m, RP.h[-1]):
        raise PropertyViolation("projection from the pullback is not trivial")
    return P, e, m


def em_factorization(F, budget=None):
    """Factor F as m after e, with e inverted by the reflection and m a
    trivial covering, along one of two paths chosen by the input alone.

    A trivial extension, levelwise surjective with ker F_N meeting the
    homotopy congruence of X = F.dom at the top level N trivially (kept
    on X, as classify_extension leaves it; is_trivial_extension proves
    that level N decides), is its own answer (X, identity, F).  Every
    functor inverts the identity, and the test that picks this path is
    the top-level kernel-meet check the other path applies to its m.
    Nothing is reflected, pulled back or enumerated, so the budget is
    not spent.

    Every other morphism, the non-trivial extensions and criterion 9's
    probes (which are not levelwise surjective) among them, factors
    through P, the pullback of the reflection unit of F.cod along the
    reflected F; there both facts are verified, not assumed.  Below
    truncation 2, is_trivial_extension or pi1 raises PreconditionUnmet.

    Returns (middle object, e, m).
    """
    if F.is_levelwise_surjective() and is_trivial_extension(F):
        return _own_factorization(F)
    return _pullback_factorization(F, budget=budget)


def _quotient_cofactor(X, F, fam):
    Z, e = quotient_simplicial(X, fam, name=f"{X.name}/fam")
    comps = []
    for n in range(X.truncation + 1):
        reps = fam[n].reps()
        comps.append(
            Homomorphism(
                Z.levels[n], F.cod.levels[n],
                F.components[n].map[reps], check=False,
            )
        )
    m = SimplicialMorphism(Z, F.cod, comps, check=True)
    return Z, e, m


def _obstruction_seeds(F, fam):
    """The pairs (x, least member of its class) of
    ker F_N /\\ d_0^-1(fam[N-1]) /\\ d_1^-1(fam[N-1]) at the top level
    N, _top_meet(F, fam[N-1]): the cofactor's top triple meet of the
    faces 0 and 1, pulled back to X = F.dom, which decides the cofactor's
    centrality (_central_by_lattice)."""
    N = F.dom.truncation
    part = _top_meet(F, fam[N - 1]).part
    src = np.nonzero(part != np.arange(len(part)))[0]
    return {N: list(zip(src.tolist(), part[src].tolist()))}


def ml_factorization(F):
    """Least simplicial congruence below the kernel whose cofactor is
    central, computed as a monotone fixpoint on X = F.dom.

    A cofactor m: X/G -> Y is central iff its top triple meet of the
    faces 0 and 1 is diagonal (_central_by_lattice), that is iff G[N]
    contains ker F_N /\\ d_0^-1(G[N-1]) /\\ d_1^-1(G[N-1]), the meet's
    pullback to X (e_N, through which F_N and the faces factor, pulls
    ker m_N back to ker F_N and ker d_i back to d_i^-1(G[N-1])).  From
    the diagonal, each round closes this pulled-back meet under faces
    and degeneracies, starting from the last family, so the rounds grow
    and each works only on the pairs it adds.  They stay below the
    kernel family, so they stop.  The argument holds pair by pair:
    - a central family G below the kernel contains its own (0, 1)
      seeds, and the seeds grow with the family, so a stage below G has
      seeds in G, and its closure, the next stage, lies below G: by
      induction from the diagonal, G contains every stage;
    - a fixpoint contains its (0, 1) seeds, so its cofactor's (0, 1)
      top meet is trivial, and by the lemma in _central_by_lattice
      every meet at every level is, so the cofactor is central.
    The limit is therefore the least central family.  Round one starts
    from the diagonal, whose pullback through d_i is ker d_i.

    A fixpoint that is the diagonal at every level means F is already
    central: the answer is then (F.dom, identity, F).  Any other
    fixpoint gets the quotient X/fam and the map F induces on it.  The
    centrality of m is checked on the result either way.

    Returns (middle object, e, m) with m central.
    """
    _require_extension(F)
    X = F.dom
    kernels = [cg.kernel_pair(c) for c in F.components]
    fam, new = None, [cg.diagonal(lvl) for lvl in X.levels]
    while new != fam:
        fam = new
        new = simplicial_congruence_generated(
            X, _obstruction_seeds(F, fam), initial=fam
        )
        if not all(cg.leq(a, b) for a, b in zip(new, kernels)):
            raise PropertyViolation(
                "kernel family is not closed under the structure maps"
            )
    if all(c.is_diagonal() for c in fam):
        Z, e, m = _own_factorization(F)
    else:
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
    if not exactness_check(Y, 2, budget=budget)[0]:
        raise PreconditionUnmet("codomain is not exact one level down")
    d = X.faces[2]
    lhs = cg.meet(cg.image(d[0], face_meet(X, 2, 1, 2)),
                  cg.kernel_pair(F.components[1]))
    rhs = cg.image(d[0], cg.kernel_pair(d[1], d[2], F.components[2]))
    return lhs == rhs, {"lhs_classes": lhs.class_count(),
                        "rhs_classes": rhs.class_count()}


def stabilizing_probe(f, extensions, budget=None):
    """Pull an arbitrary morphism back along sampled extensions and
    re-run the reflective factorization each time.

    The factorization's own checks (comparison inverted by the
    reflection, projection trivial) are the pass condition: a failing
    one raises through the probe.  The probe reports one entry per
    sampled extension, naming it, in the order given.
    """
    X = f.cod
    if not all(exactness_check(X, lvl, budget=budget)[0]
               for lvl in range(1, X.truncation)):
        raise PreconditionUnmet("probe target must be exact")
    results = []
    for name, g in extensions:
        if g.cod is not X:
            raise InvalidParameters(f"extension {name} has a different base")
        _, _, pulled = simplicial_pullback(f, g, budget=budget)
        em_factorization(pulled, budget=budget)
        results.append({"along": name})
    return results
