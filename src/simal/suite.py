"""The acceptance battery: ten exact property suites over the corpus.

Every check is an equality of finite structures; nothing is approximate.
Each criterion raises on a failure and otherwise returns details that
reproduce its verdict; every call it makes that takes a budget gets the
run's.  The runner records a pass flag and the details or the error of
each criterion, and never stops early: all ten criteria report even
when one fails.
"""

import itertools

import numpy as np

from . import congruences as cg
from .algebra import Homomorphism
from .config import resolve_budget
from .commutator import tc_commutator
from .corpus import (
    congruence_nerve,
    default_corpus,
    delooping_extension,
    discrete_groupoid,
    heyting_from_poset,
    loops_graph,
    named_algebra,
    one_object_groupoid,
    pair_groupoid,
    probe_kit,
    translation_graph,
)
from .errors import PreconditionUnmet, PropertyViolation, SimalError
from .galois import (
    classify_extension,
    em_factorization,
    exactness_lemma_check,
    fiber_connectivity_relation,
    homotopy_relation,
    ml_factorization,
    relative_homotopy_relation,
    stabilizing_probe,
)
from .limits import is_double_extension, subproduct_algebra, tuple_map
from .reflection import (
    commutator_chain_check,
    face_meet,
    graph_reflection,
    groupoid_injectivity_conditions,
    homotopy_congruence_level1,
    is_internal_groupoid,
    is_two_coskeletal_at_top,
    pi1,
    universal_property_check,
)
from .simplicial import (
    check_structure_homs,
    decalage,
    exactness_check,
    kan_check,
    kan_fibration_check,
    nerve,
    nerve_map,
    quotient_simplicial,
    simplicial_congruence_generated,
    transport,
    truncate,
)


# -- shared helpers --------------------------------------------------------

def _closure_join_oracle(theta, psi):
    """Transitive closure of the union, by boolean matrix powers.

    Deliberately avoids the union-find based join so the two routes
    share no code.
    """
    rel = (theta.part[:, None] == theta.part[None, :]) | (
        psi.part[:, None] == psi.part[None, :]
    )
    while True:
        grown = rel | (rel @ rel)
        if np.array_equal(grown, rel):
            break
        rel = grown
    return np.argmax(rel, axis=1)


def _all_maps(dom_size, cod_size):
    total = cod_size ** dom_size
    codes = np.arange(total, dtype=np.int64)
    cols = []
    for _ in range(dom_size):
        cols.append(codes % cod_size)
        codes //= cod_size
    return np.stack(cols, axis=1) if cols else np.zeros((1, 0), dtype=np.int64)


def _hom_maps(A, B):
    """All homomorphism map arrays A -> B, by brute enumeration."""
    maps = _all_maps(A.size, B.size)
    keep = np.ones(len(maps), dtype=bool)
    n = A.size
    for opname, arity in A.signature.ops:
        ta, tb = A.table(opname), B.table(opname)
        if arity == 0:
            keep &= maps[:, ta[0]] == tb[0]
        elif arity == 1:
            keep &= (maps[:, ta] == tb[maps]).all(axis=1)
        elif arity == 2:
            fx = maps[:, np.repeat(np.arange(n), n)]
            fy = maps[:, np.tile(np.arange(n), n)]
            keep &= (maps[:, ta.reshape(-1)] == tb[fx, fy]).all(axis=1)
        else:
            for idx in np.ndindex(*ta.shape):
                sel = tuple(maps[:, k] for k in idx)
                keep &= maps[:, ta[idx]] == tb[sel]
    return maps[keep]


def _is_hom_map(A, B, fmap):
    try:
        Homomorphism(A, B, fmap, check=True)
    except SimalError:
        return False
    return True


def _arrows_by_endpoints(G):
    table = {}
    d0, d1 = G.d0.map, G.d1.map
    for a in range(G.arrows.size):
        table.setdefault((int(d0[a]), int(d1[a])), []).append(a)
    return table


def _graph_morphisms(X, G):
    """All reflexive-graph morphisms from levels 0..1 of X into G."""
    X0, X1 = X.levels[0], X.levels[1]
    d0x, d1x = X.faces[1][0].map, X.faces[1][1].map
    s0x = X.degeneracies[0][0].map
    fibers = _arrows_by_endpoints(G)
    out = []
    for f0 in _hom_maps(X0, G.objects):
        cand = []
        for a in range(X1.size):
            lst = fibers.get((int(f0[d0x[a]]), int(f0[d1x[a]])), [])
            if not lst:
                cand = None
                break
            cand.append(lst)
        if cand is None:
            continue
        for combo in itertools.product(*cand):
            f1 = np.asarray(combo, dtype=np.int64)
            if not np.array_equal(f1[s0x], G.s0.map[f0]):
                continue
            if not _is_hom_map(X1, G.arrows, f1):
                continue
            out.append((f0, f1))
    return out


def _nerve_morphisms(X, G, NG):
    """All simplicial morphisms from X into the nerve NG of G.

    A morphism into a nerve is determined by its two lowest components,
    so each graph morphism is extended by simplicial.nerve_map, which
    raises on a candidate that is not a simplicial morphism.
    """
    morphisms = []
    for f0, f1 in _graph_morphisms(X, G):
        try:
            morphisms.append(nerve_map(
                X, NG,
                Homomorphism(X.levels[0], NG.levels[0], f0, check=False),
                Homomorphism(X.levels[1], NG.levels[1], f1, check=False),
            ))
        except SimalError:
            continue
    return morphisms


def _image_subobject(F, name):
    """The levelwise image of a simplicial morphism, as a subobject of
    its codomain: level n is the one-factor subproduct of Y_n on the
    image of F_n."""
    Y = F.cod
    levels = [
        subproduct_algebra(f"{name}{n}", [Y.levels[n]],
                           cg.distinct(F.components[n].map)[:, None])[0]
        for n in range(Y.truncation + 1)
    ]
    S = transport(
        Y, levels,
        lambda n, m, key, f: tuple_map(
            levels[n], levels[m], [f.map[levels[n].carrier.rows[:, 0]]]
        ).map,
        name,
    )
    return check_structure_homs(S)


# -- criterion 1: congruence lattices --------------------------------------

def _lattice_suite(ctx):
    algebras = ctx["corpus"]["algebras"]
    pairs_checked = 0
    triples_checked = 0
    per_algebra = {}
    for name in sorted(algebras):
        alg = algebras[name]
        if alg.size > 12:
            continue
        congs = cg.enumerate_congruences(alg)
        per_algebra[name] = len(congs)
        for th, ps in itertools.combinations_with_replacement(congs, 2):
            joined = cg.join(th, ps)
            oracle = _closure_join_oracle(th, ps)
            if not np.array_equal(joined.part, oracle):
                raise PropertyViolation(
                    f"join mismatch against closure oracle on {name}"
                )
            pairs_checked += 1
        for R in congs:
            for S in congs:
                for T in congs:
                    if not cg.leq(R, T):
                        continue
                    lhs = cg.join(R, cg.meet(S, T))
                    rhs = cg.meet(cg.join(R, S), T)
                    if lhs != rhs:
                        raise PropertyViolation(
                            f"modular law fails on {name}"
                        )
                    triples_checked += 1
    return {
        "lattice_sizes": per_algebra,
        "join_pairs": pairs_checked,
        "modular_triples": triples_checked,
    }


# -- criterion 2: face squares are double extensions -----------------------

def _face_square_suite(ctx):
    squares = 0
    for name, X in ctx["corpus"]["objects"]:
        if X.truncation > 3 or any(l.size > 4096 for l in X.levels):
            continue
        for n in range(2, X.truncation + 1):
            for j in range(1, n + 1):
                for i in range(j):
                    ok = is_double_extension(
                        X.faces[n][i], X.faces[n][j],
                        X.faces[n - 1][j - 1], X.faces[n - 1][i],
                        budget=ctx["budget"],
                    )
                    if not ok:
                        raise PropertyViolation(
                            f"face square ({i},{j}) at level {n} of {name} "
                            "is not a double extension"
                        )
                    squares += 1
    return {"squares": squares}


# -- criterion 3: triple equality and images of meets ----------------------

def _meet_image_suite(ctx):
    objects = ctx["corpus"]["objects"]
    extensions = ctx["corpus"]["extensions"]
    h1_checked = 0
    identities = 0
    for name, X in objects:
        homotopy_congruence_level1(X)
        h1_checked += 1
        if X.truncation < 3:
            continue
        d = X.faces[3]
        for i, j, k in itertools.combinations(range(4), 3):
            # (face, meet pair at level 3, its target pair at level 2)
            for f, (a, b), target in ((k, (i, j), (i, j)),
                                      (j, (i, k), (i, k - 1)),
                                      (i, (j, k), (j - 1, k - 1))):
                got = cg.image(d[f], face_meet(X, 3, a, b))
                if got != face_meet(X, 2, *target):
                    raise PropertyViolation(
                        f"d_{f}(D_{a} meet D_{b}) misses its target on {name}"
                    )
                identities += 1
    pushed = 0
    for name, F in extensions:
        for n in range(2, F.dom.truncation + 1):
            for j in range(1, n + 1):
                for i in range(j):
                    got = cg.image(F.components[n], face_meet(F.dom, n, i, j))
                    if got != face_meet(F.cod, n, i, j):
                        raise PropertyViolation(
                            f"image of D_{i} meet D_{j} under {name} at "
                            f"level {n} is not the codomain meet"
                        )
                    pushed += 1
    return {
        "h1_objects": h1_checked,
        "level3_identities": identities,
        "pushed_meets": pushed,
    }


# -- criterion 4: unit kernels and the universal property ------------------

def _reflection_suite(ctx):
    algebras = [named_algebra(a) for a in ("C2", "C3", "C4", "Z2", "Z4")]
    c2 = algebras[0]
    kernel_matches = 0
    morphisms_checked = 0
    per_source = {}
    for name, X in ctx["corpus"]["objects"]:
        R = pi1(X, budget=ctx["budget"])
        for n in range(2, min(X.truncation, 3) + 1):
            if cg.kernel_pair(R.unit.components[n]) != R.h[n]:
                raise PropertyViolation(
                    f"kernel of the unit at level {n} of {name} is not "
                    "the join of the pairwise meets"
                )
            kernel_matches += 1
        if any(l.size > 8 for l in X.levels):
            if X.truncation <= 2 or any(l.size > 8 for l in X.levels[:3]):
                continue
            name, X = f"{name}|t2", truncate(X, 2)
            R = pi1(X, budget=ctx["budget"])
        sig = X.levels[0].signature
        targets = [discrete_groupoid(a) for a in algebras
                   if a.signature == sig]
        if c2.signature == sig and X.truncation <= 2:
            targets.append(one_object_groupoid(c2))
        count = 0
        for G in targets:
            NG = nerve(G, X.truncation, budget=ctx["budget"])
            if any(l.size > 4 for l in NG.levels):
                continue
            for F in _nerve_morphisms(X, G, NG):
                universal_property_check(R, F)
                count += 1
        per_source[name] = count
        morphisms_checked += count
    if morphisms_checked == 0:
        raise PropertyViolation("no morphisms enumerated for the check")
    return {
        "unit_kernel_levels": kernel_matches,
        "morphisms_factored": per_source,
    }


# -- criterion 5: groupoid characterization and closure --------------------

def _characterization_suite(ctx):
    levels_compared = 0
    quotients = 0
    for name, X in ctx["corpus"]["objects"]:
        per_level_outer = []
        for n in range(2, X.truncation + 1):
            all_t, outer_t, some_t = groupoid_injectivity_conditions(X, n)
            if not (all_t == outer_t == some_t):
                raise PropertyViolation(
                    f"conditions disagree at level {n} of {name}: "
                    f"{all_t}, {outer_t}, {some_t}"
                )
            per_level_outer.append(outer_t)
            levels_compared += 1
        expected = all(per_level_outer) and all(
            is_two_coskeletal_at_top(truncate(X, n), budget=ctx["budget"])
            for n in range(3, X.truncation + 1)
        )
        groupoid = is_internal_groupoid(X)
        if groupoid != expected:
            raise PropertyViolation(
                f"groupoid detection disagrees with the conditions on {name}"
            )
        if not groupoid:
            continue
        if X.levels[0].size >= 2:
            seeds = {0: [(0, 1)]}
        elif X.levels[1].size >= 2:
            seeds = {1: [(0, 1)]}
        else:
            continue
        parts = simplicial_congruence_generated(X, seeds)
        Q, _ = quotient_simplicial(X, parts)
        check_structure_homs(Q)
        if not is_internal_groupoid(Q):
            raise PropertyViolation(
                f"quotient of the groupoid nerve {name} lost the "
                "groupoid property"
            )
        quotients += 1

    c2 = named_algebra("C2")
    c4 = named_algebra("C4")
    incl = Homomorphism(c2, c4, [0, 2])
    probed, _ = probe_kit(c4, incl, c2, M=2)
    inclusions = [
        ("pair-C2-in-C4", probed),
        ("B-C2-in-B-C4", delooping_extension(incl, 3)),
    ]
    subobjects = 0
    for label, F in inclusions:
        S = _image_subobject(F, f"im-{label}")
        if not is_internal_groupoid(S):
            raise PropertyViolation(
                f"subobject {label} of a groupoid nerve lost the "
                "groupoid property"
            )
        subobjects += 1
    return {
        "levels_compared": levels_compared,
        "quotients": quotients,
        "subobjects": subobjects,
    }


# -- criterion 6: Kan property and fibrations ------------------------------

def _kan_suite(ctx):
    """kan_check raises at a horn without a filler, and
    kan_fibration_check at a horn that a levelwise surjection, as every
    corpus extension is, does not lift."""
    horns = sum(len(kan_check(X, budget=ctx["budget"]))
                for _, X in ctx["corpus"]["objects"])
    thetas = sum(len(kan_fibration_check(F, budget=ctx["budget"]))
                 for _, F in ctx["corpus"]["extensions"])
    return {"horn_maps": horns, "comparison_maps": thetas}


# -- criterion 7: dual-route extension classification ----------------------

def _classification_suite(ctx):
    extensions = ctx["corpus"]["extensions"]
    if len(extensions) < 30:
        raise PropertyViolation(
            f"corpus provides only {len(extensions)} extensions"
        )
    counts = {"trivial": 0, "central": 0, "normal": 0}
    for name, F in extensions:
        report = classify_extension(F, budget=ctx.get("budget"), name=name)
        for key in counts:
            counts[key] += bool(getattr(report, key))
    return {"extensions": len(extensions), **counts}


# -- criterion 8: homotopy relations ---------------------------------------

def _homotopy_relation_suite(ctx):
    absolute = 0
    for name, X in ctx["corpus"]["objects"]:
        homotopy_relation(X)
        absolute += 1
    relative = 0
    connectivity = 0
    for name, F in ctx["corpus"]["extensions"]:
        relative_homotopy_relation(F)
        relative += 1
        fiber_connectivity_relation(F)
        connectivity += 1
    return {
        "absolute": absolute,
        "relative": relative,
        "connectivity": connectivity,
    }


# -- criterion 9: exactness, monotone-light, stabilization -----------------

def _factorization_suite(ctx):
    budget = ctx.get("budget")
    qualifying = 0
    for name, F in ctx["corpus"]["extensions"]:
        try:
            ok, detail = exactness_lemma_check(F, budget=budget)
        except PreconditionUnmet:
            continue
        if not ok:
            raise PropertyViolation(
                f"exactness lemma fails on {name}: {detail}"
            )
        qualifying += 1
    if qualifying == 0:
        raise PropertyViolation("no extension qualified for the lemma")

    sized = sorted(
        ctx["corpus"]["extensions"],
        key=lambda item: sum(l.size for l in item[1].dom.levels),
    )
    small = [
        (name, F) for name, F in sized
        if sum(l.size for l in F.dom.levels) <= 64
    ][:10]
    ml_runs = []
    for name, F in small:
        Z, e, m = ml_factorization(F)
        classify_extension(m, budget=budget)
        em_factorization(F, budget=budget)
        ml_runs.append({
            "name": name,
            "middle_sizes": [l.size for l in Z.levels],
        })

    c2, c4 = named_algebra("C2"), named_algebra("C4")
    v4 = named_algebra("C2xC2")
    probes = []
    for alg, incl_map, companion in (
        (c4, [0, 2], c2),
        (v4, [0, 1], c2),
    ):
        f, exts = probe_kit(alg, Homomorphism(c2, alg, incl_map), companion)
        for entry in stabilizing_probe(f, exts, budget=budget):
            probes.append(f"{alg.name}:{entry['along']}")
    return {
        "exactness_pairs": qualifying,
        "ml_factorizations": ml_runs,
        "stable_pullbacks": probes,
    }


# -- criterion 10: coskeletal meet, commutator chain, graphs, Heyting ------

def _coskeletal_commutator_suite(ctx):
    objects = ctx["corpus"]["objects"]
    tight = 0
    for name, X in objects:
        exact, _ = exactness_check(X, 1, budget=ctx["budget"])
        if not exact:
            continue
        meet01 = face_meet(X, 1, 0, 1)
        lhs = cg.image(X.faces[2][0], face_meet(X, 2, 1, 2))
        if lhs != meet01 or homotopy_congruence_level1(X) != meet01:
            raise PropertyViolation(
                f"object {name} is exact at the arrow level but its "
                "homotopy congruence is below the meet"
            )
        tight += 1
    if tight == 0:
        raise PropertyViolation("no object was exact at the arrow level")

    meet_strict = False
    commutator_strict = False
    chains = 0
    for name, X in objects:
        report = commutator_chain_check(X)
        chains += 1
        if report["meet_equal"] and not report["commutator_equal"]:
            meet_strict = True
        if report["commutator_equal"] and not report["meet_equal"]:
            commutator_strict = True
    if not (meet_strict and commutator_strict):
        raise PropertyViolation(
            "corpus does not realize both strict ends of the chain"
        )

    c2 = named_algebra("C2")
    z2m, z4m = named_algebra("Z2"), named_algebra("Z4")
    graph_cases = [
        (loops_graph(c2, c2), [
            pair_groupoid(c2), discrete_groupoid(named_algebra("C4")),
            one_object_groupoid(c2),
        ]),
        (translation_graph(z4m, z2m, [0, 2]), [
            pair_groupoid(z2m), discrete_groupoid(z4m),
        ]),
    ]
    factored = 0
    for graph, targets in graph_cases:
        # graph_reflection checks every groupoid axiom of G
        G, proj = graph_reflection(graph)
        reps = cg.kernel_pair(proj).reps()
        for H in targets:
            for f0, f1 in _graph_morphisms(graph, H):
                g1 = f1[reps]
                if not np.array_equal(g1[proj.map], f1):
                    raise PropertyViolation(
                        "graph morphism does not descend to the reflection"
                    )
                qg, qf = np.nonzero(
                    G.d1.map[:, None] == G.d0.map[None, :]
                )
                lhs = H.comp[g1[qg], g1[qf]]
                rhs = g1[G.comp[qg, qf]]
                if not np.array_equal(lhs, rhs):
                    raise PropertyViolation(
                        "descended morphism is not a functor"
                    )
                factored += 1
    if factored == 0:
        raise PropertyViolation("no graph morphisms enumerated")

    chain3 = named_algebra("chain3")
    grid = heyting_from_poset({"kind": "grid", "rows": 2, "cols": 2})
    commutator_pairs = 0
    for alg in (chain3, grid):
        congs = cg.enumerate_congruences(alg)
        for a, b in itertools.product(congs, repeat=2):
            if tc_commutator(a, b) != cg.meet(a, b):
                raise PropertyViolation(
                    f"commutator is not the meet on {alg.name}"
                )
            commutator_pairs += 1

    hey_objects = [
        congruence_nerve(chain3, cg.full(chain3), 3),
        congruence_nerve(grid, cg.principal_congruence(grid, 0, 1), 3),
    ]
    hey_objects.append(decalage(hey_objects[0])[0])
    hey_objects.append(decalage(hey_objects[1])[0])
    hey_checked = 0
    for X in hey_objects:
        if homotopy_congruence_level1(X) != face_meet(X, 1, 0, 1):
            raise PropertyViolation(
                f"Heyting object {X.name} misses the meet identity"
            )
        R = pi1(X, budget=ctx["budget"])
        codes = (
            R.groupoid.d0.map.astype(np.int64) * R.groupoid.objects.size
            + R.groupoid.d1.map
        )
        if len(cg.distinct(codes)) != R.groupoid.arrows.size:
            raise PropertyViolation(
                f"Heyting reflection of {X.name} is not an equivalence "
                "relation"
            )
        hey_checked += 1
    return {
        "coskeletal_objects": tight,
        "chains": chains,
        "graph_morphisms_factored": factored,
        "heyting_commutator_pairs": commutator_pairs,
        "heyting_objects": hey_checked,
    }


# -- the runner ------------------------------------------------------------

CRITERIA = [
    (1, "congruence joins and modular law", _lattice_suite),
    (2, "face squares are double extensions", _face_square_suite),
    (3, "triple equality and images of meets", _meet_image_suite),
    (4, "unit kernels and universal property", _reflection_suite),
    (5, "groupoid characterization and closure", _characterization_suite),
    (6, "Kan property and fibrations", _kan_suite),
    (7, "dual-route extension classification", _classification_suite),
    (8, "homotopy relations match lattice formulas", _homotopy_relation_suite),
    (9, "exactness, monotone-light, stabilization", _factorization_suite),
    (10, "coskeletal meet, commutators, graphs, Heyting",
     _coskeletal_commutator_suite),
]


def run_suite(profile="desk", budget=None):
    """Run the full battery; returns one record per criterion.  A bad
    budget raises before any criterion runs, rather than failing each
    criterion that reads it."""
    resolve_budget(budget)
    ctx = {
        "corpus": default_corpus(profile),
        "profile": profile,
        "budget": budget,
    }
    records = []
    for cid, title, fn in CRITERIA:
        try:
            passed, details = True, fn(ctx)
        except SimalError as exc:
            passed = False
            details = {"error": type(exc).__name__, "message": str(exc)}
        records.append({
            "id": cid,
            "title": title,
            "passed": passed,
            "details": details,
        })
    return records


def format_lines(records):
    lines = []
    for rec in records:
        verdict = "PASS" if rec["passed"] else "FAIL"
        line = f"criterion {rec['id']:2d}: {verdict}  {rec['title']}"
        if not rec["passed"]:
            detail = rec["details"]
            line += f"  [{detail.get('error')}: {detail.get('message')}]"
        lines.append(line)
    return lines
