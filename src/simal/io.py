"""JSON interchange for algebras, homomorphisms, simplicial objects,
simplicial morphisms, groupoids and congruences.

One stable on-disk format per object kind.  Every kind but congruences
loads back, fully validated.  Congruence files are write-only: one
refers to its algebra by name alone, so reflect --out writes them and
load_any rejects them as bad input.  Serialization is canonical
(sorted keys, fixed separators) so identical objects produce identical
bytes, and every file can be content-hashed for reproducible reports.

Formats:

  algebra      {"name", "size", "operations": [{"name", "arity", "table"}],
                "maltsev": {"term": ...}}
               with tables as nested row-major arrays (a nullary operation
               is a one-entry array)
  hom          {"dom", "cod", "map": [...]} where dom and cod are inline
               algebra objects, names into a surrounding "algebras" table,
               or file references
  simplicial   {"truncation", "algebras": {name: algebra}, "levels":
                [names], "faces": [[hom ...] ...], "degeneracies": [...]}
  morphism     {"kind": "simplicial_morphism", "dom", "cod",
                "components": [[...] ...]}
  groupoid     {"kind": "groupoid", "algebras", "objects", "arrows",
                "d0", "d1", "s0", "comp"} with -1 for undefined composites
  congruence   {"kind": "congruence", "algebra", "size", "blocks"} using
               the canonical least-member block labelling; write-only
"""

import hashlib
import json
import os

from .algebra import Homomorphism, int_array, int_scalar, validate_algebra
from .errors import InvalidParameters
from .groupoid import InternalGroupoid, validate_groupoid
from .simplicial import (
    SimplicialMorphism,
    TruncatedSimplicialAlgebra,
    _structure_maps,
    validate_simplicial,
)


# -- canonical bytes and hashing -------------------------------------------

def canonical_json(data):
    """Serialize with sorted keys and fixed separators."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def content_hash(data):
    """sha256 of the canonical serialization of a JSON tree."""
    return hashlib.sha256(canonical_json(data).encode("ascii")).hexdigest()


def file_hash(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def save_json(data, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(canonical_json(data))
        fh.write("\n")


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidParameters(f"cannot read JSON from {path}: {exc}") from exc


# -- algebras --------------------------------------------------------------

def algebra_to_json(alg):
    ops = []
    for opname, arity in alg.signature.ops:
        ops.append({
            "name": opname,
            "arity": arity,
            "table": alg.table(opname).tolist(),
        })
    return {
        "name": alg.name,
        "size": alg.size,
        "operations": ops,
        "maltsev": {"term": str(alg.maltsev_term)},
    }


def load_algebra(data):
    """Full validation happens on load; a bad file raises, never returns."""
    if isinstance(data, str):
        data = load_json(data)
    return validate_algebra(data)


# -- homomorphisms ---------------------------------------------------------

def hom_to_json(h, dom_ref=None, cod_ref=None):
    """dom_ref/cod_ref replace the inline algebras with name references."""
    return {
        "dom": dom_ref if dom_ref is not None else algebra_to_json(h.dom),
        "cod": cod_ref if cod_ref is not None else algebra_to_json(h.cod),
        "map": h.map.tolist(),
    }


def _read(data, base_dir):
    """A JSON tree, or a path resolved against base_dir, with the directory
    that the tree's own file references resolve against."""
    if not isinstance(data, str):
        return data, base_dir
    path = data if base_dir is None else os.path.join(base_dir, data)
    return load_json(path), os.path.dirname(path)


def _resolve_algebra(ref, algebras, base_dir):
    if isinstance(ref, dict):
        return load_algebra(ref)
    if isinstance(ref, str):
        if algebras is not None and ref in algebras:
            return algebras[ref]
        path = ref if base_dir is None else os.path.join(base_dir, ref)
        return load_algebra(path)
    raise InvalidParameters(f"cannot resolve algebra reference {ref!r}")


def _algebra_table(raw, base_dir):
    """The algebras of a file's "algebras" object, by name."""
    if not isinstance(raw, dict):
        raise InvalidParameters("'algebras' must be a JSON object")
    return {name: _resolve_algebra(r, None, base_dir) for name, r in raw.items()}


def load_homomorphism(data, algebras=None, base_dir=None, check=True):
    data, base_dir = _read(data, base_dir)
    try:
        dom = _resolve_algebra(data["dom"], algebras, base_dir)
        cod = _resolve_algebra(data["cod"], algebras, base_dir)
        fmap = int_array(data["map"], "homomorphism map")
    except (KeyError, TypeError) as exc:
        raise InvalidParameters(f"homomorphism file missing field: {exc}") from exc
    return Homomorphism(dom, cod, fmap, check=check)


# -- simplicial objects ----------------------------------------------------

def _algebra_names(algebras, defaults):
    """Stable unique name per distinct algebra instance: its own name, or
    its default, with #2, #3, ... appended on a clash."""
    names = {}
    taken = set()
    for alg, default in zip(algebras, defaults):
        if id(alg) in names:
            continue
        base = alg.name or default
        name = base
        k = 1
        while name in taken:
            k += 1
            name = f"{base}#{k}"
        names[id(alg)] = name
        taken.add(name)
    return names


def simplicial_to_json(X):
    names = _algebra_names(X.levels, ["level"] * len(X.levels))
    algebras = {names[id(level)]: algebra_to_json(level) for level in X.levels}
    faces = [[] for _ in range(X.truncation)]
    degeneracies = [[] for _ in range(X.truncation)]
    for n, _, key, f in _structure_maps(X):
        row = faces[n - 1] if key[0] == "d" else degeneracies[n]
        row.append(hom_to_json(f, dom_ref=names[id(f.dom)],
                               cod_ref=names[id(f.cod)]))
    return {
        "kind": "simplicial",
        "name": X.name,
        "truncation": X.truncation,
        "algebras": algebras,
        "levels": [names[id(level)] for level in X.levels],
        "faces": faces,
        "degeneracies": degeneracies,
    }


def load_simplicial(data, base_dir=None):
    data, base_dir = _read(data, base_dir)
    try:
        trunc = int_scalar(data["truncation"], "truncation")
        level_names = list(data["levels"])
        raw_faces = data["faces"]
        raw_degens = data["degeneracies"]
        name = data.get("name", "simplicial")
    except (KeyError, TypeError) as exc:
        raise InvalidParameters(f"simplicial file missing field: {exc}") from exc
    if not isinstance(name, str):
        raise InvalidParameters(f"simplicial name {name!r} is not a string")
    if trunc != len(level_names) - 1:
        raise InvalidParameters(
            f"truncation {trunc} does not match {len(level_names)} levels"
        )
    algebras = _algebra_table(data.get("algebras", {}), base_dir)
    levels = [_resolve_algebra(name, algebras, base_dir)
              for name in level_names]
    # faces start at level 1, degeneracies at level 0; rows the file
    # leaves out are empty
    tables = []
    for key, lead, rows in (("faces", 1, raw_faces),
                            ("degeneracies", 0, raw_degens)):
        if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
            raise InvalidParameters(f"simplicial {key!r} must be a list of lists")
        table = [[]] * lead + [
            [load_homomorphism(h, algebras=algebras, base_dir=base_dir,
                               check=False) for h in row] for row in rows]
        tables.append(table + [[]] * (trunc + 1 - len(table)))
    X = TruncatedSimplicialAlgebra(levels, *tables, name=name)
    return validate_simplicial(X, check_homs=True)


# -- simplicial morphisms --------------------------------------------------

def morphism_to_json(F):
    return {
        "kind": "simplicial_morphism",
        "name": getattr(F, "name", None) or "morphism",
        "dom": simplicial_to_json(F.dom),
        "cod": simplicial_to_json(F.cod),
        "components": [f.map.tolist() for f in F.components],
    }


def load_morphism(data, base_dir=None):
    data, base_dir = _read(data, base_dir)
    try:
        dom = load_simplicial(data["dom"], base_dir=base_dir)
        cod = load_simplicial(data["cod"], base_dir=base_dir)
        raw_comps = data["components"]
        name = data.get("name", "morphism")
    except (KeyError, TypeError) as exc:
        raise InvalidParameters(f"morphism file missing field: {exc}") from exc
    if not isinstance(name, str):
        raise InvalidParameters(f"morphism name {name!r} is not a string")
    if not isinstance(raw_comps, list) or len(raw_comps) != dom.truncation + 1:
        raise InvalidParameters("morphism needs one component per level")
    # a codomain of another truncation gets components for the levels
    # both have, which SimplicialMorphism rejects
    comps = [
        Homomorphism(d, c, int_array(raw, f"component {n}"), check=False)
        for n, (d, c, raw) in enumerate(zip(dom.levels, cod.levels, raw_comps))
    ]
    F = SimplicialMorphism(dom, cod, comps, check=True)
    F.name = name
    return F


# -- groupoids and congruences ---------------------------------------------

def groupoid_to_json(G):
    pair = [G.objects, G.arrows]
    names = _algebra_names(pair, ["objects", "arrows"])
    return {
        "kind": "groupoid",
        "algebras": {names[id(alg)]: algebra_to_json(alg) for alg in pair},
        "objects": names[id(G.objects)],
        "arrows": names[id(G.arrows)],
        "d0": G.d0.map.tolist(),
        "d1": G.d1.map.tolist(),
        "s0": G.s0.map.tolist(),
        "comp": G.comp.tolist(),
    }


def load_groupoid(data, base_dir=None):
    data, base_dir = _read(data, base_dir)
    try:
        algebras = _algebra_table(data["algebras"], base_dir)
        objects = algebras[data["objects"]]
        arrows = algebras[data["arrows"]]
        d0, d1, s0, comp = (int_array(data[key], f"groupoid {key}")
                            for key in ("d0", "d1", "s0", "comp"))
        d0 = Homomorphism(arrows, objects, d0, check=False)
        d1 = Homomorphism(arrows, objects, d1, check=False)
        s0 = Homomorphism(objects, arrows, s0, check=False)
    except (KeyError, TypeError) as exc:
        raise InvalidParameters(f"groupoid file missing field: {exc}") from exc
    return validate_groupoid(InternalGroupoid(objects, arrows, d0, d1, s0, comp))


def congruence_to_json(theta):
    return {
        "kind": "congruence",
        "algebra": theta.on.name,
        "size": theta.on.size,
        "blocks": theta.part.tolist(),
    }


# -- kind sniffing ---------------------------------------------------------

def detect_kind(data):
    """Classify a raw JSON tree by its fields."""
    if not isinstance(data, dict):
        raise InvalidParameters("expected a JSON object at top level")
    kind = data.get("kind")
    if kind in ("simplicial", "simplicial_morphism", "groupoid", "congruence"):
        return kind
    if "operations" in data and "size" in data:
        return "algebra"
    if "components" in data and "dom" in data:
        return "simplicial_morphism"
    if "truncation" in data and "levels" in data:
        return "simplicial"
    if "comp" in data and "d0" in data:
        return "groupoid"
    if "blocks" in data:
        return "congruence"
    if "map" in data and "dom" in data:
        return "homomorphism"
    raise InvalidParameters("unrecognized JSON artifact")


def load_any(path):
    """Load a file of any supported kind, returning (kind, object)."""
    data = load_json(path)
    kind = detect_kind(data)
    base_dir = os.path.dirname(path)
    if kind == "algebra":
        return kind, load_algebra(data)
    if kind == "homomorphism":
        return kind, load_homomorphism(data, base_dir=base_dir)
    if kind == "simplicial":
        return kind, load_simplicial(data, base_dir=base_dir)
    if kind == "simplicial_morphism":
        return kind, load_morphism(data, base_dir=base_dir)
    if kind == "groupoid":
        return kind, load_groupoid(data, base_dir=base_dir)
    raise InvalidParameters(f"cannot load artifact of kind {kind!r}")
