import json
import os
import subprocess
import sys

import numpy as np
import pytest

from simal import io as sio
from simal.algebra import Homomorphism, identity_hom
from simal import cli
from simal.cli import main, run
from simal.corpus import (
    augmentation_extension,
    cyclic_group,
    loops_graph,
    one_object_groupoid,
    pair_groupoid,
)
from simal import suite
from simal.errors import InputError, InvalidParameters, PropertyViolation
from simal.simplicial import (
    TruncatedSimplicialAlgebra,
    constant_simplicial,
    coskeleton,
    nerve,
    quotient_simplicial,
    simplicial_congruence_generated,
    simplicial_kernel,
    truncate,
)


C4 = cyclic_group(4)


def test_algebra_round_trip():
    data = sio.algebra_to_json(C4)
    back = sio.load_algebra(data)
    assert back.size == 4
    assert sio.content_hash(sio.algebra_to_json(back)) == sio.content_hash(data)


def test_homomorphism_round_trip():
    h = Homomorphism(C4, cyclic_group(2), [0, 1, 0, 1])
    data = sio.hom_to_json(h)
    back = sio.load_homomorphism(data)
    assert np.array_equal(back.map, h.map)


def test_simplicial_round_trip():
    X = nerve(pair_groupoid(C4), 3)
    data = sio.simplicial_to_json(X)
    back = sio.load_simplicial(data)
    assert [lvl.size for lvl in back.levels] == [4, 16, 64, 256]
    assert sio.content_hash(sio.simplicial_to_json(back)) == \
        sio.content_hash(data)


def test_morphism_round_trip():
    X = nerve(pair_groupoid(C4), 2)
    parts = simplicial_congruence_generated(X, {0: [(0, 2)]})
    _, q = quotient_simplicial(X, parts)
    data = sio.morphism_to_json(q)
    back = sio.load_morphism(data)
    assert back.is_levelwise_surjective()
    assert sio.content_hash(sio.morphism_to_json(back)) == \
        sio.content_hash(data)


def test_a_repeated_level_is_written_once_and_loaded_as_one_instance(
    tmp_path
):
    # the desk corpus's augment-cosk-loops: its constant codomain has
    # the one algebra C2 at every level
    C2 = cyclic_group(2)
    F = augmentation_extension(coskeleton(loops_graph(C2, C2), 3),
                               identity_hom(C2))
    data = sio.morphism_to_json(F)
    assert data["cod"]["levels"] == ["C2"] * 4
    assert list(data["cod"]["algebras"]) == ["C2"]
    path = str(tmp_path / "augment.json")
    sio.save_json(data, path)
    kind, back = sio.load_any(path)
    assert kind == "simplicial_morphism"
    assert all(level is back.cod.levels[0] for level in back.cod.levels)
    assert sio.morphism_to_json(back) == data


def test_distinct_levels_sharing_a_name_round_trip(tmp_path):
    a, b = cyclic_group(2), cyclic_group(2)
    d = Homomorphism(b, a, [0, 1])
    X = TruncatedSimplicialAlgebra(
        [a, b], [[], [d, d]], [[Homomorphism(a, b, [0, 1])], []],
        name="twin")
    data = sio.simplicial_to_json(X)
    assert data["levels"] == ["C2", "C2#2"]
    path = str(tmp_path / "twin.json")
    sio.save_json(data, path)
    kind, back = sio.load_any(path)
    assert kind == "simplicial"
    assert back.levels[0] is not back.levels[1]
    assert [level.name for level in back.levels] == ["C2", "C2"]
    assert sio.simplicial_to_json(back) == data


def test_groupoid_round_trip():
    G = one_object_groupoid(C4)
    data = sio.groupoid_to_json(G)
    back = sio.load_groupoid(data)
    assert back.arrows.size == 4
    assert np.array_equal(back.comp, G.comp)


def test_load_any_sniffs_kinds(tmp_path):
    X = nerve(pair_groupoid(C4), 2)
    specs = [
        ("a.json", sio.algebra_to_json(C4), "algebra"),
        ("x.json", sio.simplicial_to_json(X), "simplicial"),
        ("g.json", sio.groupoid_to_json(pair_groupoid(C4)), "groupoid"),
        ("h.json", sio.hom_to_json(identity_hom(C4)), "homomorphism"),
    ]
    for fname, data, want in specs:
        p = tmp_path / fname
        sio.save_json(data, str(p))
        kind, obj = sio.load_any(str(p))
        assert kind == want, fname


def test_loading_corrupt_table_is_an_input_error(tmp_path):
    data = sio.algebra_to_json(C4)
    data["operations"][0]["table"][0][0] = 99
    p = tmp_path / "bad.json"
    sio.save_json(data, str(p))
    with pytest.raises(InputError):
        sio.load_any(str(p))


def test_canonical_json_is_stable():
    a = sio.canonical_json({"b": 1, "a": [1, 2]})
    b = sio.canonical_json({"a": [1, 2], "b": 1})
    assert a == b
    assert sio.content_hash({"b": 1, "a": [1, 2]}) == \
        sio.content_hash({"a": [1, 2], "b": 1})


# -- command line ----------------------------------------------------------

def _write_artifacts(tmp_path):
    alg_path = str(tmp_path / "c4.json")
    sio.save_json(sio.algebra_to_json(C4), alg_path)
    X = nerve(one_object_groupoid(C4), 3)
    obj_path = str(tmp_path / "bc4.json")
    sio.save_json(sio.simplicial_to_json(X), obj_path)
    parts = simplicial_congruence_generated(X, {1: [(0, 2)]})
    _, q = quotient_simplicial(X, parts)
    ext_path = str(tmp_path / "ext.json")
    sio.save_json(sio.morphism_to_json(q), ext_path)
    return alg_path, obj_path, ext_path


def test_cli_validate_ok_and_missing(tmp_path):
    alg_path, obj_path, _ = _write_artifacts(tmp_path)
    code, report, lines = run(["validate", alg_path, obj_path])
    assert code == 0
    assert report["violations"] == []
    assert len(report["inputs"]) == 2
    assert all("sha256" in e for e in report["inputs"])
    code, report, _ = run(["validate", str(tmp_path / "absent.json")])
    assert code == 1
    assert report["violations"]


def _write_hom(tmp_path, fmap):
    data = sio.hom_to_json(Homomorphism(C4, cyclic_group(2), [0, 1, 0, 1]))
    data["map"] = fmap
    path = str(tmp_path / "hom.json")
    sio.save_json(data, path)
    return path


def test_cli_validate_summarizes_a_homomorphism(tmp_path):
    code, report, lines = run(["validate", _write_hom(tmp_path, [0, 1, 0, 1])])
    assert code == 0
    assert report["results"]["files"][0]["summary"] == "size 4 -> 2"
    assert lines[0].endswith("homomorphism ok (size 4 -> 2)")


@pytest.mark.parametrize("entry", [0.5, "a"])
def test_cli_validate_rejects_a_non_integer_map_entry(tmp_path, entry):
    path = _write_hom(tmp_path, [0, 1, entry, 1])
    code, report, _ = run(["validate", path])
    assert code == 1
    assert report["violations"][0]["property"] == "InvalidParameters"
    assert "is not an integer" in report["violations"][0]["witness"]


def _quotient_map():
    X = nerve(pair_groupoid(C4), 2)
    parts = simplicial_congruence_generated(X, {0: [(0, 2)]})
    return quotient_simplicial(X, parts)[1]


def _malformed(kind, path, value):
    data = {
        "algebra": lambda: sio.algebra_to_json(C4),
        "simplicial": lambda: sio.simplicial_to_json(nerve(pair_groupoid(C4), 2)),
        "groupoid": lambda: sio.groupoid_to_json(pair_groupoid(C4)),
        "group": lambda: sio.groupoid_to_json(
            one_object_groupoid(cyclic_group(2))),
        "morphism": lambda: sio.morphism_to_json(_quotient_map()),
    }[kind]()
    return _set_entry(data, path, value)


# The value of a _set_entry that deletes the entry.
DROP = object()


def _set_entry(data, path, value):
    """data with the entry at path set to value, or deleted when value
    is DROP; an index one past the end of a list appends."""
    node = data
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    elif isinstance(node, list) and path[-1] == len(node):
        node.append(value)
    else:
        node[path[-1]] = value
    return data


@pytest.mark.parametrize("kind, path, value, error, witness", [
    ("simplicial", ["algebras"], [1], "InvalidParameters",
     "'algebras' must be a JSON object"),
    ("groupoid", ["algebras"], [1], "InvalidParameters",
     "'algebras' must be a JSON object"),
    ("simplicial", ["faces"], 5, "InvalidParameters",
     "simplicial 'faces' must be a list of lists"),
    ("simplicial", ["levels", 0], {"x": 1}, "MalformedTable",
     "algebra description missing field: 'name'"),
    ("algebra", ["maltsev", "term"], 5, "MalformedTable",
     "C4: Mal'tsev term 5 is not a string"),
    ("morphism", ["components"], 5, "InvalidParameters",
     "morphism needs one component per level"),
    ("algebra", ["name"], [1], "MalformedTable",
     "algebra name [1] is not a string"),
    ("simplicial", ["name"], [1], "InvalidParameters",
     "simplicial name [1] is not a string"),
    ("simplicial", ["faces", 0], [], "InvalidParameters",
     "level 1 needs 2 faces"),
    ("simplicial", ["degeneracies", 1], [], "InvalidParameters",
     "level 1 needs 2 degeneracies"),
    ("simplicial", ["degeneracies", 2],
     [{"dom": "N2(C4-pairs)", "cod": "N2(C4-pairs)", "map": list(range(64))}],
     "InvalidParameters", "top level admits no degeneracies"),
    ("simplicial", ["faces", 1, 0],
     {"dom": "C4-pairs", "cod": "C4-pairs", "map": list(range(16))},
     "InvalidParameters", "face d0 at level 2 has wrong endpoints"),
    ("algebra", ["maltsev", "term"], "mul(", "InvalidParameters",
     "unexpected end of term in 'mul('"),
    ("groupoid", ["comp", 0, 0], 99, "InvalidParameters",
     "composition table entry out of range"),
    ("groupoid", ["comp", 0, 1], -7, "InvalidParameters",
     "composition table entry out of range"),
    ("algebra", ["operations", 0, "name"], [1], "MalformedTable",
     "C4: operation name [1] is not a string"),
    ("algebra", ["operations", 0, "name"], {}, "MalformedTable",
     "C4: operation name {} is not a string"),
    ("algebra", ["operations", 0, "arity"], 10**12, "MalformedTable",
     "C4: table 'mul' cannot have arity 1000000000000"),
    ("simplicial", ["truncation"], 10**12, "InvalidParameters",
     "truncation 1000000000000 does not match 3 levels"),
    ("simplicial", ["truncation"], [2], "InvalidParameters",
     "truncation must be a single integer"),
    ("algebra", ["size"], [[4]], "InvalidParameters",
     "algebra size must be a single integer"),
    ("algebra", ["operations", 0, "arity"], [2], "InvalidParameters",
     "arity must be a single integer"),
    ("morphism", ["name"], [1], "InvalidParameters",
     "morphism name [1] is not a string"),
    # the pair groupoid on C4 has arrows (a, b) = 4a + b from a to b, so
    # a -> (0, a) is a homomorphism that d0 takes back to a, not d1
    ("groupoid", ["s0"], [0, 1, 2, 3], "IdentityViolated",
     "d1 s0 is not the identity"),
    ("groupoid", ["comp", 0, 0], -1, "IdentityViolated",
     "composition defined somewhere other than exactly the composable pairs"),
    ("groupoid", ["comp", 0, 0], 1, "IdentityViolated",
     "target of a composite is wrong"),
    ("groupoid", ["comp", 0, 0], 4, "IdentityViolated",
     "source of a composite is wrong"),
    # C2 as a one-object groupoid: every composite has the right ends
    ("group", ["comp", 0, 1], 0, "IdentityViolated", "left unit law fails"),
    ("group", ["comp", 1, 0], 0, "IdentityViolated", "right unit law fails"),
    ("algebra", ["maltsev", "term"], "mul(,x)", "InvalidParameters",
     "unexpected ',' in term 'mul(,x)'"),
    ("algebra", ["maltsev", "term"], "mul(x", "InvalidParameters",
     "unbalanced parentheses in 'mul(x'"),
    ("algebra", ["maltsev", "term"], "mul(x y)", "InvalidParameters",
     "expected ',' or ')' in 'mul(x y)'"),
    ("algebra", ["maltsev", "term"], "mul(x)", "NotMaltsev",
     "C4: operation 'mul' has arity 2, used with 1 arguments"),
    ("algebra", ["operations", 1, "name"], "mul", "InvalidParameters",
     "duplicate operation name in signature"),
    ("morphism", ["components"], DROP, "InvalidParameters",
     "morphism file missing field: 'components'"),
])
def test_cli_validate_rejects_malformed_files(tmp_path, kind, path, value,
                                              error, witness):
    p = str(tmp_path / "bad.json")
    sio.save_json(_malformed(kind, path, value), p)
    code, report, _ = run(["validate", p])
    assert code == 1
    assert report["violations"] == [{"property": error, "witness": witness}]


@pytest.mark.parametrize("data, witness", [
    ([1], "expected a JSON object at top level"),
    ({"levels": []}, "unrecognized JSON artifact"),
])
def test_cli_validate_rejects_a_file_of_no_known_kind(tmp_path, data,
                                                      witness):
    p = str(tmp_path / "bad.json")
    sio.save_json(data, p)
    code, report, _ = run(["validate", p])
    assert code == 1
    assert report["violations"] == [
        {"property": "InvalidParameters", "witness": witness}]


@pytest.mark.parametrize("command", ["validate", "classify", "kan"])
@pytest.mark.parametrize("side", ["dom", "cod"])
def test_cli_rejects_a_morphism_whose_ends_differ_in_truncation(
    tmp_path, side, command
):
    # one end of a truncation-3 quotient cut down to truncation 2, and
    # the components with it when that end is the domain
    _, _, ext_path = _write_artifacts(tmp_path)
    q = sio.load_morphism(ext_path)
    data = sio.morphism_to_json(q)
    data[side] = sio.simplicial_to_json(truncate(getattr(q, side), 2))
    if side == "dom":
        data["components"] = data["components"][:3]
    path = str(tmp_path / "cut.json")
    sio.save_json(data, path)
    code, report, _ = run([command, path])
    assert code == 1
    assert report["violations"] == [
        {"property": "InvalidParameters", "witness": "truncations differ"}]


def _entry_paths(node, path=()):
    """The path of every entry of a JSON tree below its root: every
    number and string, and every list and object as a whole."""
    if isinstance(node, (dict, list)):
        for key in node if isinstance(node, dict) else range(len(node)):
            yield list(path) + [key]
            yield from _entry_paths(node[key], path + (key,))


def test_no_corrupted_leaf_makes_validate_fail_internally(tmp_path):
    # every entry of three small artifacts, set to each value in turn;
    # a corrupt file is bad input (exit 1), never an internal error.  Of a
    # morphism and a homomorphism file only the components or the map,
    # the morphism's name, and dom and cod as wholes: inside those are
    # files swept already
    C2 = cyclic_group(2)
    X = nerve(one_object_groupoid(C2), 2)
    F = quotient_simplicial(
        X, simplicial_congruence_generated(X, {1: [(0, 1)]})
    )[1]
    artifacts = [(data, list(_entry_paths(data))) for data in (
        sio.algebra_to_json(C4),
        sio.simplicial_to_json(X),
        sio.groupoid_to_json(pair_groupoid(C2)),
    )] + [(data, [[field] for field in fields]
           + list(_entry_paths(data[fields[-1]], (fields[-1],))))
          for data, fields in (
              (sio.morphism_to_json(F), ("name", "dom", "cod", "components")),
              (sio.hom_to_json(Homomorphism(C4, C2, [0, 1, 0, 1])),
               ("dom", "cod", "map")),
          )]
    values = [99, -7, "mul(", [1], {}, 10**12]
    path = str(tmp_path / "bad.json")
    cases, internal = 0, []
    for data, entries in artifacts:
        text = json.dumps(data)
        for entry in entries:
            for value in values:
                sio.save_json(_set_entry(json.loads(text), entry, value), path)
                code, report, _ = run(["validate", path])
                cases += 1
                if code == 4:
                    internal.append((entry, value, report["violations"]))
    assert cases == 1980
    assert internal == []


def test_cli_rejects_a_non_integer_budget_from_the_environment(
    tmp_path, monkeypatch
):
    _, obj_path, _ = _write_artifacts(tmp_path)
    monkeypatch.setenv("SIMAL_BUDGET", "abc")
    code, report, _ = run(["kan", obj_path])
    assert code == 1
    assert report["violations"] == [{
        "property": "InvalidParameters",
        "witness": "SIMAL_BUDGET='abc' is not an integer",
    }]


def _delooping(tmp_path):
    path = str(tmp_path / "delooping.json")
    assert run(["gen", "delooping", "algebra=C4", "--out", path])[0] == 0
    return path


def test_cli_rejects_a_negative_budget(tmp_path):
    path = _delooping(tmp_path)
    for argv in (["reflect", path], ["suite"]):
        code, report, _ = run(argv + ["--budget", "-1"])
        assert code == 1
        assert report["violations"] == [{
            "property": "InvalidParameters",
            "witness": "budget -1 is negative",
        }]
    # a budget of 0 is valid, and allows no rows
    code, report, _ = run(["reflect", path, "--budget", "0"])
    assert code == 3
    assert report["violations"][0]["property"] == "LevelTooLarge"


def test_cli_rejects_a_negative_budget_from_the_environment(
    tmp_path, monkeypatch
):
    path = _delooping(tmp_path)
    monkeypatch.setenv("SIMAL_BUDGET", "-3")
    for argv in (["reflect", path], ["suite"]):
        code, report, _ = run(argv)
        assert code == 1
        assert report["violations"] == [{
            "property": "InvalidParameters",
            "witness": "SIMAL_BUDGET='-3' is negative",
        }]


def test_congruence_files_are_write_only(tmp_path):
    _, obj_path, _ = _write_artifacts(tmp_path)
    outdir = str(tmp_path / "refl")
    assert run(["reflect", obj_path, "--out", outdir])[0] == 0
    code, report, _ = run(["validate", os.path.join(outdir, "h1.json")])
    assert code == 1
    assert report["violations"] == [{
        "property": "InvalidParameters",
        "witness": "cannot load artifact of kind 'congruence'",
    }]


def test_non_integer_entries_are_rejected_in_every_kind():
    table = sio.algebra_to_json(C4)
    table["operations"][0]["table"][1][2] = 2.5
    groupoid = sio.groupoid_to_json(pair_groupoid(C4))
    groupoid["comp"][0][0] = "x"
    morphism = sio.morphism_to_json(_quotient_map())
    morphism["components"][0][0] = 0.5
    for load, data in ((sio.load_algebra, table),
                       (sio.load_groupoid, groupoid),
                       (sio.load_morphism, morphism)):
        with pytest.raises(InvalidParameters, match="is not an integer"):
            load(data)


def test_cli_gen_writes_a_loadable_artifact(tmp_path):
    out = str(tmp_path / "gen.json")
    code, report, _ = run(["gen", "delooping", "algebra=C4",
                           "truncation=2", "--out", out])
    assert code == 0
    kind, obj = sio.load_any(out)
    assert kind == "simplicial"
    assert [lvl.size for lvl in obj.levels] == [1, 4, 16]


# The artifact sha256 of `gen` for every simplicial and morphism kind, and
# of the README session's algebra.  A construction that changes a level's
# element order, a structure map or a name changes these bytes.
GEN_PINS = [
    (['cyclic_group', 'n=6'],
     "8df18b52247d6ef3d0cbd10db04711af6e4022a19ed6c413af5fd1b765b011c8"),
    (['pair', 'algebra=C4', 'truncation=3'],
     "c3df7433ddffc2091ab9f4e842e8bf55199f49d6075e5e73889672727fab3b04"),
    (['discrete', 'algebra=S3', 'truncation=3'],
     "5a916d116bc728fa46a6098b9d0801871927bdeef82504f5da6ac1bb984a6446"),
    (['delooping', 'algebra=C4', 'truncation=3'],
     "1bcf5820b514f344aba4b8cf11e3c3641b4cd2cce11e6e7b514bfaf30ada65c1"),
    (['bundle', 'fiber=C2', 'base=C3', 'truncation=3'],
     "81683b444c80e991e4f91bf4e544befdf03b2ed48811dca20ad64ed7c85b2bb3"),
    (['congruence', 'algebra=C6', 'generators=[[0,3]]', 'truncation=3'],
     "48d6d5529f8624b59ead73b9b151ee133f3c81b111880e24f7acc4aba15d4166"),
    (['random_congruence', 'algebra=Z2^2', 'seed=5'],
     "386218c97936d0b754b6db8f681fb8907b5cdbb952f99d4f504a576c88d7645a"),
    (['coset', 'group=S3'],
     "7fefc38e06fbcced23bec039e3d60cecdffe8d12bd4ddb4eaf33c6e96c072ac6"),
    (['sk1_loops', 'base=Z2', 'fiber=Z2'],
     "c8f7cda451bc5e0434188a28c84e8f89c952f17f9cf48ef022dc3a866e45a4e9"),
    (['sk1_translation', 'base=Z4', 'fiber=Z2', 'delta=[0,2]'],
     "b4fe92ad1fade4e9541ebb7ca0d4c4c92bce775bd3b6e2393d1d349f9dfe68ac"),
    (['cosk_loops', 'base=C2', 'fiber=C2', 'truncation=3'],
     "efa1e876a42cb3b733aad1b3ccd22d1148289fa0d3222ff2c9f112b4c79b6353"),
    (['decalage_of', 'of={"kind":"pair","algebra":"C4","truncation":3}'],
     "441d3e183ad7aabb1dd2330eb2292c94dd96403a9de4b16d4242f7d567df925c"),
    (['quotient_extension', 'of={"kind":"cosk_loops","base":"C2",'
      '"fiber":"C2","truncation":3}', 'pairs={"1":[[0,1]]}'],
     "b226e369287a1ff93a64d4948a4edcf6057e81866b4e57e90222e1b27727bb02"),
    (['quotient_extension', 'of={"kind":"pair","algebra":"C4",'
      '"truncation":3}', 'pairs={"0":[[0,2]]}'],
     "3f7337b20ed670c0d0ee04674b96636d4caaf553101a0c8cba6cf8534d5ee608"),
    (['coset', 'group=C4', 'subgroup=[0,2]'],
     "04010534543daeab6eb73dca9964fdb8f0c9313d22aea194a3979ea94904d5b4"),
    (['pair', 'algebra=chain3'],
     "f37a0f7945c454766ace29e1eef6d3d2d211dd1e3f48f7f9ba0991d98a67ad64"),
    (['product_projection', 'left={"kind":"pair","algebra":"C2"}',
      'right={"kind":"delooping","algebra":"C4"}'],
     "8ed00187bc14f4bbc161f0cc80bcfd082800fa86cd522bd0f04c4528c45b4c38"),
]


@pytest.mark.parametrize("params, digest", GEN_PINS,
                         ids=[params[0] for params, _ in GEN_PINS])
def test_cli_gen_artifact_bytes_are_pinned(params, digest):
    code, report, _ = run(["gen"] + params)
    assert code == 0
    assert report["results"]["artifact_sha256"] == digest


def test_cli_gen_seed_flag_feeds_the_spec_unless_a_parameter_sets_it():
    def digest(*params):
        code, report, _ = run(["gen", "random_congruence", "algebra=C4",
                               *params])
        assert code == 0
        return report["results"]["artifact_sha256"]

    by_flag = digest("--seed", "1")
    assert by_flag == digest("seed=1")
    assert by_flag.startswith("83c1affc0f05")
    # an explicit seed parameter wins over the flag
    assert digest("seed=2", "--seed", "1") == digest("seed=2") != by_flag


@pytest.mark.parametrize("top", [0, 1])
def test_cli_commutators_needs_two_levels_of_faces(tmp_path, top):
    path = str(tmp_path / "const.json")
    X = constant_simplicial(cyclic_group(2), top)
    sio.save_json(sio.simplicial_to_json(X), path)
    code, report, _ = run(["commutators", path])
    assert code == 1
    assert report["violations"] == [{
        "property": "PreconditionUnmet",
        "witness": "commutator chain needs two levels of faces",
    }]


def test_cli_reflect_emits_artifacts(tmp_path):
    _, obj_path, _ = _write_artifacts(tmp_path)
    outdir = str(tmp_path / "refl")
    code, report, _ = run(["reflect", obj_path, "--out", outdir])
    assert code == 0
    assert report["results"]["already_groupoid"] is True
    files = sorted(os.listdir(outdir))
    assert files == ["groupoid.json", "h0.json", "h1.json", "h2.json",
                     "h3.json", "unit.json"]
    kind, G = sio.load_any(os.path.join(outdir, "groupoid.json"))
    assert kind == "groupoid"
    assert G.arrows.size == 4


def test_cli_classify_and_factorize(tmp_path):
    _, _, ext_path = _write_artifacts(tmp_path)
    code, report, lines = run(["classify", ext_path])
    assert code == 0
    assert report["results"]["trivial"] is True
    outdir = str(tmp_path / "fac")
    code, report, _ = run(["factorize", ext_path, "--mode", "ml",
                           "--out", outdir])
    assert code == 0
    assert sorted(os.listdir(outdir)) == ["first.json", "middle.json",
                                          "second.json"]


def test_cli_ml_of_the_readme_extension_writes_its_domain(
    tmp_path, monkeypatch
):
    # quot.json from the README session is central, so its ml middle is
    # its domain and the second map is the extension itself
    monkeypatch.chdir(tmp_path)
    code, _, _ = run([
        "gen", "quotient_extension",
        'of={"kind":"pair","algebra":"C4","truncation":2}',
        'pairs={"0":[[0,2]]}', "--out", "quot.json"])
    assert code == 0
    code, report, _ = run(["factorize", "quot.json", "--mode", "ml",
                           "--out", "DIR"])
    assert code == 0
    paths = [os.path.join("DIR", f"{part}.json")
             for part in ("middle", "first", "second")]
    code, checked, _ = run(["validate"] + paths)
    assert code == 0
    assert [f["kind"] for f in checked["results"]["files"]] == [
        "simplicial", "simplicial_morphism", "simplicial_morphism"]
    quot = sio.load_json("quot.json")
    middle, first, second = (sio.load_json(p) for p in paths)
    assert middle == quot["dom"]
    assert first["dom"] == first["cod"] == quot["dom"]
    assert first["components"] == [
        list(range(len(c))) for c in quot["components"]]
    assert second == quot
    assert [w["sha256"] for w in report["results"]["written"]] == [
        sio.content_hash(data) for data in (middle, first, second)]
    # the report of a run without --out holds no artifact hash, so it
    # depends only on the input and the middle's level sizes
    code, report, _ = run(["factorize", "quot.json", "--mode", "ml"])
    assert code == 0
    assert report["results"]["middle_levels"] == [4, 16, 64]
    assert report["report_hash"] == (
        "3f7c67f9ed969a7a73025e4891e88953b740a0431607628914071cb37507be84")


def test_cli_em_of_a_trivial_extension_enumerates_nothing(tmp_path):
    # ext.json is a trivial extension, so em returns it as its own
    # factorization and builds nothing: a budget of 1 is enough
    _, _, ext_path = _write_artifacts(tmp_path)
    outdir = str(tmp_path / "em")
    code, report, _ = run(["factorize", ext_path, "--mode", "em",
                           "--budget", "1", "--out", outdir])
    assert code == 0
    ext = sio.load_json(ext_path)
    middle, first, second = (
        sio.load_json(os.path.join(outdir, f"{part}.json"))
        for part in ("middle", "first", "second"))
    assert middle == ext["dom"]
    assert first["dom"] == first["cod"] == ext["dom"]
    assert first["components"] == [
        list(range(len(c))) for c in ext["components"]]
    assert second == ext
    # quotient-cosk-fibers is not trivial, so em still builds a pullback
    c2 = cyclic_group(2)
    cosk = coskeleton(loops_graph(c2, c2), 3)
    _, q = quotient_simplicial(
        cosk, simplicial_congruence_generated(cosk, {1: [(0, 1)]}))
    path = str(tmp_path / "fibers.json")
    sio.save_json(sio.morphism_to_json(q), path)
    code, report, _ = run(["factorize", path, "--mode", "em",
                           "--budget", "1"])
    assert code == 3
    assert report["violations"][0]["property"] == "LevelTooLarge"


def test_cli_kan_and_cosk_and_commutators(tmp_path):
    _, obj_path, ext_path = _write_artifacts(tmp_path)
    code, report, lines = run(["kan", obj_path])
    assert code == 0
    assert lines == [f"{report['results']['object']}: 7/7 horns have fillers"]
    code, report, _ = run(["kan", ext_path])
    assert code == 0
    code, report, _ = run(["cosk", obj_path])
    assert code == 0
    assert report["results"]["two_coskeletal_at_top"] is True
    code, report, lines = run(["commutators", obj_path])
    assert code == 0
    assert report["results"]["commutator_equal"] is True


def test_cli_cosk_results_are_pinned(tmp_path):
    # the kernel and image sizes, the top kernel's among them, which is
    # counted rather than built; the README's loops object and B(C4)
    loops = coskeleton(loops_graph(cyclic_group(2), cyclic_group(2)), 3)
    bc4 = nerve(one_object_groupoid(C4), 3)
    expected = {
        "cosk(loops(C2,C2),3)": {
            "exactness": [
                {"exact": True, "image_size": 16, "kernel_size": 16,
                 "level": 1},
                {"exact": True, "image_size": 128, "kernel_size": 128,
                 "level": 2}],
            "kernels": [
                {"image_size": 16, "kernel_size": 16, "level_size": 16,
                 "n": 2},
                {"image_size": 128, "kernel_size": 128, "level_size": 128,
                 "n": 3},
                {"kernel_size": 2048, "n": 4}],
            "levels": [2, 4, 16, 128],
            "object": "cosk(loops(C2,C2),3)",
            "two_coskeletal_at_top": True},
        "nerve(C4)": {
            "exactness": [
                {"exact": False, "image_size": 16, "kernel_size": 64,
                 "level": 1},
                {"exact": True, "image_size": 64, "kernel_size": 64,
                 "level": 2}],
            "kernels": [
                {"image_size": 16, "kernel_size": 64, "level_size": 16,
                 "n": 2},
                {"image_size": 64, "kernel_size": 64, "level_size": 64,
                 "n": 3},
                {"kernel_size": 256, "n": 4}],
            "levels": [1, 4, 16, 64],
            "object": "nerve(C4)",
            "two_coskeletal_at_top": True},
    }
    for X in (loops, bc4):
        path = str(tmp_path / "obj.json")
        sio.save_json(sio.simplicial_to_json(X), path)
        code, report, _ = run(["cosk", path])
        assert code == 0
        # byte for byte, so True cannot stand in for 1
        assert json.dumps(report["results"], sort_keys=True) == json.dumps(
            expected[X.name], sort_keys=True)
        top = simplicial_kernel(X, X.truncation + 1)[0].size
        assert report["results"]["kernels"][-1]["kernel_size"] == top


def test_cli_budget_exit_code(tmp_path):
    _, obj_path, _ = _write_artifacts(tmp_path)
    code, report, _ = run(["cosk", obj_path, "--budget", "3"])
    assert code == 3
    assert report["violations"][0]["property"] in (
        "BudgetExceeded", "LevelTooLarge"
    )


def test_cli_factorize_ml_takes_no_budget(tmp_path):
    _, _, ext_path = _write_artifacts(tmp_path)
    code, report, _ = run(["factorize", ext_path, "--mode", "ml",
                           "--budget", "1"])
    assert code == 1
    assert report["violations"] == [{
        "property": "InvalidParameters",
        "witness": "simal factorize: argument --budget: not allowed with "
                   "--mode ml",
    }]
    assert report["inputs"] == []


def test_cli_reflect_takes_its_budget_over_the_environment(
    tmp_path, monkeypatch
):
    # pi1 validates its groupoid without enumerating composable pairs, so
    # only the caller's budget bounds the nerve it builds
    path = str(tmp_path / "pair.json")
    sio.save_json(sio.simplicial_to_json(nerve(pair_groupoid(C4), 3)), path)
    monkeypatch.setenv("SIMAL_BUDGET", "10")
    code, report, _ = run(["reflect", path, "--budget", "1000000"])
    assert code == 0
    assert report["results"]["nerve_levels"] == [4, 16, 64, 256]
    monkeypatch.setenv("SIMAL_BUDGET", "1000000")
    code, report, _ = run(["reflect", path, "--budget", "10"])
    assert code == 3


def test_cli_wrong_kind_exit_code(tmp_path):
    alg_path, _, _ = _write_artifacts(tmp_path)
    code, report, _ = run(["reflect", alg_path])
    assert code == 1


@pytest.mark.parametrize("value, entry", [("abc", "'abc'"), ("2.5", "2.5")])
def test_cli_gen_rejects_a_non_integer_parameter(value, entry, capsys):
    code, report, lines = run(["gen", "cyclic_group", f"n={value}"])
    assert code == 1
    assert report["violations"] == [{
        "property": "InvalidParameters",
        "witness": f"parameter 'n': entry {entry} is not an integer",
    }]
    assert "report_hash" in report
    assert main(["gen", "cyclic_group", f"n={value}"]) == 1
    assert capsys.readouterr().out.startswith("error: parameter 'n'")


POSET_WITNESS = ("poset must be a chain or grid kind, or a square, "
                 "non-empty 0/1 order matrix")


@pytest.mark.parametrize("params, witness", [
    (["cyclic_group"], "generator spec needs a 'n' field"),
    (["cyclic_group", "n=[4,4]"], "parameter 'n' must be a single integer"),
    (["congruence", "algebra=C4", "generators=[[0,4]]"],
     "generators must be pairs of elements of C4"),
    (["sk1_translation", "base=C4", "fiber=C2", "delta=[1,-1]"],
     "delta must list elements of C4"),
    (["quotient_extension", 'of={"kind":"delooping","algebra":"C4"}',
      'pairs={"x":[[0,1]]}'],
     "pairs level 'x' is not a level of nerve(C4) (0..2)"),
    (["quotient_extension", 'of={"kind":"delooping","algebra":"C4"}',
      'pairs={"1":[[0,99]]}'],
     "pairs at level 1 must be pairs of elements of C4"),
    (["quotient_extension", 'of={"kind":"cyclic_group","n":4}', "pairs={}"],
     "parameter 'of' must give a simplicial object"),
    (["coset", "group=S3", 'subgroup=["a"]'],
     "parameter 'subgroup': entry 'a' is not an integer"),
    (["coset", "group=S3", "subgroup=[0, 99]"],
     "subgroup must list elements of S3"),
    (["pair"], "generator spec needs a 'algebra' field"),
    (["pair", "algebra=3"], "algebra name 3 is not a string"),
    (["bundle", "fiber=C2"], "generator spec needs a 'base' field"),
    (["coset"], "generator spec needs a 'group' field"),
    (["decalage_of"], "generator spec needs a 'of' field"),
    (["product_projection"], "generator spec needs a 'left' field"),
    (["product_projection", 'left={"kind":"pair","algebra":"C2"}'],
     "generator spec needs a 'right' field"),
    (["heyting_from_poset"], "generator spec needs a 'poset' field"),
    (["heyting_from_poset", "poset=3"], POSET_WITNESS),
    (["heyting_from_poset", "poset=[[1,0],[1]]"], POSET_WITNESS),
    (["heyting_from_poset", "poset=[[1,2],[0,1]]"], POSET_WITNESS),
    (["decalage_of", 'of={"kind":"cyclic_group","n":2}'],
     "parameter 'of' must give a simplicial object"),
    (["product_projection", 'left={"kind":"cyclic_group","n":2}',
      'right={"kind":"cyclic_group","n":2}'],
     "parameter 'left' must give a simplicial object"),
    (["product_projection", 'left={"kind":"pair","algebra":"C2"}',
      'right={"kind":"cyclic_group","n":2}'],
     "parameter 'right' must give a simplicial object"),
    (["coset", "group=C4"], "C4 is not a permutation group"),
    (["sk1_translation", "base=C4", "fiber=C2", "delta=3"],
     "delta must list elements of C4"),
    (["cosk_loops", "base=C2", "fiber=C2", "truncation=-1"],
     "coskeleton truncation -1 is below the truncation 1 of loops(C2,C2)"),
    (["cosk_loops", "base=C2", "fiber=C2", "truncation=0"],
     "coskeleton truncation 0 is below the truncation 1 of loops(C2,C2)"),
    (["coset", "group=S3", "subgroup=[0,0,3,4]"],
     "subgroup lists an element twice"),
    (["heyting_from_poset", 'poset={"kind":"chain","n":-3}'], POSET_WITNESS),
    (["heyting_from_poset", 'poset={"kind":"grid","rows":-1,"cols":2}'],
     POSET_WITNESS),
    (["heyting_from_poset", 'poset={"kind":"grid","rows":-1,"cols":-2}'],
     POSET_WITNESS),
    (["coset_sign", "group=C4"], "C4 is not a permutation group"),
    (["product_projection", 'left={"kind":"pair","algebra":"C2"}',
      'right={"kind":"pair","algebra":"C2"}', "side=middle"],
     "parameter 'side' must be left or right"),
    (["delooping", "algebra=S5"], "symmetric group supported for n <= 4"),
    # S3's elements in order: 0 the identity, 1, 2 and 5 transpositions,
    # 3 and 4 the two 3-cycles
    (["coset", "group=S3", "subgroup=[0,3]"],
     "subgroup not closed under inverse"),
    (["coset", "group=S3", "subgroup=[0,1,2]"],
     "subgroup not closed under product"),
    # 0/1 matrices that are no partial order
    (["heyting_from_poset", "poset=[[0,1],[1,1]]"],
     "poset is not reflexive: entry (0,0) is 0"),
    (["heyting_from_poset", "poset=[[1,1],[1,1]]"],
     "poset is not antisymmetric: entries (0,1) and (1,0) are 1"),
    # a 3-cycle has every meet and join, and no bottom or top
    (["heyting_from_poset", "poset=[[1,0,1],[1,1,0],[0,1,1]]"],
     "poset is not transitive: entries (0,2) and (2,1) are 1, (0,1) is 0"),
    # a delooping has truncation 2 by default
    (["product_projection",
      'left={"kind":"pair","algebra":"C2","truncation":3}',
      'right={"kind":"delooping","algebra":"C4"}'],
     "product needs equal truncations"),
])
def test_cli_gen_rejects_malformed_parameters(params, witness):
    code, report, _ = run(["gen"] + params)
    assert code == 1
    assert report["violations"] == [
        {"property": "InvalidParameters", "witness": witness}
    ]


@pytest.mark.parametrize("params, witness", [
    (["delooping", "algebra=Z4"], "Z4 is not in the group signature"),
    (["delooping", "algebra=chain3"], "H-chain3 is not in the group signature"),
    (["delooping", "algebra=Z2^0"], "Z2^0 is not in the group signature"),
    (["bundle", "fiber=Z4", "base=C2"], "Z4 is not in the group signature"),
    (["coset", "group=Z4", "subgroup=[0,2]"],
     "Z4 is not in the group signature"),
])
def test_cli_gen_rejects_an_algebra_outside_the_group_signature(
    params, witness
):
    code, report, _ = run(["gen"] + params)
    assert code == 1
    assert report["violations"] == [
        {"property": "UnsupportedVariety", "witness": witness}
    ]


# A valid small spec of every README generator kind, by its long name.
@pytest.mark.parametrize("params, witness", [
    # order matrices, leq[i][j] = 1 when i <= j
    (["heyting_from_poset", "poset=[[1,0],[0,1]]"],
     "poset is not a lattice (meet missing)"),
    (["heyting_from_poset", "poset=[[1,1,1],[0,1,0],[0,0,1]]"],
     "poset is not a lattice (join missing)"),
    # 2 and 3 both lie below 0 and 1, so 0 and 1 have two greatest
    # lower bounds
    (["heyting_from_poset", "poset=[[1,0,0,0,0],[0,1,0,0,0],[1,1,1,0,0],"
      "[1,1,0,1,0],[1,1,1,1,1]]"],
     "poset is not a lattice (meet missing)"),
    # M3, the diamond with three atoms, is a lattice but not distributive
    (["heyting_from_poset", "poset=[[1,1,1,1,1],[0,1,0,0,1],[0,0,1,0,1],"
      "[0,0,0,1,1],[0,0,0,0,1]]"],
     "poset has no relative pseudocomplement"),
    (["sk1_loops", "base=C2", "fiber=C2"],
     "level sums need the module signature"),
])
def test_cli_gen_rejects_a_structure_outside_its_variety(params, witness):
    code, report, _ = run(["gen"] + params)
    assert code == 1
    assert report["violations"] == [
        {"property": "UnsupportedVariety", "witness": witness}
    ]


GEN_SPECS = {
    "cyclic_group": {"n": 3},
    "dihedral_group": {"n": 3},
    "symmetric_group_3": {},
    "zk_module": {"k": 2, "copies": 1},
    "heyting_from_poset": {"poset": {"kind": "chain", "n": 3}},
    "pair_groupoid": {"algebra": "C2"},
    "discrete_groupoid": {"algebra": "C2"},
    "delooping": {"algebra": "C2"},
    "bundle": {"fiber": "C2", "base": "C2"},
    "congruence_nerve": {"algebra": "C4", "generators": [[0, 2]]},
    "random_congruence": {"algebra": "C4", "seed": 1},
    "crossed_module_groupoid": {"group": "C4", "subgroup": [0, 2]},
    "sk1_loops": {"base": "Z2", "fiber": "Z2"},
    "sk1_translation": {"base": "Z4", "fiber": "Z2", "delta": [0, 2]},
    "coskeleton_of_graph": {"base": "C2", "fiber": "C2"},
    "decalage_of": {"of": {"kind": "pair", "algebra": "C2"}},
    "quotient_extension": {"of": {"kind": "pair", "algebra": "C4"},
                           "pairs": {"0": [[0, 2]]}},
    "product_projection": {"left": {"kind": "pair", "algebra": "C2"},
                           "right": {"kind": "delooping", "algebra": "C2"},
                           "side": "right"},
    "decalage_counit": {"of": {"kind": "pair", "algebra": "C2"}},
    "augmentation": {"of": {"kind": "sk1_loops", "base": "Z2",
                            "fiber": "Z2"}},
    "pi1_unit": {"of": {"kind": "pair", "algebra": "C2"}},
    "congruence_extension": {"algebra": "C4", "theta": [[0, 1]],
                             "psi": [[0, 2]]},
    "delooping_extension": {"dom": "C4", "cod": "C2", "map": [0, 1, 0, 1]},
    "bundle_collapse": {"fiber": "C2", "base": "C2"},
    "coset_sign": {"group": "S3"},
}


def test_no_bad_generator_parameter_makes_gen_fail_internally():
    # every parameter of every README kind, truncation included, set to
    # each small bad value in turn; bad input is exit 1 (or a result),
    # never an internal error
    values = [-1, 0, "x", [1], {}, None, 1.5, True,
              {"kind": "chain", "n": -3},
              {"kind": "grid", "rows": -1, "cols": 2},
              "Z4", "chain3", "S3", "C1", "Z2^0"]
    cases, internal = 0, []
    for kind, spec in GEN_SPECS.items():
        assert run(["gen", kind] + [f"{key}={json.dumps(value)}"
                                    for key, value in spec.items()])[0] == 0
        for key in list(spec) + ["truncation"]:
            for value in values:
                params = dict(spec, **{key: value})
                code, report, _ = run(["gen", kind] + [
                    f"{k}={json.dumps(v)}" for k, v in params.items()])
                cases += 1
                if code == 4:
                    internal.append((kind, key, value, report["violations"]))
    assert cases == 990
    assert internal == []


@pytest.mark.parametrize("argv, witness", [
    (["bogus"], "simal: argument command: invalid choice: 'bogus'"),
    (["suite", "--budget", "abc"],
     "simal suite: argument --budget: invalid int value: 'abc'"),
    (["gen", "cyclic_group", "n=2", "--budget", "5"],
     "simal: unrecognized arguments: --budget 5"),
    (["validate", "c4.json", "--budget", "1"],
     "simal: unrecognized arguments: --budget 1"),
    (["commutators", "bc4.json", "--budget", "1"],
     "simal: unrecognized arguments: --budget 1"),
])
def test_cli_usage_error_is_bad_input_with_a_report(argv, witness, capsys):
    code, report, lines = run(argv)
    assert code == 1
    assert report["command"] is None
    [violation] = report["violations"]
    assert violation["property"] == "InvalidParameters"
    assert violation["witness"].startswith(witness)
    assert "report_hash" in report
    assert main(argv) == 1
    assert capsys.readouterr().out.startswith(f"error: {witness}")


def test_cli_maps_an_unexpected_exception_to_exit_code_4(
    tmp_path, monkeypatch, capsys
):
    alg_path, _, _ = _write_artifacts(tmp_path)

    def broken(args, inputs, out_lines):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "validate", broken)
    code, report, lines = run(["validate", alg_path])
    assert code == 4
    assert report["violations"] == [
        {"property": "InternalError", "witness": "RuntimeError: boom"}
    ]
    assert "report_hash" in report
    assert report["traceback"].rstrip().endswith("RuntimeError: boom")
    assert lines == ["error: RuntimeError: boom"]
    assert main(["validate", alg_path, "--json"]) == 4
    printed = json.loads(capsys.readouterr().out)
    assert printed["violations"][0]["property"] == "InternalError"


def test_cli_main_reads_the_parsed_json_flag(capsys):
    # "--json" after "--" is a positional parameter, not the flag
    assert main(["gen", "cyclic_group", "--", "--json"]) == 1
    out = capsys.readouterr().out
    assert out == "error: parameter '--json' is not KEY=VALUE\n"


def test_cli_report_hash_ignores_elapsed(tmp_path):
    _, obj_path, _ = _write_artifacts(tmp_path)
    _, first, _ = run(["cosk", obj_path])
    _, second, _ = run(["cosk", obj_path])
    assert first["report_hash"] == second["report_hash"]
    del first["elapsed"], second["elapsed"]
    assert first == second


def test_cli_report_out_writes_report(tmp_path):
    _, obj_path, _ = _write_artifacts(tmp_path)
    report_path = str(tmp_path / "report.json")
    code, report, _ = run(["commutators", obj_path, "--out", report_path])
    assert code == 0
    stored = sio.load_json(report_path)
    assert stored["report_hash"] == report["report_hash"]


def test_cli_json_mode_prints_report(tmp_path, capsys):
    alg_path, _, _ = _write_artifacts(tmp_path)
    code = main(["validate", alg_path, "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "validate"
    assert payload["violations"] == []


def test_cli_suite_prints_one_line_per_criterion(capsys):
    code = main(["suite", "--profile", "desk"])
    assert code == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    marks = [ln for ln in out_lines if ln.startswith("criterion")]
    assert len(marks) == 10
    assert all("PASS" in ln for ln in marks)


def test_cli_suite_exits_with_the_code_its_failures_share(monkeypatch):
    argv = ["suite", "--profile", "desk", "--budget", "20"]
    code, report, _ = run(argv)
    failed = [r["id"] for r in report["results"]["criteria"]
              if not r["passed"]]
    assert failed == [2, 4, 5, 6, 7, 9, 10]
    # every failure ran past the budget, so the suite exits as one does
    assert code == 3
    assert report["violations"] == [
        {"property": f"criterion {cid}",
         "witness": "tuple enumeration exceeds budget 20"}
        for cid in failed]

    def violated(ctx):
        raise PropertyViolation("criterion 1 fails on purpose")

    cid, title, _ = suite.CRITERIA[0]
    monkeypatch.setattr(suite, "CRITERIA",
                        [(cid, title, violated)] + suite.CRITERIA[1:])
    code, report, _ = run(argv)
    assert code == 2
    assert report["violations"][0] == {
        "property": "criterion 1", "witness": "criterion 1 fails on purpose"}
    assert len(report["violations"]) == 8


def test_cli_suite_passes_with_asserts_stripped():
    # python -O drops every assert statement; no check may depend on one
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "simal.cli", "suite", "--profile", "desk"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "10/10 criteria passed" in proc.stdout
