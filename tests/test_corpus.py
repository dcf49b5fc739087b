import json

import numpy as np
import pytest

from simal import corpus as corpus_module
from simal.algebra import FiniteAlgebra, check_homomorphism
from simal.cli import run
from simal.corpus import (
    CORPUS,
    SplitMix,
    default_corpus,
    generate,
    heyting_from_poset,
    loops_graph,
    named_algebra,
    spec_from_params,
    translation_graph,
    zk_module,
)
from simal.errors import InvalidParameters
from simal.io import content_hash, simplicial_to_json, morphism_to_json
from simal.simplicial import (
    SimplicialMorphism,
    TruncatedSimplicialAlgebra,
    validate_simplicial,
)


def test_desk_corpus_shape():
    corpus = default_corpus("desk")
    assert len(corpus["objects"]) == 11
    assert len(corpus["extensions"]) == 32
    names = [name for name, _ in corpus["objects"]]
    assert len(set(names)) == len(names)
    ext_names = [name for name, _ in corpus["extensions"]]
    assert len(set(ext_names)) == len(ext_names)


def test_deep_corpus_contains_desk():
    desk = default_corpus("desk")
    deep = default_corpus("deep")
    assert len(deep["objects"]) == 17
    assert len(deep["extensions"]) == 40
    desk_objects = {name for name, _ in desk["objects"]}
    assert desk_objects <= {name for name, _ in deep["objects"]}
    desk_exts = {name for name, _ in desk["extensions"]}
    assert desk_exts <= {name for name, _ in deep["extensions"]}


# The first 16 hex digits of the content_hash of every member's artifact,
# recorded from the hand-written corpus that CORPUS replaced; a desk
# member reads the same in a desk and a deep build.
MEMBER_PINS = {
    "pair-C2-t3": "e4429ec87efe0672",
    "pair-C4-t3": "457dee230fb1b5f5",
    "disc-C4-t3": "d2691719e1208554",
    "B-C4-t3": "fb3648c283bd5e9f",
    "B-V4-t3": "29ab2ade507ade4d",
    "bundle-C2-C3-t3": "72d844830898d351",
    "cong-Z6-t3": "315a9d9d48292176",
    "coset-S3-t2": "236d02ecdf76fe69",
    "sk1-loops-Z2": "e43d02ece41bbf9b",
    "sk1-transl-Z4": "1e12f09b940dc63e",
    "cosk-loops-C2-t3": "badaf7ae877e71fc",
    "pair-S3-t3": "d6e41f171adbc183",
    "pair-D4-t2": "e5b3d4eca934406d",
    "B-C6-t3": "d00b900b2b693432",
    "bundle-V4-C4-t2": "f4476cd7e54b4dc0",
    "cosk-loops-C4-t3": "6258100a35b989ae",
    "sk1-loops-Z3": "692248f68c317373",
    "pairC4-pairC2": "5a5a3e1bcf33ff9d",
    "congC4-discC2": "1ab05ed9b4df808a",
    "discC4-discC2": "2badc4f9e5670d21",
    "congZ6-mix": "4a5201e3618b81ce",
    "pairZ6-pairC3": "f9d95191e64190b1",
    "pairS3-pairC2": "804bcdfe3dbfd76d",
    "congS3-discC2": "08b40a2703ecb1aa",
    "pairZ22-pairZ2": "00bc9ca8d1e92d19",
    "pairD4-center": "7f5a685c06440fb0",
    "heyting-chain3": "f1a7eb96b49d2be0",
    "deloop-C4-C2": "6e04b0a7238644ae",
    "deloop-V4-C2": "ffeb1f20b1b6a7cf",
    "deloop-C6-C3": "5650e412b6f29b05",
    "deloop-C6-C2": "7134870fdd92e662",
    "deloop-C4-id": "d7c3f642ae2b6091",
    "bundle-C2-C3-collapse": "32415532a8ffb670",
    "bundle-C2-S3-collapse": "decd2568c8aa1590",
    "bundle-V4-C2-collapse": "4d0f747fb06fc420",
    "product-proj-left": "1fc71f26b6c850e8",
    "product-proj-right": "661629977e5cf7ca",
    "dec-counit-pairC4": "b6ad84804d0847ea",
    "dec-counit-B-C4": "d54f0330812aaac2",
    "augment-cosk-loops": "f1ef8dfe02dbc016",
    "augment-sk1-loops": "5a5b47e1a4400d23",
    "quotient-sk1-transl": "8d1d9d902a6ab7b5",
    "quotient-cosk-fibers": "ea53faff26c9f5f1",
    "coset-disc-C2": "889f76675a73a77f",
    "unit-pair-C2": "df7cee825c6a7760",
    "unit-bundle-C2-C3": "2c3b5883bd6cc929",
    "unit-sk1-loops": "418c759e085bb5f5",
    "unit-cosk-loops": "78be507f7151ccc6",
    "unit-coset-S3": "ce3860ef666dd879",
    "pairC6-pairC2": "b60109bc75718e88",
    "pairC6-pairC3-t3": "c8e57b077fa062a9",
    "pairC4-pairC2-t3": "1eba6599e56b0e2d",
    "deloop-C8-C4": "81b0b6b9231fba24",
    "heyting-grid-ext": "5333a80c2843db9d",
    "bundle-C3-C4-collapse": "3261fa497c6740ce",
    "unit-pair-C4": "62bb058e363c8a0a",
    "unit-bundle-V4-C4": "0d1e9ecb45375c7e",
}


def artifact_json(member):
    if isinstance(member, SimplicialMorphism):
        return morphism_to_json(member)
    return simplicial_to_json(member)


@pytest.fixture(scope="module")
def deep_members():
    corpus = default_corpus("deep")
    return dict(corpus["objects"] + corpus["extensions"])


@pytest.mark.parametrize("profile", ["desk", "deep"])
def test_every_member_artifact_is_pinned(profile):
    corpus = default_corpus(profile)
    digests = {}
    for name, member in corpus["objects"] + corpus["extensions"]:
        data = artifact_json(member)
        if name == "unit-bundle-V4-C4":
            # its domain is the bundle-V4-C4-t2 object, where it used to
            # be an unshared copy; under that copy's names its bytes are
            # those of the hand-written corpus
            assert data["dom"]["name"] == "bundle-V4-C4-t2"
            assert data["cod"]["name"] == "N(Pi1 bundle-V4-C4-t2)"
            data["dom"]["name"] = "nerve((C2xC2|C4))"
            data["cod"]["name"] = "N(Pi1 nerve((C2xC2|C4)))"
        digests[name] = content_hash(data)[:16]
    expected = {name: digest for name, digest in MEMBER_PINS.items()
                if name in digests}
    assert len(expected) == (11 + 32 if profile == "desk" else 57)
    assert digests == expected


def test_no_two_corpus_rows_share_a_spec():
    specs = [json.dumps(spec_from_params(kind, params), sort_keys=True)
             for _, _, kind, *params in map(str.split, CORPUS)]
    assert len(specs) == 57
    assert len(set(specs)) == len(specs)


def test_a_nested_spec_reads_the_instance_of_its_row(deep_members):
    m = deep_members
    for ext, obj in (("augment-cosk-loops", "cosk-loops-C2-t3"),
                     ("augment-sk1-loops", "sk1-loops-Z2"),
                     ("quotient-sk1-transl", "sk1-transl-Z4"),
                     ("quotient-cosk-fibers", "cosk-loops-C2-t3"),
                     ("unit-pair-C2", "pair-C2-t3"),
                     ("unit-sk1-loops", "sk1-loops-Z2"),
                     ("unit-coset-S3", "coset-S3-t2"),
                     ("unit-bundle-V4-C4", "bundle-V4-C4-t2")):
        assert m[ext].dom is m[obj], ext
    assert m["dec-counit-pairC4"].cod.name == "tr2(pair-C4-t3)"
    assert m["dec-counit-B-C4"].cod.name == "tr2(B-C4-t3)"
    assert m["product-proj-left"].dom is m["product-proj-right"].dom
    # and an algebra name met twice is one instance
    assert m["pair-C4-t3"].levels[0] is m["disc-C4-t3"].levels[0]


def sizes(data):
    return [data["algebras"][level]["size"] for level in data["levels"]]


@pytest.mark.parametrize("row", CORPUS, ids=[row.split()[0] for row in CORPUS])
def test_every_corpus_row_rebuilds_with_gen(row, deep_members):
    name, _, kind, *params = row.split()
    code, report, lines = run(["gen", kind, *params])
    assert code == 0
    data = json.loads(lines[0])
    expected = artifact_json(deep_members[name])
    if data["kind"] == "simplicial":
        assert sizes(data) == sizes(expected)
    else:
        assert sizes(data["dom"]) == sizes(expected["dom"])
        assert sizes(data["cod"]) == sizes(expected["cod"])


def test_a_row_that_is_not_surjective_is_rejected(monkeypatch):
    monkeypatch.setattr(corpus_module, "CORPUS", CORPUS + (
        "into-C4 desk delooping_extension dom=C2 cod=C4 map=[0,2]",
    ))
    with pytest.raises(InvalidParameters,
                       match="corpus extension into-C4 is not surjective"):
        default_corpus("desk")


def test_corpus_rejects_unknown_profile():
    with pytest.raises(InvalidParameters):
        default_corpus("casual")


def test_every_corpus_object_validates():
    corpus = default_corpus("desk")
    for name, X in corpus["objects"]:
        validate_simplicial(X, check_homs=True)


def test_every_corpus_extension_is_levelwise_surjective():
    corpus = default_corpus("desk")
    for name, F in corpus["extensions"]:
        assert F.is_levelwise_surjective(), name
        for comp in F.components:
            check_homomorphism(comp)


def test_named_algebra_patterns():
    assert named_algebra("C12").size == 12
    assert named_algebra("D4").size == 8
    assert named_algebra("S3").size == 6
    assert named_algebra("Z2^3").size == 8
    assert named_algebra("Z6").size == 6
    assert named_algebra("chain4").size == 4
    assert named_algebra("grid2x3").size == 6
    v4 = named_algebra("C2xC2")
    assert (v4.name, v4.size) == ("C2xC2", 4)
    with pytest.raises(InvalidParameters):
        named_algebra("Q8")


def test_generate_algebra_kinds():
    for spec, size in (
        ({"kind": "cyclic_group", "n": 5}, 5),
        ({"kind": "dihedral_group", "n": 3}, 6),
        ({"kind": "symmetric_group_3"}, 6),
        ({"kind": "zk_module", "k": 3, "copies": 2}, 9),
        ({"kind": "heyting_from_poset",
          "poset": {"kind": "chain", "n": 4}}, 4),
    ):
        alg = generate(spec)
        assert isinstance(alg, FiniteAlgebra)
        assert alg.size == size


def test_generate_nerve_kinds():
    for spec, sizes in (
        ({"kind": "pair_groupoid", "algebra": "C3", "truncation": 2},
         [3, 9, 27]),
        ({"kind": "discrete_groupoid", "algebra": "C3", "truncation": 2},
         [3, 3, 3]),
        ({"kind": "delooping", "algebra": "C4", "truncation": 3},
         [1, 4, 16, 64]),
        ({"kind": "bundle", "fiber": "C2", "base": "C3", "truncation": 2},
         [3, 6, 12]),
        ({"kind": "congruence_nerve", "algebra": "Z6",
          "generators": [[0, 3]], "truncation": 2}, [6, 12, 24]),
        ({"kind": "crossed_module_groupoid", "group": "S3",
          "truncation": 2}, [6, 18, 54]),
        ({"kind": "sk1_loops", "base": "Z2", "fiber": "Z2"}, [2, 4, 8]),
        ({"kind": "sk1_translation", "base": "Z4", "fiber": "Z2",
          "delta": [0, 2]}, [4, 8, 16]),
        ({"kind": "coskeleton_of_graph", "base": "C2", "fiber": "C2",
          "truncation": 3}, [2, 4, 16, 128]),
    ):
        X = generate(spec)
        assert isinstance(X, TruncatedSimplicialAlgebra), spec["kind"]
        assert [lvl.size for lvl in X.levels] == sizes, spec["kind"]


def test_generate_morphism_kinds():
    inner = {"kind": "pair_groupoid", "algebra": "C4", "truncation": 3}
    dec = generate({"kind": "decalage_of", "of": inner})
    assert isinstance(dec, TruncatedSimplicialAlgebra)
    assert [lvl.size for lvl in dec.levels] == [16, 64, 256]

    quot = generate({
        "kind": "quotient_extension",
        "of": {"kind": "pair_groupoid", "algebra": "C4", "truncation": 2},
        "pairs": {"0": [[0, 2]]},
    })
    assert isinstance(quot, SimplicialMorphism)
    assert quot.is_levelwise_surjective()

    proj = generate({
        "kind": "product_projection",
        "left": {"kind": "pair_groupoid", "algebra": "C2", "truncation": 2},
        "right": {"kind": "delooping", "algebra": "C3", "truncation": 2},
    })
    assert isinstance(proj, SimplicialMorphism)
    assert proj.is_levelwise_surjective()


def test_generate_rejects_unknown_kind():
    with pytest.raises(InvalidParameters):
        generate({"kind": "free_group"})
    with pytest.raises(InvalidParameters):
        generate({"no": "kind"})


def test_generate_is_deterministic():
    spec = {"kind": "random_congruence", "algebra": "C12", "seed": 7,
            "truncation": 2}
    a = generate(spec)
    b = generate(spec)
    assert content_hash(simplicial_to_json(a)) == content_hash(
        simplicial_to_json(b)
    )
    spec2 = {
        "kind": "quotient_extension",
        "of": {"kind": "pair_groupoid", "algebra": "C4", "truncation": 2},
        "pairs": {"1": [[0, 1]]},
    }
    assert content_hash(morphism_to_json(generate(spec2))) == content_hash(
        morphism_to_json(generate(spec2))
    )


def test_generate_takes_a_spec_that_is_not_plain_json():
    # a numpy integer, and levels given both as an int and as a string
    assert generate({"kind": "cyclic_group", "n": np.int64(5)}).size == 5
    quot = generate({
        "kind": "quotient_extension",
        "of": {"kind": "pair_groupoid", "algebra": "C4"},
        "pairs": {0: [[0, 2]], "1": [[0, 1]]},
    })
    assert [lvl.size for lvl in quot.cod.levels] == [1, 1, 1]


def test_splitmix_streams_are_stable():
    rng = SplitMix(42)
    first = [rng.randrange(100) for _ in range(5)]
    rng = SplitMix(42)
    second = [rng.randrange(100) for _ in range(5)]
    assert first == second
    assert len(set(first)) > 1


def test_heyting_tables_come_from_the_poset():
    chain = heyting_from_poset({"kind": "chain", "n": 3})
    imp = chain.table("imp")
    # bottom implies everything, and implication into top is top
    assert all(imp[0][b] == 2 for b in range(3))
    assert all(imp[a][2] == 2 for a in range(3))
    assert imp[2][0] == 0


def test_translation_graph_needs_full_delta():
    with pytest.raises(InvalidParameters):
        translation_graph(zk_module(4), zk_module(4), [0, 2])


@pytest.mark.parametrize("delta", [[0, 4], [0, -1]])
def test_translation_graph_rejects_a_step_outside_the_base(delta):
    # gen checks delta first; for a direct caller this is the one guard,
    # and a negative step would index from the end of the table
    with pytest.raises(InvalidParameters,
                       match="^delta must list elements of Z4$"):
        translation_graph(zk_module(4), zk_module(2), delta)


def test_loops_graph_structure():
    g = loops_graph(named_algebra("C2"), named_algebra("C2"))
    assert g.truncation == 1
    assert [lvl.size for lvl in g.levels] == [2, 4]
    d0, d1 = g.faces[1]
    assert np.array_equal(d0.map, d1.map)
