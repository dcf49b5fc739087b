"""Finite algebras of a fixed signature, with a designated Mal'tsev term.

Carriers are 0..size-1.  An operation of arity k is a numpy int table of
shape (size,)*k; a nullary operation is a 1-entry table.  Every algebra
carries a ternary term p satisfying p(x,y,y) = x and p(x,x,y) = y, and
validation checks those identities on the full square of arguments.

An algebra built from other algebras (products, kernels, nerves,
quotients) carries its constants from the moment it is built, and an
evaluator that computes an operation at broadcast index arrays from the
algebras it was built from.  Its tables of positive arity, which can be
expensive, are built when they are first read, as the rows of slot 0
over the whole carrier, through the same evaluator; reading a constant
never builds them.  Rows are read through one reader, _rows: the table
if it is built, else the evaluator.  op, which is how closures and
checks read the rows of an operation, first builds tables of at most
OP_TABLE_CELLS cells in all, so memory stays near a slab; p, the
Mal'tsev term, builds none.  Every table build and exhaustive check
walks its argument grid through slabs, or first_failure for the first
failing tuple in row-major order, so none holds more than a slab; the
index grids of each size tuple are built once, and a grid that fits in
one slab is handed over whole.
All objects are treated as immutable once validated.
"""

import functools
import math

import numpy as np

from .errors import (
    InconsistentConstants,
    InvalidParameters,
    MalformedTable,
    NotMaltsev,
)
from .terms import check_term_signature, evaluate, parse_term

# Cells of one slab of a grid walk: its int64 temporaries stay near
# 8 MB each, and a built table is written as int32.
TABLE_CHUNK_CELLS = 1_000_000

# op builds the tables of an unbuilt algebra when they hold at most this
# many cells in all (4 MB as int32): a small table read many times is
# cheaper than recomputing its rows.  Computing every row instead made
# importing simal and building the deep corpus 0.30 s against 0.27 s,
# and an ml pass over its extensions 0.25 s against 0.22 s (2-core
# x86-64, ten pairs each).
OP_TABLE_CELLS = 1_000_000


class Signature:
    """Ordered list of (name, arity) pairs."""

    def __init__(self, ops):
        ops = tuple((str(name), int(arity)) for name, arity in ops)
        names = [n for n, _ in ops]
        if len(set(names)) != len(names):
            raise InvalidParameters("duplicate operation name in signature")
        for _, arity in ops:
            if arity < 0:
                raise InvalidParameters("negative arity")
        self.ops = ops
        self.arities = dict(ops)

    def __eq__(self, other):
        return isinstance(other, Signature) and self.ops == other.ops

    def __hash__(self):
        return hash(self.ops)

    def __repr__(self):
        inner = ", ".join(f"{n}/{a}" for n, a in self.ops)
        return f"Signature({inner})"

    @property
    def has_constants(self):
        return any(a == 0 for _, a in self.ops)


class FiniteAlgebra:
    def __init__(self, name, size, signature, tables, maltsev_term,
                 evaluator=None, constants=None):
        self.name = name
        self.size = int(size)
        self.signature = signature
        if isinstance(maltsev_term, str):
            maltsev_term = parse_term(maltsev_term)
        self.maltsev_term = maltsev_term
        self._tables = None
        if tables is not None:
            self._tables = {
                k: np.asarray(v, dtype=np.int32) for k, v in tables.items()
            }
        else:
            # evaluator(op, args) is op of positive arity at the broadcast
            # index arrays args; constants maps every nullary operation to
            # its carrier index
            self._evaluator = evaluator
            self._constants = constants or {}

    @property
    def tables(self):
        if self._tables is None:
            self._tables = {
                k: np.asarray([self._constants[k]], dtype=np.int32)
                if arity == 0 else self._slot0_rows(k, arity)
                for k, arity in self.signature.ops
            }
            self._evaluator = None
        return self._tables

    def _slot0_rows(self, op, arity):
        """The table of op, as the rows of slot 0 over the whole carrier,
        computed by the evaluator one slab at a time."""
        out = np.empty((self.size,) * arity, dtype=np.int32)
        for first, grids in slabs((self.size,) * arity):
            out[first] = self._evaluator(op, grids)
        return out

    def table(self, op):
        """The table of op; a constant's 1-entry table is read without
        building the others."""
        if self._tables is None and op in self._constants:
            return np.asarray([self._constants[op]], dtype=np.int32)
        return self.tables[op]

    def p(self, a, b, c):
        """Apply the Mal'tsev term; arguments may be ints or index arrays.
        It reads through _rows, so it never builds a table."""
        return evaluate(self.maltsev_term, self._rows, {"x": a, "y": b, "z": c})

    def op(self, name, *args):
        """name at args, ints or broadcast index arrays, through _rows,
        after building the tables of an unbuilt algebra if they hold at
        most OP_TABLE_CELLS cells in all."""
        if args and self._tables is None and sum(
            self.size ** arity for _, arity in self.signature.ops
        ) <= OP_TABLE_CELLS:
            self.tables  # builds them, for _rows to read
        return self._rows(name, *args)

    def _rows(self, name, *args):
        """name at args, read off the table if it is built, else computed
        through the evaluator; a constant is its carrier index."""
        if not args:
            return int(self.table(name)[0])
        if self._tables is None:
            return self._evaluator(name, args)
        return self._tables[name][args]

    def __repr__(self):
        return f"FiniteAlgebra({self.name!r}, size={self.size})"


@functools.lru_cache(maxsize=256)
def _axes(sizes):
    """The read-only np.ix_ grids over range(m) for each m in sizes, and
    the first axis flat: built once per size tuple."""
    k = len(sizes)
    grids = tuple(np.arange(m).reshape((1,) * i + (-1,) + (1,) * (k - 1 - i))
                  for i, m in enumerate(sizes))
    for g in grids:
        g.flags.writeable = False
    return grids, grids[0].ravel()


def slabs(sizes):
    """The row-major grid over range(m) for each m in sizes, in slabs of
    whole first-argument rows of about TABLE_CHUNK_CELLS cells: each slab
    is the slab's first arguments and the np.ix_ grids of those and the
    rest.  A grid that fits in one slab is handed over whole."""
    grids, firsts = _axes(sizes)
    chunk = max(1, TABLE_CHUNK_CELLS // max(math.prod(sizes[1:]), 1))
    if 0 < sizes[0] <= chunk:
        return ((firsts, grids),)
    return ((grids[0][s:s + chunk].ravel(), (grids[0][s:s + chunk], *grids[1:]))
            for s in range(0, sizes[0], chunk))


def first_failure(sizes, fails):
    """The first argument tuple of slabs(sizes), in row-major order, where
    the boolean fails(*grids) holds, as plain ints, or None; along an axis
    that its result broadcasts over, the first failure is at 0."""
    for first, grids in slabs(sizes):
        bad = fails(*grids)
        if bad.any():
            i, *rest = np.argwhere(bad)[0].tolist()
            return (int(first[i]), *rest)
    return None


def check_tables(alg):
    """Table shapes and entry ranges; the empty carrier cannot host constants."""
    n = alg.size
    if n == 0 and alg.signature.has_constants:
        raise InconsistentConstants(
            f"{alg.name}: empty carrier with constants in the signature"
        )
    for opname, arity in alg.signature.ops:
        t = alg.tables[opname]
        want = (1,) if arity == 0 else (n,) * arity
        if t.shape != want:
            raise MalformedTable(
                f"{alg.name}: table {opname!r} has shape {t.shape}, expected {want}"
            )
        if t.size and (t.min() < 0 or t.max() >= max(n, 1)):
            raise MalformedTable(f"{alg.name}: table {opname!r} entry out of range")


def check_maltsev(alg):
    """Check p(x,y,y) = x and p(x,x,y) = y over the full square of pairs."""
    term = alg.maltsev_term
    try:
        check_term_signature(term, alg.signature.arities)
    except InvalidParameters as exc:
        raise NotMaltsev(f"{alg.name}: {exc}") from exc
    # p(x,y,y) = x and p(x,x,y) = y, as slots of the pair (x, y)
    for slots, want in (((0, 1, 1), 0), ((0, 0, 1), 1)):
        w = first_failure(
            (alg.size, alg.size),
            lambda *pair: alg.p(*(pair[k] for k in slots)) != pair[want],
        )
        if w is not None:
            raise NotMaltsev(
                f"{alg.name}: p({','.join(str(w[k]) for k in slots)}) = "
                f"{int(alg.p(*(w[k] for k in slots)))}, expected {w[want]}"
            )


def int_array(raw, what):
    """raw (a JSON number or nested list) as an int64 array; any entry that
    is not an integer raises InvalidParameters."""
    try:
        arr = np.asarray(raw)
    except ValueError as exc:
        raise InvalidParameters(f"{what} is not a rectangular array") from exc
    if arr.size == 0 or arr.dtype.kind in "iu":
        return arr.astype(np.int64, copy=False)
    flat = np.asarray(raw, dtype=object).ravel()
    bad = next((x for x in flat if type(x) is not int), flat[0])
    raise InvalidParameters(f"{what}: entry {bad!r} is not an integer")


def int_scalar(raw, what):
    """raw (a JSON number) as one Python int; a list or an entry that is
    not an integer raises InvalidParameters."""
    value = int_array(raw, what)
    if value.ndim:
        raise InvalidParameters(f"{what} must be a single integer")
    return int(value)


def validate_algebra(raw):
    """Build and fully check an algebra from its raw dict description."""
    try:
        name = raw["name"]
        size = int_scalar(raw["size"], "algebra size")
        ops = raw["operations"]
        term = raw["maltsev"]["term"]
        arities = [int_scalar(o["arity"], "arity") for o in ops]
        sig = Signature([(o["name"], a) for o, a in zip(ops, arities)])
        flats = [int_array(o["table"], f"table {o['name']!r}") for o in ops]
    except (KeyError, TypeError) as exc:
        raise MalformedTable(f"algebra description missing field: {exc}") from exc
    if not isinstance(name, str):
        raise MalformedTable(f"algebra name {name!r} is not a string")
    if not isinstance(term, str):
        raise MalformedTable(f"{name}: Mal'tsev term {term!r} is not a string")
    tables = {}
    for o, arity, flat in zip(ops, arities, flats):
        if not isinstance(o["name"], str):
            raise MalformedTable(
                f"{name}: operation name {o['name']!r} is not a string"
            )
        if arity > 64:  # more axes than a numpy array can have
            raise MalformedTable(
                f"{name}: table {o['name']!r} cannot have arity {arity}"
            )
        want = (1,) if arity == 0 else (size,) * arity
        try:
            tables[o["name"]] = flat.reshape(want)
        except ValueError as exc:
            raise MalformedTable(
                f"{name}: table {o['name']!r} cannot be shaped to {want}"
            ) from exc
    alg = FiniteAlgebra(name, size, sig, tables, term)
    check_tables(alg)
    check_maltsev(alg)
    return alg


def make_algebra(name, signature, tables, term):
    size = None
    for (opname, arity) in signature.ops:
        t = np.asarray(tables[opname])
        if arity > 0:
            size = t.shape[0]
            break
    if size is None:
        raise InvalidParameters("cannot infer size from nullary tables only")
    alg = FiniteAlgebra(name, size, signature, tables, term)
    check_tables(alg)
    check_maltsev(alg)
    return alg


def same_signature(a, b):
    if a.signature != b.signature:
        raise InvalidParameters(
            f"signature mismatch between {a.name} and {b.name}"
        )


class Homomorphism:
    def __init__(self, dom, cod, fmap, check=True):
        self.dom = dom
        self.cod = cod
        self.map = int_array(fmap, "map")
        if self.map.shape != (dom.size,):
            raise InvalidParameters(
                f"map array has shape {self.map.shape}, expected ({dom.size},)"
            )
        if dom.size and (np.minimum.reduce(self.map) < 0
                         or np.maximum.reduce(self.map) >= cod.size):
            raise InvalidParameters("map entry out of codomain range")
        if check:
            check_homomorphism(self)

    def is_surjective(self):
        return bool(np.logical_and.reduce(
            np.bincount(self.map, minlength=self.cod.size)
        ))

    def is_bijective(self):
        return self.dom.size == self.cod.size and self.is_surjective()

    def __eq__(self, other):
        return (
            isinstance(other, Homomorphism)
            and self.dom is other.dom
            and self.cod is other.cod
            and bool(np.logical_and.reduce(self.map == other.map))
        )

    def __repr__(self):
        return f"Homomorphism({self.dom.name} -> {self.cod.name})"


def identity_hom(alg):
    return Homomorphism(alg, alg, np.arange(alg.size), check=False)


def check_homomorphism(h):
    """Exhaustive check that h commutes with every operation, read by op."""
    same_signature(h.dom, h.cod)
    fmap = h.map
    for opname, arity in h.dom.signature.ops:
        if arity == 0:
            if h.dom.size and fmap[h.dom.op(opname)] != h.cod.op(opname):
                raise InvalidParameters(
                    f"map does not preserve constant {opname!r}"
                )
            continue
        where = first_failure(
            (h.dom.size,) * arity,
            lambda *args: fmap[h.dom.op(opname, *args)]
            != h.cod.op(opname, *(fmap[a] for a in args)),
        )
        if where is not None:
            raise InvalidParameters(
                f"map does not preserve {opname!r} at arguments {where}"
            )
