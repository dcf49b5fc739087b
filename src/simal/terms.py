"""Terms over a finite signature.

A term is either one of the variables x, y, z or a prefix application
``op(t1, ..., tk)``.  Nullary operations may be written with or without
parentheses.  Evaluation is componentwise over numpy arrays, so a term
can be checked against an identity on a whole grid of arguments at once.
"""

import re

from .errors import InvalidParameters

VARIABLES = ("x", "y", "z")

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[(),])")


class Term:
    __slots__ = ("op", "args")

    def __init__(self, op, args=()):
        self.op = op
        self.args = tuple(args)

    @property
    def is_variable(self):
        return self.op in VARIABLES and not self.args

    def __repr__(self):
        return f"Term({self!s})"

    def __str__(self):
        if not self.args:
            return self.op
        return f"{self.op}({', '.join(str(a) for a in self.args)})"

    def __eq__(self, other):
        return (
            isinstance(other, Term)
            and self.op == other.op
            and self.args == other.args
        )

    def __hash__(self):
        return hash((self.op, self.args))


def tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise InvalidParameters(f"bad character in term at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_term(text):
    tokens = tokenize(text)
    pos = 0

    def parse():
        nonlocal pos
        if pos >= len(tokens):
            raise InvalidParameters(f"unexpected end of term in {text!r}")
        head = tokens[pos]
        if head in "(),":
            raise InvalidParameters(f"unexpected {head!r} in term {text!r}")
        pos += 1
        if head in VARIABLES:
            return Term(head)
        if pos < len(tokens) and tokens[pos] == "(":
            pos += 1
            args = []
            if tokens[pos:pos + 1] == [")"]:
                pos += 1
                return Term(head, ())
            while True:
                args.append(parse())
                if pos >= len(tokens):
                    raise InvalidParameters(f"unbalanced parentheses in {text!r}")
                sep = tokens[pos]
                pos += 1
                if sep == ")":
                    return Term(head, args)
                if sep != ",":
                    raise InvalidParameters(f"expected ',' or ')' in {text!r}")
        return Term(head, ())

    result = parse()
    if pos != len(tokens):
        raise InvalidParameters(f"trailing tokens in term {text!r}")
    return result


def check_term_signature(term, arities):
    """Verify every operation in the term exists with the arity it is used at."""
    if term.is_variable:
        return
    if term.op not in arities:
        raise InvalidParameters(f"term uses unknown operation {term.op!r}")
    if arities[term.op] != len(term.args):
        raise InvalidParameters(
            f"operation {term.op!r} has arity {arities[term.op]}, "
            f"used with {len(term.args)} arguments"
        )
    for a in term.args:
        check_term_signature(a, arities)


def evaluate(term, read, env):
    """Evaluate a term.  env maps variable names to ints or numpy arrays;
    read(op, *args) is op at its evaluated arguments, such as
    FiniteAlgebra.op, and a constant when there are none."""
    if term.is_variable:
        return env[term.op]
    return read(term.op, *(evaluate(a, read, env) for a in term.args))
