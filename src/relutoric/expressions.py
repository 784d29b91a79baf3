"""A small expression language for homogeneous piecewise linear functions.

Grammar (whitespace insensitive, rationals written p/q or as integers):

    expr := ['+'|'-'] term { ('+'|'-') term }
    term := [rational '*'] atom
    atom := 'max(' expr {',' expr} ')' | 'min(' expr {',' expr} ')'
          | var | rational
    var  := 'x1' .. 'xN'

min is canonicalized at parse time to -max(-...), so downstream code only
ever sees max nodes.  Nonzero constants are rejected unless they cancel:
the compiled function must be positively homogeneous.  Past that check a
node is known by its slopes, and compilation reads them in integers off
one table, cleared by their common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InhomogeneousConstant, ParseError, UnknownVariable
from .exact_math import (
    common_integer_scale, is_zero_vector, ratvec, vadd, vdot, vneg, vscale, vsub)
from .divisor import SupportFunction, support_on_fan
from .fan import EXTENDED, Hyperplane, augmented_central_fan, hyperplane, merge_hyperplanes


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Scale:
    coeff: Fraction
    arg: "Expr"


@dataclass(frozen=True)
class Sum:
    terms: tuple["Expr", ...]


@dataclass(frozen=True)
class Max:
    args: tuple["Expr", ...]


Expr = Var | Const | Neg | Scale | Sum | Max


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# Deepest nesting of max and min the parser accepts; the recursive passes
# over a tree stay well inside the interpreter's recursion limit.
MAX_NESTING = 100


def _integer(digits: str, offset: int) -> int:
    """A run of digits as an int; digits int() cannot read (more than the
    interpreter's digit limit, or non-ASCII digits) are a ParseError."""
    try:
        return int(digits)
    except ValueError as exc:
        raise ParseError(offset, f"cannot read the {len(digits)}-digit number: {exc}") from None


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0  # max and min nodes open at the cursor

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str):
        if self.peek() != char:
            raise ParseError(self.pos, f"expected '{char}'")
        self.pos += 1

    def try_char(self, char: str) -> bool:
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def number(self) -> Fraction:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError(start, "expected a number")
        numerator = _integer(self.text[start:self.pos], start)
        save = self.pos
        if self.try_char("/"):
            self.skip_ws()
            dstart = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == dstart:
                self.pos = save
                return Fraction(numerator)
            denominator = _integer(self.text[dstart:self.pos], dstart)
            if denominator == 0:
                raise ParseError(dstart, "zero denominator")
            return Fraction(numerator, denominator)
        return Fraction(numerator)

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()):
            self.pos += 1
        return self.text[start:self.pos]


def parse_expression(text: str, dim: int) -> Expr:
    """Parse, resolve variables against the declared dimension, and verify
    positive homogeneity (constants must cancel)."""
    expr = _parse(text, dim)
    _check_homogeneous(expr, dim)
    return expr


def _parse(text: str, dim: int) -> Expr:
    lexer = _Lexer(text)
    expr = _parse_expr(lexer, dim)
    lexer.skip_ws()
    if lexer.pos != len(text):
        raise ParseError(lexer.pos, "trailing input")
    return expr


def _parse_expr(lexer: _Lexer, dim: int) -> Expr:
    terms = []
    negate = False
    if lexer.try_char("-"):
        negate = True
    else:
        lexer.try_char("+")
    term = _parse_term(lexer, dim)
    terms.append(Neg(term) if negate else term)
    while True:
        ch = lexer.peek()
        if ch == "+":
            lexer.pos += 1
            terms.append(_parse_term(lexer, dim))
        elif ch == "-":
            lexer.pos += 1
            terms.append(Neg(_parse_term(lexer, dim)))
        else:
            break
    if len(terms) == 1:
        return terms[0]
    return Sum(tuple(terms))


def _parse_term(lexer: _Lexer, dim: int) -> Expr:
    if lexer.peek().isdigit():
        value = lexer.number()
        if lexer.try_char("*"):
            return Scale(value, _parse_atom(lexer, dim))
        return Const(value)
    return _parse_atom(lexer, dim)


def _parse_atom(lexer: _Lexer, dim: int) -> Expr:
    ch = lexer.peek()
    if ch.isdigit():
        return Const(lexer.number())
    if not ch.isalpha():
        raise ParseError(lexer.pos, "expected max, min, a variable or a number")
    start = lexer.pos
    word = lexer.word()
    if word in ("max", "min"):
        if lexer.depth == MAX_NESTING:
            raise ParseError(start, f"max and min nested deeper than {MAX_NESTING}")
        lexer.depth += 1
        lexer.expect("(")
        args = [_parse_expr(lexer, dim)]
        while lexer.try_char(","):
            args.append(_parse_expr(lexer, dim))
        lexer.expect(")")
        lexer.depth -= 1
        if word == "max":
            return Max(tuple(args))
        return Neg(Max(tuple(Neg(a) for a in args)))
    if word.startswith("x") and word[1:].isdigit():
        index = _integer(word[1:], start + 1)
        if not 1 <= index <= dim:
            raise UnknownVariable(f"{word} outside declared dimension {dim}")
        return Var(index)
    raise ParseError(start, f"unknown name '{word}'")


def format_expression(expr: Expr) -> str:
    """Canonical text form; parse(format(e)) is structurally equal to e for
    parser-produced trees."""
    if isinstance(expr, Var):
        return f"x{expr.index}"
    if isinstance(expr, Const):
        return str(expr.value)
    if isinstance(expr, Neg):
        return "-" + format_expression(expr.arg)
    if isinstance(expr, Scale):
        return f"{expr.coeff}*{format_expression(expr.arg)}"
    if isinstance(expr, Max):
        return "max(" + ", ".join(format_expression(a) for a in expr.args) + ")"
    if isinstance(expr, Sum):
        parts = [format_expression(expr.terms[0])]
        for term in expr.terms[1:]:
            if isinstance(term, Neg):
                parts.append(" - " + format_expression(term.arg))
            else:
                parts.append(" + " + format_expression(term))
        return "".join(parts)
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# semantics
# ---------------------------------------------------------------------------

def evaluate_expression(expr: Expr, point) -> Fraction:
    point = ratvec(point)
    return _eval(expr, point)


def _eval(expr: Expr, point) -> Fraction:
    if isinstance(expr, Var):
        return point[expr.index - 1]
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Neg):
        return -_eval(expr.arg, point)
    if isinstance(expr, Scale):
        return expr.coeff * _eval(expr.arg, point)
    if isinstance(expr, Sum):
        return sum(_eval(t, point) for t in expr.terms)
    if isinstance(expr, Max):
        return max(_eval(a, point) for a in expr.args)
    raise TypeError(f"not an expression node: {expr!r}")


def affine_forms(expr: Expr, dim: int) -> set:
    """All affine forms (slope, constant) the expression can take on linear
    pieces; an overapproximation for nested maxima."""
    return _forms_table(expr, dim)[id(expr)]


def _forms_table(expr: Expr, dim: int) -> dict[int, set]:
    """The affine forms of every node of the tree, keyed by node identity;
    one post-order pass computes each node's set once, from its children's.
    A node with a single form is that affine function everywhere."""
    table = {}
    _node_forms(expr, dim, table)
    return table


def _node_forms(expr: Expr, dim: int, table: dict[int, set]) -> set:
    zero = tuple(Fraction(0) for _ in range(dim))
    if isinstance(expr, Var):
        slope = tuple(Fraction(1) if i == expr.index - 1 else Fraction(0)
                      for i in range(dim))
        forms = {(slope, Fraction(0))}
    elif isinstance(expr, Const):
        forms = {(zero, expr.value)}
    elif isinstance(expr, Neg):
        forms = {(vneg(s), -c) for s, c in _node_forms(expr.arg, dim, table)}
    elif isinstance(expr, Scale):
        forms = {(vscale(expr.coeff, s), expr.coeff * c)
                 for s, c in _node_forms(expr.arg, dim, table)}
    elif isinstance(expr, Sum):
        forms = {(zero, Fraction(0))}
        for term in expr.terms:
            term_forms = _node_forms(term, dim, table)
            forms = {(vadd(s1, s2), c1 + c2)
                     for s1, c1 in forms
                     for s2, c2 in term_forms}
    elif isinstance(expr, Max):
        forms = set()
        for arg in expr.args:
            forms |= _node_forms(arg, dim, table)
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    table[id(expr)] = forms
    return forms


def _check_homogeneous(expr: Expr, dim: int) -> tuple[dict[int, tuple], int]:
    """Reject a nonzero constant under a max or in the whole function, naming
    the first met in pre-order.  Past the check every constant under a max
    is 0, so a node is known by its slopes: returns the slope table, each
    node's slopes in the order of its forms cleared to integers by their
    common denominator, and that denominator."""
    forms = _forms_table(expr, dim)
    for node in _walk(expr):
        if isinstance(node, Max):
            for arg in node.args:
                for _, const in forms[id(arg)]:
                    if const != 0:
                        raise _inhomogeneous(const, " inside max")
    for _, const in forms[id(expr)]:
        if const != 0:
            raise _inhomogeneous(const, "")
    cleared, denominator = common_integer_scale([s for own in forms.values() for s, _ in own])
    rows = iter(cleared)
    return {key: tuple(next(rows) for _ in own) for key, own in forms.items()}, denominator


def _inhomogeneous(const: Fraction, where: str) -> InhomogeneousConstant:
    """The error naming the offending constant, or naming no digits when
    the constant is past the interpreter's digit limit for printing."""
    try:
        named = f"constant {const}"
    except ValueError:
        named = "a constant too long to print"
    return InhomogeneousConstant(f"{named}{where} breaks homogeneity")


def _walk(expr: Expr):
    yield expr
    if isinstance(expr, Neg):
        yield from _walk(expr.arg)
    elif isinstance(expr, Scale):
        yield from _walk(expr.arg)
    elif isinstance(expr, Sum):
        for t in expr.terms:
            yield from _walk(t)
    elif isinstance(expr, Max):
        for a in expr.args:
            yield from _walk(a)


# ---------------------------------------------------------------------------
# compilation to a support function
# ---------------------------------------------------------------------------

def candidate_hyperplanes(expr: Expr, dim: int, table=None) -> tuple[Hyperplane, ...]:
    """Pairwise differences of the possible slopes of max arguments; every
    locus where the compiled function can bend lies on one of these.
    `table` is the expression's cleared slope table when the caller holds
    it; without it the homogeneity check runs first and raises
    InhomogeneousConstant on an inhomogeneous tree."""
    table = _check_homogeneous(expr, dim)[0] if table is None else table
    planes = []
    for node in _walk(expr):
        if not isinstance(node, Max):
            continue
        slope_sets = [table[id(arg)] for arg in node.args]
        for i in range(len(slope_sets)):
            for j in range(i + 1, len(slope_sets)):
                for si in slope_sets[i]:
                    for sj in slope_sets[j]:
                        diff = vsub(si, sj)
                        if not is_zero_vector(diff):
                            planes.append(hyperplane(diff, EXTENDED))
    return merge_hyperplanes(planes)


def compile_expression(expr: Expr, dim: int) -> SupportFunction:
    """Support function of a parsed expression: central fan of the candidate
    hyperplanes (synthetically augmented when rank-deficient), and on each
    maximal cone the slope of the linear piece at its interior point, read
    in integers off the cleared slope table and divided by its denominator.

    A max node takes its first argmax.  Ties cannot change the slope:
    `candidate_hyperplanes` holds the difference of every pair of slopes two
    arguments of a max can take, and each is a cut of the fan, so two
    arguments tied at an interior point of a cone agree on the whole cone
    and have equal slopes there.
    """
    table, denominator = _check_homogeneous(expr, dim)
    fan = augmented_central_fan(candidate_hyperplanes(expr, dim, table), dim)
    return support_on_fan(fan, [
        tuple(Fraction(x, denominator) for x in _slope(expr, cone.interior_point(), table))
        for cone in fan.maximal_cones])


def _slope(expr: Expr, point, table):
    """Cleared slope of the linear piece chosen at an integer point; a node
    with a single slope in the table is read off it without recursing.  A
    scaled slope is itself a cleared slope of its node, so dividing by the
    coefficient's denominator is exact."""
    own = table[id(expr)]
    if len(own) == 1:
        return own[0]
    if isinstance(expr, Neg):
        return vneg(_slope(expr.arg, point, table))
    if isinstance(expr, Scale):
        p, q = expr.coeff.numerator, expr.coeff.denominator
        return tuple(p * x // q for x in _slope(expr.arg, point, table))
    if isinstance(expr, Sum):
        return tuple(map(sum, zip(*(_slope(t, point, table) for t in expr.terms))))
    # a Max, where every constant is 0: its first argmax at the point
    return max((_slope(arg, point, table) for arg in expr.args),
               key=lambda slope: vdot(slope, point))


def parse_and_compile(text: str, dim: int) -> SupportFunction:
    """Support function of an expression document; its homogeneity is
    checked once, by `compile_expression`."""
    return compile_expression(_parse(text, dim), dim)
