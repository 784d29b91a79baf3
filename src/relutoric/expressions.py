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
node is known by its slopes.  Compilation lowers the tree once, to integer
forms over its max nodes, then cuts 2^d cells at each max node, innermost
first, by `fan._cut_at_max`, which cuts every net's fan too, and which
reports the max on each piece.  Every max is decided once, by that cut, and
each cone's slope is the function's form at its maxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InhomogeneousConstant, ParseError, UnknownVariable
from .exact_math import (
    IntVec, clear_denominators, independent_rows, ratvec, sign_canonical, vscale, vsub)
from .divisor import SupportFunction, support_on_fan
from .fan import (
    EXTENDED, Hyperplane, _arrangement_cells, _assemble_fan, _augmented, _cut_at_max, hyperplane)


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


def _check_homogeneous(expr: Expr, dim: int) -> tuple:
    """The tree lowered (`_lower`), once every max argument and the function
    are 0 at the origin; else the first that is not, max nodes in pre-order
    and the function last, is named by its value."""
    lowered = maxes, root, _ = _lower(expr, dim)
    for form, where in [(arg, " inside max") for args in maxes for arg in args] + [(root, "")]:
        if form[0] != 0:
            try:
                named = f"constant {form[0]}"
            except ValueError:  # past the interpreter's digit limit for printing
                named = "a constant too long to print"
            raise InhomogeneousConstant(f"{named}{where} breaks homogeneity")
    return lowered


def _lower(expr: Expr, dim: int) -> tuple:
    """The forms of every max node's arguments, max nodes in pre-order, the
    function's form and one denominator, in one post-order pass.  A form
    (value, l, terms) holds a value at the origin and a slope: l plus
    p * s_k // q for each term (k, p, q), s_k the slope of a max node k
    beneath it under no other max and p/q the product of the coefficients
    on the way down.  The denominator clears every slope a node can take,
    so each division is exact."""
    maxes = []

    def lower(node) -> tuple:  # value, slope cleared by den, terms, den
        if isinstance(node, Var):
            return 0, tuple(int(i == node.index - 1) for i in range(dim)), (), 1
        if isinstance(node, Const):
            return node.value, (0,) * dim, (), 1
        if isinstance(node, (Neg, Scale)):
            c = node.coeff if isinstance(node, Scale) else Fraction(-1)
            value, slope, terms, den = lower(node.arg)
            return (c * value, vscale(c.numerator, slope),
                    tuple((k, c.numerator * p, c.denominator * q) for k, p, q in terms),
                    c.denominator * den)
        if isinstance(node, Sum):
            parts = [lower(term) for term in node.terms]
            den = clear_denominators([Fraction(1, d) for *_, d in parts])[1]
            return (sum(value for value, *_ in parts),
                    tuple(map(sum, zip(*(vscale(den // d, s) for _, s, _, d in parts)))),
                    tuple(t for _, _, terms, _ in parts for t in terms), den)
        k = len(maxes)
        maxes.append(None)  # the node's place in pre-order
        maxes[k] = parts = [lower(arg) for arg in node.args]
        return (max(value for value, *_ in parts), (0,) * dim, ((k, 1, 1),),
                clear_denominators([Fraction(1, d) for *_, d in parts])[1])

    root = lower(expr)
    denominator = root[3]

    def form(part) -> tuple:
        value, slope, terms, den = part
        return value, vscale(denominator // den, slope), terms

    return [[form(arg) for arg in args] for args in maxes], form(root), denominator


def _at(form: tuple, maxes) -> IntVec:
    """A form's cleared slope where each max node k takes the slope maxes[k]."""
    _, slope, terms = form
    for k, p, q in terms:
        slope = tuple(x + p * y // q for x, y in zip(slope, maxes[k]))
    return slope


# ---------------------------------------------------------------------------
# compilation to a support function
# ---------------------------------------------------------------------------

def candidate_hyperplanes(expr: Expr, dim: int, lowered=None) -> tuple[Hyperplane, ...]:
    """The seed of `compile_expression`: d independent normals among each
    max node's later arguments' slopes at the origin minus its first's,
    where every max takes its first argument, nodes whose arguments hold no
    max first.  They span every difference of two slopes two arguments of
    one max can take, so coordinates join (`_augmented`) exactly when those
    do not span.  Without the `lowered` tree the homogeneity check runs
    first."""
    maxes = (_check_homogeneous(expr, dim) if lowered is None else lowered)[0]
    at_origin = [None] * len(maxes)
    for k in reversed(range(len(maxes))):  # each max node after those beneath it
        at_origin[k] = _at(maxes[k][0], at_origin)
    planes = []
    for args in sorted(maxes, key=lambda args: any(terms for *_, terms in args)):
        first, *rest = (_at(arg, at_origin) for arg in args)
        planes += [hyperplane(vsub(slope, first), EXTENDED) for slope in rest if slope != first]
    planes = _augmented(planes, dim)
    return tuple(planes[i] for i in independent_rows([h.normal for h in planes]))


def compile_expression(expr: Expr, dim: int) -> SupportFunction:
    """Support function of a parsed expression: the cells of the seed
    (`candidate_hyperplanes`) cut at each max node, after the max nodes
    beneath it, by `fan._cut_at_max` on its arguments' forms at the maxes
    of each piece so far, which then keeps its max.  Each cone's slope is
    the function's form at its maxes.  Each cut is a difference of two
    slopes two arguments of one max can take, so every cone is a union of
    cells of the arrangement of all of them."""
    lowered = _check_homogeneous(expr, dim)
    seed = candidate_hyperplanes(expr, dim, lowered)
    maxes, root, denominator = lowered
    pieces = [(cone, (None,) * len(maxes)) for cone in _arrangement_cells(seed, dim)]
    for k in reversed(range(len(maxes))):
        pieces = [(piece, tops[:k] + (top,) + tops[k + 1:]) for cone, tops in pieces
                  for piece, top in _cut_at_max([cone], [_at(arg, tops) for arg in maxes[k]])]
    cuts = [Hyperplane(sign_canonical(n), EXTENDED) for cone, _ in pieces for n in cone.halfspaces]
    fan, order = _assemble_fan([cone for cone, _ in pieces], dim, seed, cuts)
    return support_on_fan(fan, [_at(root, pieces[i][1]) for i in order], denominator)


def parse_and_compile(text: str, dim: int) -> SupportFunction:
    """Support function of an expression document; its homogeneity is
    checked once, by `compile_expression`."""
    return compile_expression(_parse(text, dim), dim)
