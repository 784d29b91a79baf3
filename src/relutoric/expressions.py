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
node is known by its slopes.  Compilation cuts 2^d cells at each max node
by `fan._cut_at_max`, which cuts every net's fan too, until the function is
linear on every cone, and reads slopes in integers off one cleared table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InhomogeneousConstant, ParseError, UnknownVariable
from .exact_math import (
    IntVec, clear_denominators, independent_rows, ratvec, sign_canonical, vdot, vneg, vscale,
    vsub)
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


def _check_homogeneous(expr: Expr, dim: int) -> tuple[dict[int, IntVec], int]:
    """Name the first max argument in pre-order, then the function, whose
    value at the origin is nonzero.  Past the check returns the slopes of
    the nodes that hold no max, cleared to integers by the common
    denominator of every slope a node can take, and that denominator."""
    parts: dict[int, tuple] = {}
    _affine(expr, dim, parts)
    checked = [(arg, " inside max") for node in _walk(expr) if isinstance(node, Max)
               for arg in node.args] + [(expr, "")]
    for node, where in checked:
        const = parts[id(node)][0]
        if const != 0:
            try:
                named = f"constant {const}"
            except ValueError:  # past the interpreter's digit limit for printing
                named = "a constant too long to print"
            raise InhomogeneousConstant(f"{named}{where} breaks homogeneity")
    denominator = parts[id(expr)][2]
    return {key: vscale(denominator // den, slope)
            for key, (_, slope, den) in parts.items() if slope is not None}, denominator


def _affine(expr: Expr, dim: int, parts: dict[int, tuple]) -> tuple:
    """A node's value at the origin, its integer slope (None when it holds a
    max) over a denominator that clears every slope it can take, and that
    denominator; every node's triple goes into `parts`."""
    if isinstance(expr, Var):
        own = 0, tuple(int(i == expr.index - 1) for i in range(dim)), 1
    elif isinstance(expr, Const):
        own = expr.value, (0,) * dim, 1
    elif isinstance(expr, (Neg, Scale)):
        coeff = expr.coeff if isinstance(expr, Scale) else Fraction(-1)
        value, slope, den = _affine(expr.arg, dim, parts)
        own = (coeff * value, None if slope is None else vscale(coeff.numerator, slope),
               coeff.denominator * den)
    else:
        values, slopes, dens = zip(*(_affine(child, dim, parts) for child in _children(expr)))
        den = clear_denominators([Fraction(1, d) for d in dens])[1]
        slope = None
        if isinstance(expr, Sum) and None not in slopes:
            slope = tuple(map(sum, zip(*(vscale(den // d, s) for s, d in zip(slopes, dens)))))
        own = max(values) if isinstance(expr, Max) else sum(values), slope, den
    parts[id(expr)] = own
    return own


def _walk(expr: Expr):
    """Every node of the tree, in pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(_children(node)))


def _children(expr: Expr) -> tuple:
    if isinstance(expr, (Neg, Scale)):
        return (expr.arg,)
    return expr.terms if isinstance(expr, Sum) else expr.args if isinstance(expr, Max) else ()


# ---------------------------------------------------------------------------
# compilation to a support function
# ---------------------------------------------------------------------------

def candidate_hyperplanes(expr: Expr, dim: int, table=None) -> tuple[Hyperplane, ...]:
    """The seed of `compile_expression`: d independent normals among each
    max node's later arguments' slopes at the origin minus its first's,
    nodes whose arguments hold no max first.  They span every difference of
    two slopes two arguments of one max can take, so coordinates join
    (`_augmented`) exactly when those do not span.  Without the cleared
    slope `table` the homogeneity check runs first."""
    table = _check_homogeneous(expr, dim)[0] if table is None else table
    origin = (0,) * dim
    planes = []
    for node in sorted((node for node in _walk(expr) if isinstance(node, Max)),
                       key=lambda node: any(id(arg) not in table for arg in node.args)):
        first, *rest = (_slope(arg, origin, table) for arg in node.args)
        planes += [hyperplane(vsub(slope, first), EXTENDED) for slope in rest if slope != first]
    planes = _augmented(planes, dim)
    return tuple(planes[i] for i in independent_rows([h.normal for h in planes]))


def compile_expression(expr: Expr, dim: int) -> SupportFunction:
    """Support function of a parsed expression: the cells of the seed
    (`candidate_hyperplanes`) cut at each max node, after the max nodes in
    it, by `fan._cut_at_max` on the slopes its arguments take at each
    cone's probe (`_slope`, which also reads the final slopes).  Each cut
    is a difference of two slopes two arguments of one max can take, so
    every cone is a union of cells of the arrangement of all of them.  Ties
    at a probe, where the arguments are linear, hold on the whole cone."""
    table, denominator = _check_homogeneous(expr, dim)
    seed = candidate_hyperplanes(expr, dim, table)
    cones = _arrangement_cells(seed, dim)
    for node in reversed(list(_walk(expr))):  # each node after its descendants
        if isinstance(node, Max):
            cones = [piece for cone in cones for probe in [cone.interior_point()]
                     for piece in _cut_at_max([cone], [_slope(a, probe, table) for a in node.args])]
    cuts = [Hyperplane(sign_canonical(n), EXTENDED) for cone in cones for n in cone.halfspaces]
    fan = _assemble_fan(cones, dim, seed, cuts)
    return support_on_fan(fan, [
        tuple(Fraction(x, denominator) for x in _slope(expr, cone.interior_point(), table))
        for cone in fan.maximal_cones])


def _slope(expr: Expr, point, table):
    """Cleared slope of the linear piece chosen at an integer point; a node
    that holds no max is read off the table.  A scaled slope is itself a
    cleared slope of its node, so dividing by the coefficient's denominator
    is exact."""
    own = table.get(id(expr))
    if own is not None:
        return own
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
