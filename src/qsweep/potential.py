"""Potential definitions and their discretization onto the step grid.

A `PotentialSpec` maps position x (nm) to potential energy U(x) (eV) and can
come from a builtin family, a parsed arithmetic expression (optionally in
pieces), or a tabulated set of samples.  `discretize` samples a spec on a
uniform grid, producing the piecewise-constant step potential the sweep
engine consumes: step j covers [x_j, x_{j+1}) and carries the value U(x_j).
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .constants import phi_factor


class ExpressionError(ValueError):
    """Syntax or identifier error in a potential expression."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (character {position})")
        self.position = position


class PotentialEvalError(ValueError):
    """A potential could not be evaluated at a requested position."""


# ---------------------------------------------------------------------------
# expression grammar
#
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := '-' factor | power
#   power  := atom ('^' factor)?          (right-associative)
#   atom   := number | 'x' | constant | func '(' expr ')' | '(' expr ')'
#
# '^' binds tighter than unary minus, so -x^2 parses as -(x^2).

CONSTANTS = {"pi": math.pi, "e2": 1.44}
FUNCTIONS = {"exp": math.exp, "abs": abs, "sqrt": math.sqrt}

_TOKEN = re.compile(
    r"(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ExpressionError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num")), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.take()
        if kind != "op" or value != op:
            raise ExpressionError(f"expected {op!r}", pos)

    def expr(self):
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            _, op, _ = self.take()
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            _, op, _ = self.take()
            rhs = self.factor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def factor(self):
        if self.peek()[:2] == ("op", "-"):
            self.take()
            return ("neg", self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.take()
            return ("pow", base, self.factor())
        return base

    def atom(self):
        kind, value, pos = self.take()
        if kind == "num":
            return ("num", value)
        if kind == "name":
            if self.peek()[:2] == ("op", "("):
                if value not in FUNCTIONS:
                    raise ExpressionError(f"unknown function {value!r}", pos)
                self.take()
                arg = self.expr()
                self.expect_op(")")
                return ("call", value, arg)
            if value == "x":
                return ("x",)
            if value in CONSTANTS:
                return ("const", value)
            raise ExpressionError(f"unknown identifier {value!r}", pos)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(
            "unexpected end of expression" if kind == "end" else f"unexpected {value!r}",
            pos,
        )


def parse_potential_expr(text: str):
    """Parse an expression over x into an evaluable tree.

    Supports decimal literals, the variable x, the constants pi and
    e2 (= 1.44 eV nm), the operators + - * / ^ with unary minus, and the
    functions exp, abs, sqrt.
    """
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ExpressionError(f"trailing input {parser.peek()[1]!r}", pos)
    return node


def eval_expr(tree, x: float) -> float:
    op = tree[0]
    if op == "num":
        return tree[1]
    if op == "x":
        return x
    if op == "const":
        return CONSTANTS[tree[1]]
    if op == "neg":
        return -eval_expr(tree[1], x)
    if op == "call":
        return FUNCTIONS[tree[1]](eval_expr(tree[2], x))
    a = eval_expr(tree[1], x)
    b = eval_expr(tree[2], x)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    if op == "pow":
        return math.pow(a, b)
    raise ValueError(f"corrupt expression node {tree!r}")


def expr_to_text(tree) -> str:
    """Pretty-print a tree; re-parsing yields an evaluation-equivalent tree."""
    op = tree[0]
    if op == "num":
        return repr(tree[1])
    if op == "x":
        return "x"
    if op == "const":
        return tree[1]
    if op == "neg":
        return f"(-{expr_to_text(tree[1])})"
    if op == "call":
        return f"{tree[1]}({expr_to_text(tree[2])})"
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}[op]
    return f"({expr_to_text(tree[1])}{sym}{expr_to_text(tree[2])})"


# ---------------------------------------------------------------------------
# potential specs


@dataclass(frozen=True)
class PotentialSpec:
    """A position -> energy map with a human-readable label."""

    label: str
    evaluate: Callable[[float], float] = field(repr=False)


def make_expression(pieces) -> PotentialSpec:
    """Spec from expression text, or from a list of (xmin, xmax, text) pieces.

    Pieces are half-open ranges [xmin, xmax) that must tile a connected
    interval without overlap; use +-inf bounds to leave an end unbounded.
    """
    if isinstance(pieces, str):
        pieces = [(-math.inf, math.inf, pieces)]
    parsed = []
    for xmin, xmax, text in pieces:
        if not xmin < xmax:
            raise ValueError(f"empty piece range [{xmin!r}, {xmax!r})")
        tree = parse_potential_expr(text) if isinstance(text, str) else text
        parsed.append((float(xmin), float(xmax), tree))
    parsed.sort(key=lambda p: p[0])
    for (_, hi, _), (lo, _, _) in zip(parsed, parsed[1:]):
        if hi != lo:
            raise ValueError(
                f"expression pieces must tile a connected range; "
                f"piece ending at {hi!r} is followed by one starting at {lo!r}"
            )

    def evaluate(x: float) -> float:
        for lo, hi, tree in parsed:
            if lo <= x < hi:
                return eval_expr(tree, x)
        raise PotentialEvalError(f"no expression piece covers x={x!r}")

    label = "; ".join(
        f"[{lo:g},{hi:g}): {expr_to_text(t)}" for lo, hi, t in parsed
    )
    return PotentialSpec(label=label, evaluate=evaluate)


def _take_params(name, params, required, optional=None):
    params = dict(params)
    optional = optional or {}
    missing = [p for p in required if p not in params]
    if missing:
        raise ValueError(f"builtin {name!r} missing parameter(s): {', '.join(missing)}")
    unknown = [p for p in params if p not in required and p not in optional]
    if unknown:
        raise ValueError(f"builtin {name!r} got unknown parameter(s): {', '.join(unknown)}")
    out = dict(optional)
    out.update(params)
    return out


def _pair(value):
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ValueError(f"expected a scalar or a pair, got {value!r}")
        return float(value[0]), float(value[1])
    return float(value), float(value)


def make_builtin(name: str, params: dict) -> PotentialSpec:
    """Builtin potential families.

    lennard_jones(A, B, J=0, mass=None)
        A/x^12 - B/x^6 + J(J+1)/(phi*x)^2; `mass` sets phi and is required
        for J != 0.
    double_well(A_left, A_right, B, C, delta, alpha, a=0)
        A(x-a)^2 + B*exp(-(x-a-delta)^2/alpha^2) + C with A = A_left for
        x <= a and A_right for x > a.
    square_barrier(V0, center, width)
        V0 on [center - width/2, center + width/2), else 0.
    double_barrier_vwell(heights, widths, depth)
        Two rectangular barriers around a V-shaped well, centered at x = 0.
        heights: barrier height(s), scalar or (left, right);
        widths: (barrier_width, well_width); depth: V depth at the center.
        U = depth*(2|x|/well_width - 1) inside the well, the barrier height
        on each flanking barrier, 0 outside.
    coulomb_trunc(e2, eps)
        -e2/(|x| + |eps|).
    """
    if name == "lennard_jones":
        p = _take_params(name, params, ["A", "B"], {"J": 0.0, "mass": None})
        A, B, J = float(p["A"]), float(p["B"]), float(p["J"])
        if J != 0.0 and p["mass"] is None:
            raise ValueError("builtin 'lennard_jones' needs 'mass' when J != 0")
        cent = 0.0 if J == 0.0 else J * (J + 1.0) / phi_factor(float(p["mass"])) ** 2

        def evaluate(x, A=A, B=B, cent=cent):
            return A / x**12 - B / x**6 + cent / x**2

        label = f"lennard_jones(A={A:g}, B={B:g}, J={J:g})"

    elif name == "double_well":
        p = _take_params(
            name, params, ["A_left", "A_right", "B", "C", "delta", "alpha"], {"a": 0.0}
        )
        al, ar = float(p["A_left"]), float(p["A_right"])
        B, C = float(p["B"]), float(p["C"])
        a, delta, alpha = float(p["a"]), float(p["delta"]), float(p["alpha"])

        def evaluate(x):
            quad = al if x <= a else ar
            return quad * (x - a) ** 2 + B * math.exp(-((x - a - delta) / alpha) ** 2) + C

        label = (
            f"double_well(A_left={al:g}, A_right={ar:g}, B={B:g}, C={C:g}, "
            f"a={a:g}, delta={delta:g}, alpha={alpha:g})"
        )

    elif name == "square_barrier":
        p = _take_params(name, params, ["V0", "center", "width"])
        V0, center, width = float(p["V0"]), float(p["center"]), float(p["width"])
        if width <= 0:
            raise ValueError("builtin 'square_barrier' needs width > 0")
        lo, hi = center - width / 2.0, center + width / 2.0

        def evaluate(x):
            return V0 if lo <= x < hi else 0.0

        label = f"square_barrier(V0={V0:g}, center={center:g}, width={width:g})"

    elif name == "double_barrier_vwell":
        p = _take_params(name, params, ["heights", "widths", "depth"])
        h_left, h_right = _pair(p["heights"])
        if not isinstance(p["widths"], (list, tuple)) or len(p["widths"]) != 2:
            raise ValueError(
                "builtin 'double_barrier_vwell' needs widths=(barrier_width, well_width)"
            )
        w_barrier, w_well = float(p["widths"][0]), float(p["widths"][1])
        depth = float(p["depth"])
        if w_barrier <= 0 or w_well <= 0:
            raise ValueError("builtin 'double_barrier_vwell' needs positive widths")
        half_well = w_well / 2.0

        def evaluate(x):
            ax = abs(x)
            if ax < half_well:
                return depth * (ax / half_well - 1.0)
            if ax < half_well + w_barrier:
                return h_left if x < 0 else h_right
            return 0.0

        label = (
            f"double_barrier_vwell(heights=({h_left:g},{h_right:g}), "
            f"widths=({w_barrier:g},{w_well:g}), depth={depth:g})"
        )

    elif name == "coulomb_trunc":
        p = _take_params(name, params, ["e2", "eps"])
        e2, eps = float(p["e2"]), float(p["eps"])

        def evaluate(x):
            return -e2 / (abs(x) + abs(eps))

        label = f"coulomb_trunc(e2={e2:g}, eps={eps:g})"

    else:
        raise ValueError(f"unknown builtin potential {name!r}")

    return PotentialSpec(label=label, evaluate=evaluate)


# Representative resonant structure used by the docs, example configs, and
# verification suite (barrier height eV, (barrier, well) widths nm, V depth eV).
REFERENCE_DOUBLE_BARRIER = {
    "heights": 0.5,
    "widths": (0.5, 2.4),
    "depth": 0.25,
}


def load_table(rows) -> PotentialSpec:
    """Spec from (x, U) samples: zero-order hold, end values clamped."""
    rows = [(float(x), float(u)) for x, u in rows]
    if len(rows) < 2:
        raise ValueError("table needs at least 2 rows")
    xs = [r[0] for r in rows]
    us = [r[1] for r in rows]
    for a, b in zip(xs, xs[1:]):
        if not a < b:
            raise ValueError(f"table x values must be strictly increasing ({a!r} then {b!r})")

    def evaluate(x: float) -> float:
        i = bisect.bisect_right(xs, x) - 1
        if i < 0:
            i = 0
        return us[i]

    label = f"table({len(rows)} rows, x in [{xs[0]:g}, {xs[-1]:g}])"
    return PotentialSpec(label=label, evaluate=evaluate)


def read_table(path) -> PotentialSpec:
    """Load a table file: two whitespace-separated columns (x nm, U eV),
    '#' comments and blank lines ignored."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two columns, got {len(parts)}")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not numeric: {body!r}") from None
    return load_table(rows)


# ---------------------------------------------------------------------------
# discretization


@dataclass(frozen=True)
class DiscretizedPotential:
    """Step potential on N+1 nodes: step j is [x_j, x_{j+1}) with value u_j.

    dx[j] = x_{j+1} - x_j, with dx[N] = dx[N-1] kept for bookkeeping (the
    last step extends one increment past x_N).
    """

    x: np.ndarray
    u: np.ndarray
    dx: np.ndarray

    def __post_init__(self):
        if len(self.x) != len(self.u) or len(self.x) != len(self.dx):
            raise ValueError("x, u, dx must have equal length")
        if not np.all(np.diff(self.x) > 0):
            raise ValueError("grid nodes must be strictly increasing")

    @property
    def n_steps(self) -> int:
        return len(self.x) - 1


def discretize(spec: PotentialSpec, x0: float, xN: float, N: int) -> DiscretizedPotential:
    """Sample a spec on a uniform grid of N steps from x0 to xN.

    Values are taken at the left node of each step.  A non-finite or
    failing evaluation anywhere on the grid raises PotentialEvalError:
    singular potentials must be kept off the grid by construction.
    """
    if not x0 < xN:
        raise ValueError(f"need x0 < xN, got {x0!r} >= {xN!r}")
    if N < 2:
        raise ValueError(f"need N >= 2, got {N!r}")
    x = np.linspace(x0, xN, N + 1)
    u = np.empty(N + 1)
    for j, xj in enumerate(x):
        try:
            value = spec.evaluate(float(xj))
        except PotentialEvalError:
            raise
        except Exception as exc:
            raise PotentialEvalError(f"potential evaluation failed at x={xj!r}: {exc}") from exc
        if not math.isfinite(value):
            raise PotentialEvalError(f"potential is not finite at x={xj!r} (got {value!r})")
        u[j] = value
    dx = np.empty(N + 1)
    dx[:-1] = np.diff(x)
    dx[-1] = dx[-2]
    return DiscretizedPotential(x=x, u=u, dx=dx)
