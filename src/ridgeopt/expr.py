"""Piecewise-smooth objectives F(x, y) as small expression programs.

The DSL covers +, -, *, integer powers, abs, min and max over two variable
blocks ``x0..x{p-1}`` and ``y0..y{r-1}``.  Every expressible function is
piecewise polynomial, locally Lipschitz and semialgebraic.  min/max are
lowered to abs internally (min(a,b) = (a+b-|a-b|)/2, max likewise), so a
single kink mechanism serves all nonsmooth primitives: a kink is active at
a query point exactly when the argument of one of the lowered abs nodes
vanishes (up to ``eps_kink``).  Gradients of individual smooth selections
are obtained by fixing a sign for each active abs node and running forward
differentiation; every such selection gradient is an element of the Clarke
subdifferential of F.  ``parse`` emits a program straight into a flat value
tape, and all evaluation runs on that tape and on those derived from it; see
ExprProgram.
"""

from __future__ import annotations

import math
import operator
import re
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np


class ExprError(ValueError):
    """Base error for expression parsing and evaluation."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


@dataclass
class GradElement:
    """Gradient of one smooth selection of F at a query point.

    ``u`` is the x-block, ``v`` the y-block.  ``branch_id`` records the sign
    chosen at each active kink ('-', '+', or '0' for the averaged pair), in
    the deterministic preorder of the lowered abs nodes; it is empty at
    smooth points.
    """

    u: np.ndarray
    v: np.ndarray
    branch_id: str


@dataclass
class SubdiffSample:
    """Finite inner approximation of the Clarke subdifferential at a point.

    ``incomplete`` is set when the active kinks admit more selections than
    ``max_branches`` allowed to enumerate; the returned elements are still
    valid subdifferential members.
    """

    elements: list[GradElement]
    incomplete: bool

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


@dataclass(frozen=True)
class ExprProgram:
    """F(x, y) over dim_x x-variables and dim_y y-variables.

    ``tape`` is the value tape that ``parse`` emits; it computes F with
    native min/max.  ``lowered`` and ``scalar`` are built from it on first
    use.  Programs compare and hash as (tape, dim_x, dim_y).
    """

    tape: tuple
    dim_x: int
    dim_y: int

    def __post_init__(self):
        if self.dim_x < 1 or self.dim_y < 1:
            raise ExprError("dim_x and dim_y must be >= 1")

    @cached_property
    def lowered(self) -> tuple[tuple, tuple, np.ndarray]:
        """(tape, kinks) of F with min/max rewritten through abs (see
        _lowered_tape), and the rows of the identity, the variables' gradients."""
        return (*_lowered_tape(self.tape), np.eye(self.dim_x + self.dim_y))

    @cached_property
    def scalar(self) -> Callable[[list, list], float]:
        """F as ``f(x, y)`` over two lists of floats.

        It checks no dimensions; ``eval`` is the checked entry point.
        """
        return _scalar_function(self.tape)

    def __reduce__(self):
        # the cached generated function cannot be pickled
        return ExprProgram, (self.tape, self.dim_x, self.dim_y)

    def __str__(self) -> str:
        return to_text(self)


# ---------------------------------------------------------------------------
# Tapes.  A tape is a tuple of (op, a, b) instructions, one per slot;
# operands are earlier slots and the root is the last slot:
#   ("const", value, 0)  ("x", index, 0)  ("y", index, 0)  ("pow", slot, n)
#   ("neg", slot, 0)     ("abs", slot, k)  k: the switch, in the lowered tape
#   ("add" | "sub" | "mul" | "min" | "max", slot, slot)
# ---------------------------------------------------------------------------

_BINARY = frozenset(("add", "sub", "mul", "min", "max"))
_LEAVES = frozenset(("const", "x", "y"))


class _Tape:
    """Hash-consed instruction list: one slot per distinct instruction.

    Constants are told apart by bit pattern, so 0.0 and -0.0 get two slots.
    """

    def __init__(self):
        self.ops: list[tuple] = []
        self.slots: dict[tuple, int] = {}

    def emit(self, op: str, a, b=0) -> int:
        key = (op, struct.pack("<d", a) if op == "const" else a, b)
        if key not in self.slots:
            self.slots[key] = len(self.ops)
            self.ops.append((op, a, b))
        return self.slots[key]


def _minmax(t: _Tape, op: str, a: int, b: int, k=0) -> tuple[int, int, int]:
    """Emit op(a, b) = (a + b -/+ |a - b|)/2; returns its, a - b's and the abs slot."""
    d = t.emit("sub", a, b)
    m = t.emit("abs", d, k)
    s = t.emit("sub" if op == "min" else "add", t.emit("add", a, b), m)
    return t.emit("mul", t.emit("const", 0.5), s), d, m


def _lowered_tape(tape: tuple) -> tuple[tuple, tuple]:
    """The tape of F with min(a, b) = (a + b - |a - b|)/2 and max likewise.

    Its abs nodes are switches: structurally equal abs subexpressions of the
    lowered program share one, and switches are numbered in the preorder of
    their first occurrence.  The ``eq`` tape tracks that equality, under
    which a 0.0 and a -0.0 constant are equal, though the value tape tells
    them apart.  The walk is an iterative depth-first search from the root
    that visits each value slot once, so depth is limited only by memory; a
    slot seen before holds no first occurrence.  Returns (tape, kinks),
    kinks[k] being the slot of switch k's argument at that occurrence.
    """
    low, eq = _Tape(), _Tape()
    switches: dict[int, tuple[float, int]] = {}  # eq abs slot -> (rank, argument)
    slot: dict[int, tuple[int, int]] = {}  # value slot -> low and eq slots
    # entries are (slot, 0) before the visit and (slot, preorder rank) after
    # its operands, ``rank`` then being the rank of its last descendant
    rank, stack = 0, [(len(tape) - 1, 0)]
    while stack:
        i, entered = stack.pop()
        op, a, b = tape[i]
        if not entered:
            if i not in slot:  # a slot met again has been left already
                rank += 1
                stack.append((i, rank))
                if op in _BINARY:
                    stack.append((b, 0))
                if op not in _LEAVES:
                    stack.append((a, 0))
            continue
        if op in _LEAVES:  # for eq, a + 0.0 turns a -0.0 constant into 0.0
            slot[i] = low.emit(op, a), eq.emit(op, a + 0.0 if op == "const" else a)
            continue
        la, ca = slot[a]
        lb, cb = slot[b] if op in _BINARY else (b, b)
        if op in ("min", "max"):
            c, _, m = _minmax(eq, op, ca, cb)
            lslot, d, _ = _minmax(low, op, la, lb, m)
            # |a - b| follows a and b, and precedes later nodes, in preorder
            switches.setdefault(m, (rank + 0.5, d))
        elif op == "abs":
            c = eq.emit(op, ca)
            switches.setdefault(c, (entered, la))
            lslot = low.emit(op, la, c)
        else:
            c, lslot = eq.emit(op, ca, cb), low.emit(op, la, lb)
        slot[i] = lslot, c
    order = sorted(switches, key=lambda c: switches[c][0])
    number = {c: k for k, c in enumerate(order)}
    lowered = tuple((op, a, number[b]) if op == "abs" else (op, a, b)
                    for op, a, b in low.ops)
    return lowered, tuple(switches[c][1] for c in order)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# one token after optional whitespace; the group name is its kind
_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
                       r"|(?P<name>[A-Za-z]+)|(?P<op>[-+*(),])|(?P<end>\Z)|(?P<bad>\S))")
_INT_RE = re.compile(r"\d+$")
_DIGITS_RE = re.compile(r"\d+")


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.ahead = None  # the next token once peek has scanned it

    def _line_col(self, pos: int) -> tuple[int, int]:
        line = self.text.count("\n", 0, pos) + 1
        start = self.text.rfind("\n", 0, pos) + 1
        return line, pos - start + 1

    def error(self, message: str, pos: int | None = None):
        line, col = self._line_col(self.pos if pos is None else pos)
        raise ExprSyntaxError(message, line, col)

    def _scan(self) -> tuple[str, str, int, int]:
        m = _TOKEN_RE.match(self.text, self.pos)
        kind, start = m.lastgroup, m.start(m.lastgroup)
        if kind == "bad":
            self.error(f"unexpected character {m.group(kind)!r}", start)
        return kind, m.group(kind), start, m.end()

    def peek(self) -> str | None:
        """The next token's text, or None at the end; consumes nothing."""
        if self.ahead is None:
            self.ahead = self._scan()
        return self.ahead[1] or None

    def next_token(self) -> tuple[str, str, int]:
        """Returns (kind, value, pos); kind in num|name|op|end."""
        kind, value, start, self.pos = self.ahead or self._scan()
        self.ahead = None
        return kind, value, start

    def expect(self, value: str):
        kind, tok, pos = self.next_token()
        if tok != value:
            self.error(f"expected {value!r}, got {tok!r}" if tok else f"expected {value!r}",
                       pos)


class _Parser:
    """Recursive descent that emits into a _Tape as it parses.

    Every rule returns a slot, or a float for a constant that no instruction
    has used yet: a unary minus folds into such a literal, so negative
    constants round-trip exactly, and a constant takes a slot only when an
    instruction uses it.
    """

    def __init__(self, text: str, dim_x: int, dim_y: int):
        self.tk = _Tokenizer(text)
        self.dim_x = dim_x
        self.dim_y = dim_y
        self.tape = _Tape()

    def _slot(self, v) -> int:
        return self.tape.emit("const", v) if isinstance(v, float) else v

    def _emit(self, op: str, a, b=0) -> int:
        a = self._slot(a)
        return self.tape.emit(op, a, self._slot(b) if op in _BINARY else b)

    def parse(self) -> tuple:
        self._slot(self.expr())  # the root, which is the last slot emitted
        kind, tok, pos = self.tk.next_token()
        if kind != "end":
            self.tk.error(f"unexpected trailing input {tok!r}", pos)
        return tuple(self.tape.ops)

    def expr(self):
        v = self.term()
        while self.tk.peek() in ("+", "-"):
            _, op, _ = self.tk.next_token()
            v = self._emit("add" if op == "+" else "sub", v, self.term())
        return v

    def term(self):
        v = self.factor()
        while self.tk.peek() == "*":
            self.tk.next_token()
            v = self._emit("mul", v, self.factor())
        return v

    def factor(self):
        if self.tk.peek() == "-":
            self.tk.next_token()
            a = self.atom()
            return -a if isinstance(a, float) else self.tape.emit("neg", a)
        return self.atom()

    def atom(self):
        kind, tok, pos = self.tk.next_token()
        if kind == "num":
            return float(tok)
        if kind == "op" and tok == "(":
            v = self.expr()
            self.tk.expect(")")
            return v
        if kind == "name":
            if tok in ("x", "y"):
                return self._variable(tok, pos)
            if tok in ("abs", "min", "max", "pow"):
                self.tk.expect("(")
                a = self.expr()
                if tok == "abs":
                    v = self._emit("abs", a)
                elif tok == "pow":
                    self.tk.expect(",")
                    nk, ntok, npos = self.tk.next_token()
                    if nk != "num" or not _INT_RE.match(ntok) or int(ntok) < 1:
                        self.tk.error("pow exponent must be a positive integer", npos)
                    v = self._emit("pow", a, int(ntok))
                else:
                    self.tk.expect(",")
                    v = self._emit(tok, a, self.expr())
                self.tk.expect(")")
                return v
            self.tk.error(f"unknown function or variable {tok!r}", pos)
        self.tk.error(f"expected an atom, got {tok!r}" if tok else "unexpected end of input",
                      pos)

    def _variable(self, block: str, pos: int) -> int:
        # index digits must be adjacent to the block letter: "x0", "y12"
        m = _DIGITS_RE.match(self.tk.text, self.tk.pos)
        if not m:
            self.tk.error(f"variable {block!r} requires an index, e.g. {block}0", pos)
        self.tk.pos = m.end()
        index = int(m.group())
        dim = self.dim_x if block == "x" else self.dim_y
        if index >= dim:
            self.tk.error(f"variable {block}{index} out of range (dim {dim})", pos)
        return self.tape.emit(block, index)


def parse(text: str, dim_x: int, dim_y: int) -> ExprProgram:
    """Parse a DSL string into an ExprProgram.

    Raises ExprSyntaxError with line/column on malformed input, on
    variable indices outside [0, dim) or non-positive-integer exponents, and
    on nesting deeper than the recursive descent can follow.
    """
    parser = _Parser(text, dim_x, dim_y)
    try:
        tape = parser.parse()
    except RecursionError:
        line, col = parser.tk._line_col(parser.tk.pos)
        raise ExprSyntaxError("expression nested too deeply", line, col) from None
    return ExprProgram(tape, dim_x, dim_y)


# ---------------------------------------------------------------------------
# Printing (round-trips through parse)
# ---------------------------------------------------------------------------

_LVL_EXPR, _LVL_TERM, _LVL_FACTOR = 0, 1, 2


def _layout(tape: tuple, i: int, level: int) -> list:
    """The text of slot ``i`` printed at ``level``: strings, and (slot, level)
    pairs that stand for the text of an operand."""
    op, a, b = tape[i]
    if op == "const":  # inf has no literal; 1e999 parses to it
        s = repr(a) if math.isfinite(a) else ("-1e999" if a < 0 else "1e999")
        return [f"({s})" if a < 0 and level > _LVL_FACTOR else s]
    if op in ("x", "y"):
        return [f"{op}{a}"]
    if op == "abs":
        return ["abs(", (a, _LVL_EXPR), ")"]
    if op in ("min", "max"):
        return [f"{op}(", (a, _LVL_EXPR), ", ", (b, _LVL_EXPR), ")"]
    if op == "pow":
        return ["pow(", (a, _LVL_EXPR), f", {b})"]
    if op == "neg":
        parts, bound = ["-", (a, _LVL_FACTOR + 1)], _LVL_FACTOR
    elif op == "mul":
        parts, bound = [(a, _LVL_TERM), "*", (b, _LVL_FACTOR)], _LVL_TERM
    else:
        op = " + " if op == "add" else " - "
        parts, bound = [(a, _LVL_EXPR), op, (b, _LVL_TERM)], _LVL_EXPR
    return parts if level <= bound else ["(", *parts, ")"]


def to_text(prog: ExprProgram) -> str:
    """DSL text of a program, walked from the root slot; a shared slot is
    printed at each use.  Iterative, so depth is limited only by memory."""
    tape = prog.tape
    out: list[str] = []
    stack: list = [(len(tape) - 1, _LVL_EXPR)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            stack.extend(reversed(_layout(tape, *item)))
    return "".join(out)


# ---------------------------------------------------------------------------
# Evaluation.  Every value is a float64 with numpy's scalar semantics, which
# Python floats share except in pow: ``_pow`` covers the differences.
# ---------------------------------------------------------------------------

def _check_dims(prog: ExprProgram, x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[0] != prog.dim_x or y.shape[0] != prog.dim_y:
        raise ExprError(
            f"dimension mismatch: expected ({prog.dim_x}, {prog.dim_y}), "
            f"got ({x.shape[0]}, {y.shape[0]})")
    return x, y


def _pow(a: float, n: int) -> float:
    """``a ** n`` with numpy's float64 semantics: inf where Python raises."""
    try:
        return a ** n
    except OverflowError:
        return -math.inf if a < 0 and n % 2 else math.inf


_SOURCE = {"x": "x[{a:d}]", "y": "y[{a:d}]", "neg": "-{A}", "abs": "abs({A})",
           "add": "{A} + {B}", "sub": "{A} - {B}", "mul": "{A} * {B}",
           "min": "{A} if {A} < {B} or {A} != {A} else {B}",
           "max": "{A} if {A} > {B} or {A} != {A} else {B}",
           # below 2**(1023 // n) in magnitude a ** n is finite and Python's
           # pow is numpy's
           "pow": "{A} ** {b:d} if -m{i} < {A} < m{i} else _pow({A}, {b:d})"}


def _scalar_function(tape: tuple) -> Callable[[list, list], float]:
    """Compile a value tape to one straight-line Python function over floats.

    Constants and pow bounds are bound by name, never written into the
    source (inf has no literal, and ``-1.0 ** 2`` would parse as
    ``-(1.0 ** 2)``); only slot numbers, variable indices and pow exponents,
    all validated ints, appear as text.  min and max mirror np.minimum and
    np.maximum, signed zeros and NaN included.
    """
    env = {"_pow": _pow}
    names, lines = [], ["def f(x, y):"]
    for i, (op, a, b) in enumerate(tape):
        if op == "const":
            names.append(f"c{i}")
            env[f"c{i}"] = a
            continue
        if op == "pow":
            env[f"m{i}"] = 2.0 ** (1023 // b)
        A = "" if op in ("x", "y") else names[a]
        B = names[b] if op in _BINARY else ""
        lines.append(f"    t{i} = " + _SOURCE[op].format(a=a, b=b, i=i, A=A, B=B))
        names.append(f"t{i}")
    lines.append(f"    return {names[-1]}")
    exec(compile("\n".join(lines), "<ExprProgram>", "exec"), env)
    return env["f"]


# numpy operations of eval_many; unary ones take and ignore b, except pow
_ARRAY_OPS = {"const": np.float64, "neg": lambda a, _: -a,
              "abs": lambda a, _: np.abs(a), "pow": operator.pow,
              "add": operator.add, "sub": operator.sub, "mul": operator.mul,
              "min": np.minimum, "max": np.maximum}


def _run(tape: tuple, x, y, ops: dict) -> list:
    """Values of every slot of ``tape``, computed with ``ops``."""
    v = []
    for op, a, b in tape:
        if op == "const":
            v.append(ops["const"](a))
        elif op in ("x", "y"):
            v.append((x if op == "x" else y)[a])
        else:
            v.append(ops[op](v[a], v[b] if op in _BINARY else b))
    return v


def eval(prog: ExprProgram, x, y) -> float:  # noqa: A001 - deliberate shadow
    """Evaluate F(x, y) exactly (native min/max)."""
    x, y = _check_dims(prog, x, y)
    return prog.scalar(x.tolist(), y.tolist())


def eval_many(prog: ExprProgram, x, ys: np.ndarray) -> np.ndarray:
    """Evaluate F(x, y) for each row of ``ys`` (shape (N, r)) at fixed x.

    The y-variables are the columns of ``ys``; values agree with ``eval``
    except that numpy's array pow may differ from its scalar pow in the last
    bit.
    """
    x, cols = _check_dims(prog, x, np.asarray(ys).T)
    out = _run(prog.tape, x, cols, _ARRAY_OPS)[-1]
    return np.broadcast_to(np.asarray(out, dtype=float), (ys.shape[0],)).copy()


# ---------------------------------------------------------------------------
# Selection gradients
# ---------------------------------------------------------------------------

# forward mode over (value, gradient) pairs; _duals adds const and abs
_DUAL_OPS = {"neg": lambda a, _: (-a[0], -a[1]),
             "pow": lambda a, n: (_pow(a[0], n), n * _pow(a[0], n - 1) * a[1]),
             "add": lambda a, b: (a[0] + b[0], a[1] + b[1]),
             "sub": lambda a, b: (a[0] - b[0], a[1] - b[1]),
             "mul": lambda a, b: (a[0] * b[0], b[0] * a[1] + a[0] * b[1])}


def _duals(prog: ExprProgram, x: np.ndarray, y: np.ndarray, signs: dict) -> list:
    """(value, gradient) of every lowered slot: one smooth selection per branch.

    ``signs`` maps a switch to its fixed sign, a float or a column with one
    row per branch; every other abs takes the sign of its argument.  Values
    are floats, gradients have shape (dim,) or (branches, dim).  The per-op
    formulas are the classical ones with no shortcut for zero gradients: the
    signs of zeros reach the callers' byte-level deduplication.
    """
    tape, _, eye = prog.lowered
    zero = np.zeros(len(eye))

    def abs_(a, k):
        s = signs.get(k)
        if s is None:
            s = 1.0 if a[0] > 0 else (-1.0 if a[0] < 0 else 0.0)
        return abs(a[0]), s * a[1]

    ops = dict(_DUAL_OPS, const=lambda c: (c, zero), abs=abs_)
    return _run(tape, list(zip(x.tolist(), eye)),
                list(zip(y.tolist(), eye[prog.dim_x:])), ops)


def kink_args(prog: ExprProgram, x, y) -> list[float]:
    """Argument values of the unique abs kinks at (x, y), in preorder."""
    x, y = _check_dims(prog, x, y)
    duals = _duals(prog, x, y, {})
    return [duals[s][0] for s in prog.lowered[1]]


def _active_kinks(prog: ExprProgram, x, y, eps_kink: float) -> tuple[list, list[int]]:
    """The duals with no sign fixed, and the switches whose kink is active."""
    duals = _duals(prog, x, y, {})
    return duals, [k for k, s in enumerate(prog.lowered[1]) if abs(duals[s][0]) <= eps_kink]


_TIE_SIGMA = {"left": -1.0, "right": 1.0, "zero": 0.0}
_SIGMA_CHAR = {-1.0: "-", 1.0: "+", 0.0: "0"}


def grad_select(prog: ExprProgram, x, y, tie_policy: str = "zero",
                eps_kink: float = 0.0) -> GradElement:
    """One conservative-gradient element of F at (x, y).

    At active kinks the sign is fixed by ``tie_policy``: 'left' (-1),
    'right' (+1) or 'zero' (average of the two one-sided selections, itself
    a convex combination of limiting gradients and hence a Clarke element).
    Away from kinks this is the classical gradient.
    """
    x, y = _check_dims(prog, x, y)
    if tie_policy not in _TIE_SIGMA:
        raise ExprError(f"tie_policy must be one of {sorted(_TIE_SIGMA)}")
    sigma = _TIE_SIGMA[tie_policy]
    duals, active = _active_kinks(prog, x, y, eps_kink)
    if active:
        duals = _duals(prog, x, y, dict.fromkeys(active, sigma))
    g = duals[-1][1]
    return GradElement(u=g[:prog.dim_x].copy(), v=g[prog.dim_x:].copy(),
                       branch_id=_SIGMA_CHAR[sigma] * len(active))


def subdiff_sample(prog: ExprProgram, x, y, max_branches: int,
                   eps_kink: float = 0.0) -> SubdiffSample:
    """Enumerate smooth-selection gradients by flipping every active kink.

    Branches are enumerated in binary order over the active kinks (bit j set
    means sign +1 at kink j), so the output is deterministic.  When 2^k
    exceeds ``max_branches`` the enumeration is truncated (the all-plus
    branch is still forced in, so both one-sided grad_select elements are
    always present) and the sample is marked incomplete.  All branches go
    through one gradient pass, one row each.
    """
    x, y = _check_dims(prog, x, y)
    if max_branches < 1:
        raise ExprError("max_branches must be >= 1")
    duals, active = _active_kinks(prog, x, y, eps_kink)
    k = len(active)
    total = 1 << k
    incomplete = total > max_branches
    indices = list(range(min(total, max_branches)))
    if incomplete:
        indices.append(total - 1)

    ids = ["".join("+" if (idx >> j) & 1 else "-" for j in range(k))
           for idx in indices]
    if active:
        signs = np.array([[1.0 if c == "+" else -1.0 for c in bid] for bid in ids])
        duals = _duals(prog, x, y, {s: signs[:, j:j + 1] for j, s in enumerate(active)})
    g = duals[-1][1]
    rows = g if g.ndim == 2 else [g] * len(ids)  # no sign reached the root
    elements: list[GradElement] = []
    seen: set[bytes] = set()
    for row, branch_id in zip(rows, ids):
        key = row.tobytes()
        if key in seen:
            continue
        seen.add(key)
        elements.append(GradElement(u=row[:prog.dim_x].copy(),
                                    v=row[prog.dim_x:].copy(),
                                    branch_id=branch_id))
    return SubdiffSample(elements=elements, incomplete=incomplete)


def fd_check(prog: ExprProgram, x, y, h: float) -> float:
    """Max relative discrepancy between grad_select and central differences.

    The caller must keep (x, y) at least h away from every kink surface;
    this is checked by sampling: if any abs argument changes sign (or dies)
    across the stencil, an ExprError is raised.
    """
    x, y = _check_dims(prog, x, y)
    base_args = kink_args(prog, x, y)
    base_signs = [math.copysign(1.0, a) if a != 0 else 0.0 for a in base_args]
    if any(s == 0.0 for s in base_signs):
        raise ExprError("query point lies on a kink surface")

    g = grad_select(prog, x, y)
    grad = np.concatenate([g.u, g.v])
    p, r = prog.dim_x, prog.dim_y
    fd = np.zeros(p + r)
    for i in range(p + r):
        def shifted(sign):
            xs, ys = x.copy(), y.copy()
            if i < p:
                xs[i] += sign * h
            else:
                ys[i - p] += sign * h
            return xs, ys

        for s in (+1, -1):
            xs, ys = shifted(s)
            args = kink_args(prog, xs, ys)
            for a, bs in zip(args, base_signs):
                if a == 0.0 or math.copysign(1.0, a) != bs:
                    raise ExprError("kink surface within h of the FD stencil")
        xp, yp = shifted(+1)
        xm, ym = shifted(-1)
        fd[i] = (eval(prog, xp, yp) - eval(prog, xm, ym)) / (2 * h)
    denom = np.maximum(1.0, np.maximum(np.abs(grad), np.abs(fd)))
    return float(np.max(np.abs(grad - fd) / denom))
