"""Compiled expression paths against a reference recursive interpreter.

The reference below is the tree-walking evaluator and forward-mode
selection gradient that the package used before programs were compiled to
a tape, on trees of its own.  Random trees are printed as DSL text and
parsed.  They include infinite and negative constants under pow and
structurally equal subtrees that differ only in the sign of a zero
constant; with ties at +-0.0, NaN inputs and overflowing pow, every
compiled path must give bitwise equal values, eval_many arrays, kink
arguments and selection gradients.

All NaNs count as one.  Where two NaNs meet, which one survives depends on
numpy's array loop (memory alignment) and on whether CPython has
specialized the float operation yet, so NaN signs vary from call to call
even in the reference, and with them subdiff_sample's byte-level
deduplication.  Everything else, signed zeros included, is compared bit for
bit.

One deliberate difference: the old interpreter computed constant-only
subexpressions in Python floats, where an overflowing pow raised
OverflowError.  Every value is now a float64 with numpy scalar semantics,
inf on overflow, so the reference reads constants as np.float64.
"""

import math
import random

import numpy as np
import pytest

from ridgeopt import expr


# ---------------------------------------------------------------------------
# Reference interpreter over tuple trees:
#   ("const", value)  ("x", index)  ("y", index)  ("pow", a, n)
#   ("neg", a)  ("abs", a)  ("add" | "sub" | "mul" | "min" | "max", a, b)
# Tuples compare structurally, 0.0 == -0.0 included.
# ---------------------------------------------------------------------------

def ref_lower(node):
    op = node[0]
    if op in ("const", "x", "y"):
        return node
    if op == "pow":
        return ("pow", ref_lower(node[1]), node[2])
    if op in ("neg", "abs"):
        return (op, ref_lower(node[1]))
    a, b = ref_lower(node[1]), ref_lower(node[2])
    if op in ("add", "sub", "mul"):
        return (op, a, b)
    return ("mul", ("const", 0.5),
            ("sub" if op == "min" else "add", ("add", a, b), ("abs", ("sub", a, b))))


def ref_collect_abs(node, seen):
    if node[0] == "abs" and node not in seen:
        seen[node] = None
    if node[0] not in ("const", "x", "y"):
        ref_collect_abs(node[1], seen)
    if node[0] in ("add", "sub", "mul", "min", "max"):
        ref_collect_abs(node[2], seen)


class Ref:
    """A program with its lowered tree and unique abs nodes, computed once."""

    def __init__(self, tree, p, r):
        self.tree, self.p, self.r = tree, p, r
        self.lowered = ref_lower(tree)
        seen = {}
        ref_collect_abs(self.lowered, seen)
        self.abs_nodes = tuple(seen)


def ref_eval_node(node, x, y):
    op = node[0]
    if op == "const":
        return np.float64(node[1])
    if op == "x":
        return x[node[1]]
    if op == "y":
        return y[node[1]]
    a = ref_eval_node(node[1], x, y)
    if op == "neg":
        return -a
    if op == "pow":
        return a ** node[2]
    if op == "abs":
        return np.abs(a)
    b = ref_eval_node(node[2], x, y)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    return np.minimum(a, b) if op == "min" else np.maximum(a, b)


def ref_eval_grad(node, x, y, signs, dim, xoff, yoff):
    op = node[0]
    if op == "const":
        return np.float64(node[1]), np.zeros(dim)
    if op in ("x", "y"):
        g = np.zeros(dim)
        g[(xoff if op == "x" else yoff) + node[1]] = 1.0
        return (x if op == "x" else y)[node[1]], g
    va, ga = ref_eval_grad(node[1], x, y, signs, dim, xoff, yoff)
    if op == "neg":
        return -va, -ga
    if op == "pow":
        n = node[2]
        return va ** n, n * va ** (n - 1) * ga
    if op == "abs":
        if node in signs:
            s = signs[node]
        else:
            s = 1.0 if va > 0 else (-1.0 if va < 0 else 0.0)
        return abs(va), s * ga
    vb, gb = ref_eval_grad(node[2], x, y, signs, dim, xoff, yoff)
    if op == "add":
        return va + vb, ga + gb
    if op == "sub":
        return va - vb, ga - gb
    return va * vb, vb * ga + va * gb


def ref_eval(ref, x, y):
    return float(ref_eval_node(ref.tree, np.asarray(x, float), np.asarray(y, float)))


def ref_eval_many(ref, x, ys):
    cols = [ys[:, j] for j in range(ys.shape[1])]
    out = ref_eval_node(ref.tree, np.asarray(x, float), cols)
    return np.broadcast_to(np.asarray(out, dtype=float), (ys.shape[0],)).copy()


def ref_kink_args(ref, x, y):
    x, y = np.asarray(x, float), np.asarray(y, float)
    return [float(ref_eval_node(n[1], x, y)) for n in ref.abs_nodes]


def ref_active(ref, x, y, eps_kink):
    vals = ref_kink_args(ref, x, y)
    return [n for n, v in zip(ref.abs_nodes, vals) if abs(v) <= eps_kink]


_SIGMA = {"left": -1.0, "right": 1.0, "zero": 0.0}
_CHAR = {-1.0: "-", 1.0: "+", 0.0: "0"}


def ref_grad_select(ref, x, y, policy, eps_kink):
    x, y = np.asarray(x, float), np.asarray(y, float)
    sigma = _SIGMA[policy]
    active = ref_active(ref, x, y, eps_kink)
    signs = {node: sigma for node in active}
    _, g = ref_eval_grad(ref.lowered, x, y, signs, ref.p + ref.r, 0, ref.p)
    return g[:ref.p].copy(), g[ref.p:].copy(), _CHAR[sigma] * len(active)


def ref_subdiff_sample(ref, x, y, max_branches, eps_kink):
    x, y = np.asarray(x, float), np.asarray(y, float)
    active = ref_active(ref, x, y, eps_kink)
    total = 1 << len(active)
    incomplete = total > max_branches
    indices = list(range(min(total, max_branches)))
    if incomplete and (total - 1) not in indices:
        indices.append(total - 1)
    out, seen = [], set()
    for idx in indices:
        signs, chars = {}, []
        for j, node in enumerate(active):
            s = 1.0 if (idx >> j) & 1 else -1.0
            signs[node] = s
            chars.append(_CHAR[s])
        _, g = ref_eval_grad(ref.lowered, x, y, signs, ref.p + ref.r, 0, ref.p)
        if g.tobytes() in seen:
            continue
        seen.add(g.tobytes())
        out.append((g[:ref.p].copy(), g[ref.p:].copy(), "".join(chars)))
    return out, incomplete


# ---------------------------------------------------------------------------
# Random programs and points
# ---------------------------------------------------------------------------

CONSTS = (0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 0.25, 1e-3, 7.0,
          math.inf, -math.inf)
VALUES = (0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0, 0.25, 0.5,
          math.nan, -math.nan, math.inf, -math.inf, 1e200, -1e155)


def flip_zeros(node):
    """A structurally equal copy with 0.0 and -0.0 constants swapped."""
    if node[0] == "const":
        return ("const", -node[1]) if node[1] == 0.0 else node
    if node[0] in ("x", "y"):
        return node
    if node[0] == "pow":
        return ("pow", flip_zeros(node[1]), node[2])
    return (node[0],) + tuple(flip_zeros(a) for a in node[1:])


def random_tree(rng, depth, p, r, pool):
    if pool and rng.random() < 0.2:
        old = rng.choice(pool)
        return flip_zeros(old) if rng.random() < 0.5 else old
    if depth == 0 or rng.random() < 0.15:
        if rng.random() < 0.35:
            node = ("const", rng.choice(CONSTS))
        elif rng.random() < 0.5:
            node = ("x", rng.randrange(p))
        else:
            node = ("y", rng.randrange(r))
    else:
        op = rng.choice(("neg", "add", "sub", "mul", "pow", "abs", "abs",
                         "min", "max", "min", "max"))
        a = random_tree(rng, depth - 1, p, r, pool)
        if op == "pow":
            node = ("pow", a, rng.randint(1, 5))
        elif op == "neg" and a[0] == "const":
            node = ("const", -a[1])  # the parser folds a negated literal
        elif op in ("neg", "abs"):
            node = (op, a)
        else:
            node = (op, a, random_tree(rng, depth - 1, p, r, pool))
    pool.append(node)
    return node


_INFIX = {"add": " + ", "sub": " - ", "mul": "*"}


def to_dsl(node) -> str:
    """DSL text that parses to ``node``: every infix operation and negative
    constant in parentheses, and +-inf written as the overflowing 1e999."""
    op = node[0]
    if op == "const":
        v = node[1]
        text = "1e999" if math.isinf(v) else repr(abs(v))
        return f"(-{text})" if math.copysign(1.0, v) < 0 else text
    if op in ("x", "y"):
        return f"{op}{node[1]}"
    if op == "pow":
        return f"pow({to_dsl(node[1])}, {node[2]})"
    if op == "neg":
        return f"-({to_dsl(node[1])})"
    if op == "abs":
        return f"abs({to_dsl(node[1])})"
    a, b = to_dsl(node[1]), to_dsl(node[2])
    return f"({a}{_INFIX[op]}{b})" if op in _INFIX else f"{op}({a}, {b})"


def tree_of(prog, slot=-1):
    """The tuple tree of a parsed program, for the hand-written edge cases."""
    op, a, b = prog.tape[slot]
    if op in ("const", "x", "y"):
        return (op, a)
    if op == "pow":
        return ("pow", tree_of(prog, a), b)
    if op in ("neg", "abs"):
        return (op, tree_of(prog, a))
    return (op, tree_of(prog, a), tree_of(prog, b))


def random_point(rng, n):
    out = []
    for _ in range(n):
        out.append(rng.choice(VALUES) if rng.random() < 0.7
                   else round(rng.uniform(-2.0, 2.0), rng.choice((1, 2, 8))))
    return out


def array_bits(a):
    a = np.array(a, dtype=float)
    a[np.isnan(a)] = np.nan
    return a.tobytes()


def canonical(elements):
    """(u, v, branch_id) triples as array_bits, deduplicated again on those.

    Deduplication on raw bytes keeps the first row of every NaN-blind class
    and maybe more, so the result is the same whichever NaN signs occurred.
    """
    out, seen = [], set()
    for u, v, bid in elements:
        key = (array_bits(u), array_bits(v))
        if key not in seen:
            seen.add(key)
            out.append(key + (bid,))
    return out


CASES = [(seed, 1 + seed % 2, 1 + (seed // 2) % 2 + (seed % 7 == 0))
         for seed in range(120)]


def check_against_reference(prog, tree, points):
    """Every compiled path of ``prog`` against the reference on ``tree``, at
    each (x, ys) point; ys[0] is the y of the scalar paths."""
    ref = Ref(tree, prog.dim_x, prog.dim_y)
    with np.errstate(all="ignore"):
        for x, ys in points:
            y = ys[0]
            assert array_bits(expr.eval(prog, x, y)) == \
                array_bits(ref_eval(ref, x, y))
            assert array_bits(expr.kink_args(prog, x, y)) == \
                array_bits(ref_kink_args(ref, x, y))
            assert array_bits(expr.eval_many(prog, x, ys)) == \
                array_bits(ref_eval_many(ref, x, ys))
            for eps_kink in (0.0, 1e-9):
                for policy in ("left", "right", "zero"):
                    g = expr.grad_select(prog, x, y, policy, eps_kink)
                    u, v, bid = ref_grad_select(ref, x, y, policy, eps_kink)
                    assert (array_bits(g.u), array_bits(g.v), g.branch_id) == \
                        (array_bits(u), array_bits(v), bid)
                for max_branches in (16, 3):
                    ss = expr.subdiff_sample(prog, x, y, max_branches, eps_kink)
                    want, incomplete = ref_subdiff_sample(
                        ref, x, y, max_branches, eps_kink)
                    got = [(e.u, e.v, e.branch_id) for e in ss]
                    assert (canonical(got), ss.incomplete) == \
                        (canonical(want), incomplete)


@pytest.mark.parametrize("seed,p,r", CASES)
def test_random_programs_match_reference(seed, p, r):
    rng = random.Random(seed)
    tree = random_tree(rng, 4, p, r, [])
    points = [(random_point(rng, p),
               np.array([random_point(rng, r) for _ in range(5)]))
              for _ in range(2)]
    check_against_reference(expr.parse(to_dsl(tree), p, r), tree, points)


@pytest.mark.parametrize("text", [
    "pow(x0, 3) + pow(y0, 2)", "pow(x0 - y0, 5)*y0", "-pow(abs(x0), 4)",
    "min(x0, y0) - max(-0.0, y0)", "abs(x0 - y0) + min(x0, 0) + max(y0, -0)",
    "pow(1e999, 3) - pow(-1e999, 3) + x0*pow(-2.5, 5)"])
def test_edge_values_match_reference(text):
    """Overflowing pow of either sign, ties at +-0.0, infinities and NaN."""
    prog = expr.parse(text, 1, 1)
    edge = [-1e155, 1e155, -0.0, 0.0, math.inf, -math.inf, math.nan, 2.0]
    points = [([a], np.array([[b], [a], [-b]])) for a in edge for b in edge]
    check_against_reference(prog, tree_of(prog), points)
