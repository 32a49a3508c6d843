"""Compiled expression paths against a reference recursive interpreter.

The reference below is the tree-walking evaluator and forward-mode
selection gradient that the package used before programs were compiled to
a tape.  Random programs, including infinite and negative constants under
pow, structurally equal subtrees that differ only in the sign of a zero
constant, ties at +-0.0, NaN inputs and overflowing pow, must give bitwise
equal values, eval_many arrays, kink arguments and selection gradients.

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
from ridgeopt.expr import (Abs, Add, Const, ExprProgram, Max, Min, Mul, Neg,
                           Pow, Sub, Var)


# ---------------------------------------------------------------------------
# Reference interpreter
# ---------------------------------------------------------------------------

def ref_lower(node):
    if isinstance(node, (Const, Var)):
        return node
    if isinstance(node, Neg):
        return Neg(ref_lower(node.a))
    if isinstance(node, Abs):
        return Abs(ref_lower(node.a))
    if isinstance(node, Pow):
        return Pow(ref_lower(node.a), node.n)
    a, b = ref_lower(node.a), ref_lower(node.b)
    if isinstance(node, Add):
        return Add(a, b)
    if isinstance(node, Sub):
        return Sub(a, b)
    if isinstance(node, Mul):
        return Mul(a, b)
    if isinstance(node, Min):
        return Mul(Const(0.5), Sub(Add(a, b), Abs(Sub(a, b))))
    return Mul(Const(0.5), Add(Add(a, b), Abs(Sub(a, b))))


def ref_collect_abs(node, seen):
    if isinstance(node, Abs):
        if node not in seen:
            seen[node] = None
        ref_collect_abs(node.a, seen)
    elif isinstance(node, (Neg, Pow)):
        ref_collect_abs(node.a, seen)
    elif isinstance(node, (Add, Sub, Mul, Min, Max)):
        ref_collect_abs(node.a, seen)
        ref_collect_abs(node.b, seen)


class Ref:
    """A program with its lowered tree and unique abs nodes, computed once."""

    def __init__(self, root, p, r):
        self.root, self.p, self.r = root, p, r
        self.lowered = ref_lower(root)
        seen = {}
        ref_collect_abs(self.lowered, seen)
        self.abs_nodes = tuple(seen)


def ref_eval_node(node, x, y):
    if isinstance(node, Const):
        return np.float64(node.value)
    if isinstance(node, Var):
        return x[node.index] if node.block == "x" else y[node.index]
    if isinstance(node, Neg):
        return -ref_eval_node(node.a, x, y)
    if isinstance(node, Add):
        return ref_eval_node(node.a, x, y) + ref_eval_node(node.b, x, y)
    if isinstance(node, Sub):
        return ref_eval_node(node.a, x, y) - ref_eval_node(node.b, x, y)
    if isinstance(node, Mul):
        return ref_eval_node(node.a, x, y) * ref_eval_node(node.b, x, y)
    if isinstance(node, Pow):
        return ref_eval_node(node.a, x, y) ** node.n
    if isinstance(node, Abs):
        return np.abs(ref_eval_node(node.a, x, y))
    if isinstance(node, Min):
        return np.minimum(ref_eval_node(node.a, x, y), ref_eval_node(node.b, x, y))
    return np.maximum(ref_eval_node(node.a, x, y), ref_eval_node(node.b, x, y))


def ref_eval_grad(node, x, y, signs, dim, xoff, yoff):
    if isinstance(node, Const):
        return np.float64(node.value), np.zeros(dim)
    if isinstance(node, Var):
        g = np.zeros(dim)
        if node.block == "x":
            g[xoff + node.index] = 1.0
            return x[node.index], g
        g[yoff + node.index] = 1.0
        return y[node.index], g
    if isinstance(node, Neg):
        v, g = ref_eval_grad(node.a, x, y, signs, dim, xoff, yoff)
        return -v, -g
    if isinstance(node, Pow):
        va, ga = ref_eval_grad(node.a, x, y, signs, dim, xoff, yoff)
        return va ** node.n, node.n * va ** (node.n - 1) * ga
    if isinstance(node, Abs):
        va, ga = ref_eval_grad(node.a, x, y, signs, dim, xoff, yoff)
        if node in signs:
            s = signs[node]
        else:
            s = 1.0 if va > 0 else (-1.0 if va < 0 else 0.0)
        return abs(va), s * ga
    va, ga = ref_eval_grad(node.a, x, y, signs, dim, xoff, yoff)
    vb, gb = ref_eval_grad(node.b, x, y, signs, dim, xoff, yoff)
    if isinstance(node, Add):
        return va + vb, ga + gb
    if isinstance(node, Sub):
        return va - vb, ga - gb
    return va * vb, vb * ga + va * gb


def ref_eval(ref, x, y):
    return float(ref_eval_node(ref.root, np.asarray(x, float), np.asarray(y, float)))


def ref_eval_many(ref, x, ys):
    cols = [ys[:, j] for j in range(ys.shape[1])]
    out = ref_eval_node(ref.root, np.asarray(x, float), cols)
    return np.broadcast_to(np.asarray(out, dtype=float), (ys.shape[0],)).copy()


def ref_kink_args(ref, x, y):
    x, y = np.asarray(x, float), np.asarray(y, float)
    return [float(ref_eval_node(n.a, x, y)) for n in ref.abs_nodes]


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


def copy_tree(node, flip_zeros):
    """A structurally equal copy; flip_zeros swaps 0.0 and -0.0 constants."""
    if isinstance(node, Const):
        v = node.value
        return Const(-v if flip_zeros and v == 0.0 else v)
    if isinstance(node, Var):
        return Var(node.block, node.index)
    if isinstance(node, Pow):
        return Pow(copy_tree(node.a, flip_zeros), node.n)
    if isinstance(node, (Neg, Abs)):
        return type(node)(copy_tree(node.a, flip_zeros))
    return type(node)(copy_tree(node.a, flip_zeros), copy_tree(node.b, flip_zeros))


def random_tree(rng, depth, p, r, pool):
    if pool and rng.random() < 0.2:
        old = rng.choice(pool)
        roll = rng.random()
        if roll < 0.3:
            return old  # the same object twice
        return copy_tree(old, flip_zeros=roll < 0.7)
    if depth == 0 or rng.random() < 0.15:
        if rng.random() < 0.35:
            node = Const(rng.choice(CONSTS))
        elif rng.random() < 0.5:
            node = Var("x", rng.randrange(p))
        else:
            node = Var("y", rng.randrange(r))
    else:
        kind = rng.choice((Neg, Add, Sub, Mul, Pow, Abs, Abs, Min, Max, Min, Max))
        if kind is Pow:
            node = Pow(random_tree(rng, depth - 1, p, r, pool), rng.randint(1, 5))
        elif kind in (Neg, Abs):
            node = kind(random_tree(rng, depth - 1, p, r, pool))
        else:
            node = kind(random_tree(rng, depth - 1, p, r, pool),
                        random_tree(rng, depth - 1, p, r, pool))
    pool.append(node)
    return node


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


def check_against_reference(root, p, r, points):
    """Every compiled path at each (x, ys) point; ys[0] is the y of the
    scalar paths."""
    prog = ExprProgram(root, p, r)
    ref = Ref(root, p, r)
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
    root = random_tree(rng, 4, p, r, [])
    points = [(random_point(rng, p),
               np.array([random_point(rng, r) for _ in range(5)]))
              for _ in range(2)]
    check_against_reference(root, p, r, points)


@pytest.mark.parametrize("text", [
    "pow(x0, 3) + pow(y0, 2)", "pow(x0 - y0, 5)*y0", "-pow(abs(x0), 4)",
    "min(x0, y0) - max(-0.0, y0)", "abs(x0 - y0) + min(x0, 0) + max(y0, -0)",
    "pow(1e999, 3) - pow(-1e999, 3) + x0*pow(-2.5, 5)"])
def test_edge_values_match_reference(text):
    """Overflowing pow of either sign, ties at +-0.0, infinities and NaN."""
    root = expr.parse(text, 1, 1).root
    edge = [-1e155, 1e155, -0.0, 0.0, math.inf, -math.inf, math.nan, 2.0]
    points = [([a], np.array([[b], [a], [-b]])) for a in edge for b in edge]
    check_against_reference(root, 1, 1, points)
