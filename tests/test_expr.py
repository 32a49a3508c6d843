import pickle

import numpy as np
import pytest

from ridgeopt import expr
from ridgeopt.expr import (ExprError, ExprSyntaxError, parse, to_text,
                           grad_select, subdiff_sample, fd_check, kink_args)


CONVEX_HULL = "x0*y0 - 2*abs(abs(y0)-1)"
PO_FAILURE = "min(0, y0) - y0*min(abs(x0),1)"
ENVELOPE = "-abs(x0 - y0)"


class TestParse:
    def test_convex_hull_ast(self):
        prog = parse(CONVEX_HULL, 1, 1)
        assert str(prog) == "x0*y0 - 2.0*abs(abs(y0) - 1.0)"
        # operands come first, y0 has one slot, and a constant takes its
        # slot when an instruction first uses it
        assert prog.tape == (("x", 0, 0), ("y", 0, 0), ("mul", 0, 1),
                             ("abs", 1, 0), ("const", 1.0, 0), ("sub", 3, 4),
                             ("abs", 5, 0), ("const", 2.0, 0), ("mul", 7, 6),
                             ("sub", 2, 8))

    def test_single_variable(self):
        assert parse("x0", 1, 1).tape == (("x", 0, 0),)
        assert parse("-(2)", 1, 1).tape == (("const", -2.0, 0),)

    def test_po_failure_ast(self):
        prog = parse(PO_FAILURE, 1, 1)
        assert str(prog) == "min(0.0, y0) - y0*min(abs(x0), 1.0)"
        op, a, b = prog.tape[-1]
        assert op == "sub" and prog.tape[a][0] == "min" and prog.tape[b][0] == "mul"

    @pytest.mark.parametrize("text", [CONVEX_HULL, PO_FAILURE, ENVELOPE,
                                      "pow(x0, 3) - min(x0, max(y0, 2))",
                                      "-(x0 + y0)*-y0",
                                      "max(-1, min(1, x0))*y0 - 2*abs(abs(y0) - 1)"])
    def test_round_trip(self, text):
        prog = parse(text, 1, 1)
        again = parse(to_text(prog), 1, 1)
        assert again == prog
        assert str(again) == str(prog)

    def test_negative_literal_folds_and_round_trips(self):
        prog = parse("-1.53 + x0*-2*y0", 1, 1)
        assert str(prog) == "-1.53 + x0*-2.0*y0"
        assert prog.tape[prog.tape[-1][1]] == ("const", -1.53, 0)
        # no neg instruction, and no slot for the unnegated literals
        assert [op for op, _, _ in prog.tape].count("const") == 2
        assert all(op != "neg" for op, _, _ in prog.tape)
        assert parse(to_text(prog), 1, 1) == prog
        # a hand-built neg over a negative literal still prints parseably
        neg = expr.ExprProgram((("const", -2.5, 0), ("neg", 0, 0)), 1, 1)
        assert to_text(neg) == "-(-2.5)"
        assert parse(to_text(neg), 1, 1).tape == (("const", 2.5, 0),)

    def test_infinite_constants_round_trip(self):
        prog = parse("1e999 + x0", 1, 1)
        assert str(prog) == "1e999 + x0"
        assert parse(str(prog), 1, 1) == prog
        prog = parse("pow(y0 - -1e999, 3)*-(1e999)", 1, 1)
        assert str(prog) == "pow(y0 - -1e999, 3)*-1e999"
        assert parse(str(prog), 1, 1) == prog

    def test_equality_is_tape_equality(self):
        # equal zeros of opposite sign get two slots, so the tapes differ
        assert parse("abs(0) + abs(-0)", 1, 1) != parse("abs(0) + abs(0)", 1, 1)
        assert parse("x0 + (y0)", 1, 1) == parse("(x0) + y0", 1, 1)
        assert parse("x0 + y0", 1, 1) != parse("x0 + y0", 1, 2)

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as ei:
            parse("x0 + * y0", 1, 1)
        assert ei.value.col == 6

    def test_index_out_of_range(self):
        with pytest.raises(ExprSyntaxError):
            parse("x1 + y0", 1, 1)

    def test_non_integer_exponent(self):
        with pytest.raises(ExprSyntaxError):
            parse("pow(x0, 1.5)", 1, 1)
        with pytest.raises(ExprSyntaxError):
            parse("pow(x0, 0)", 1, 1)

    def test_trailing_input(self):
        with pytest.raises(ExprSyntaxError):
            parse("x0 y0", 1, 1)

    def test_variable_needs_index(self):
        with pytest.raises(ExprSyntaxError):
            parse("x + y0", 1, 1)

    def test_deep_nesting_is_a_syntax_error(self):
        assert parse("(" * 100 + "x0" + ")" * 100, 1, 1).tape == (("x", 0, 0),)
        with pytest.raises(ExprSyntaxError, match="nested too deeply"):
            parse("(" * 500 + "x0" + ")" * 500, 1, 1)

    def test_dimensions_at_least_one(self):
        with pytest.raises(ExprError):
            expr.ExprProgram((("x", 0, 0),), 0, 1)


class TestPickle:
    def test_compiled_program_round_trips(self):
        prog = parse(PO_FAILURE, 1, 1)
        value = expr.eval(prog, [0.5], [0.25])
        kinks = kink_args(prog, [0.5], [0.25])
        again = pickle.loads(pickle.dumps(prog))
        assert again == prog
        assert expr.eval(again, [0.5], [0.25]) == value
        assert kink_args(again, [0.5], [0.25]) == kinks


@pytest.fixture(scope="module")
def deep_sum():
    """F(x, y) = sum_k |y0 - k| for k = 0..2999: a left-nested 3000-term sum."""
    return parse(" + ".join(f"abs(y0 - {k})" for k in range(3000)), 1, 1)


class TestDeep:
    def test_eval(self, deep_sum):
        # 0.5 + sum_{k=1}^{2999} (k - 0.5), exact in floats
        assert expr.eval(deep_sum, [0.0], [0.5]) == 4497001.0
        ys = np.array([[0.5], [2999.0]])
        assert expr.eval_many(deep_sum, [0.0], ys).tolist() == \
            [4497001.0, 2999 * 3000 / 2]

    def test_subdiff_sample(self, deep_sum):
        ss = subdiff_sample(deep_sum, [0.0], [7.0], 8)
        # 7 kinks below y0 = 7, 2992 above, and the active one either way
        assert [e.v[0] for e in ss] == [-2986.0, -2984.0]
        assert [e.branch_id for e in ss] == ["-", "+"]

    def test_to_text_round_trips(self, deep_sum):
        text = to_text(deep_sum)
        assert text.startswith("abs(y0 - 0.0) + abs(y0 - 1.0) + ")
        assert str(deep_sum) == text
        again = parse(text, 1, 1)
        # programs compare as flat tapes, so == does not recurse
        assert again == deep_sum
        assert to_text(again) == text

    def test_hash_and_repr(self, deep_sum):
        assert hash(deep_sum) == hash(parse(str(deep_sum), 1, 1))
        assert repr(deep_sum).startswith("ExprProgram(tape=((")


class TestEval:
    def test_convex_hull_at_0_1(self):
        prog = parse(CONVEX_HULL, 1, 1)
        assert expr.eval(prog, [0.0], [1.0]) == 0.0

    def test_envelope_diagonal(self):
        prog = parse(ENVELOPE, 1, 1)
        assert expr.eval(prog, [2.0], [2.0]) == 0.0

    def test_po_failure_at_0_2(self):
        prog = parse(PO_FAILURE, 1, 1)
        assert expr.eval(prog, [0.0], [2.0]) == 0.0

    def test_dimension_mismatch(self):
        prog = parse("x0 + y0", 1, 1)
        with pytest.raises(ExprError):
            expr.eval(prog, [1.0, 2.0], [0.0])


class TestGradSelect:
    def test_polynomial(self):
        prog = parse("pow(x0, 2)", 1, 1)
        g = grad_select(prog, [3.0], [0.0])
        assert g.u[0] == 6.0 and g.branch_id == ""

    def test_abs_zero_policy_midpoint(self):
        prog = parse("abs(x0)", 1, 1)
        g = grad_select(prog, [0.0], [0.0], "zero")
        assert g.u[0] == 0.0 and g.branch_id == "0"

    def test_convex_hull_branches(self):
        prog = parse("x0*y0 - 2*abs(abs(y0)-1)", 1, 1)
        for policy, sigma in (("left", -1.0), ("right", 1.0)):
            g = grad_select(prog, [0.5], [1.0], policy)
            assert g.u[0] == pytest.approx(1.0)
            assert g.v[0] == pytest.approx(0.5 - 2.0 * sigma)

    def test_zero_policy_averages_branch_pair(self):
        prog = parse(ENVELOPE, 1, 1)
        gl = grad_select(prog, [1.0], [1.0], "left")
        gr = grad_select(prog, [1.0], [1.0], "right")
        gz = grad_select(prog, [1.0], [1.0], "zero")
        assert np.allclose(gz.u, 0.5 * (gl.u + gr.u))
        assert np.allclose(gz.v, 0.5 * (gl.v + gr.v))

    def test_bad_policy(self):
        prog = parse("x0 + y0", 1, 1)
        with pytest.raises(ExprError):
            grad_select(prog, [0.0], [0.0], "up")


class TestSubdiffSample:
    def test_envelope_two_selections(self):
        prog = parse(ENVELOPE, 1, 1)
        ss = subdiff_sample(prog, [1.0], [1.0], 8)
        got = {(e.u[0], e.v[0]) for e in ss}
        assert got == {(-1.0, 1.0), (1.0, -1.0)}
        assert not ss.incomplete

    def test_smooth_point_singleton(self):
        prog = parse(CONVEX_HULL, 1, 1)
        ss = subdiff_sample(prog, [0.5], [0.3], 8)
        assert len(ss) == 1
        g = grad_select(prog, [0.5], [0.3])
        assert np.allclose(ss.elements[0].u, g.u)
        assert np.allclose(ss.elements[0].v, g.v)

    def test_convex_hull_kink_branches(self):
        prog = parse(CONVEX_HULL, 1, 1)
        ss = subdiff_sample(prog, [0.0], [1.0], 8)
        got = {(e.u[0], e.v[0]) for e in ss}
        assert got == {(1.0, -2.0), (1.0, 2.0)}

    def test_deterministic(self):
        prog = parse(PO_FAILURE, 1, 1)
        a = subdiff_sample(prog, [0.0], [0.0], 16)
        b = subdiff_sample(prog, [0.0], [0.0], 16)
        assert [e.branch_id for e in a] == [e.branch_id for e in b]
        assert all(np.array_equal(x.u, y.u) and np.array_equal(x.v, y.v)
                   for x, y in zip(a, b))

    def test_contains_one_sided_grad_select(self):
        prog = parse(PO_FAILURE, 1, 1)
        ss = subdiff_sample(prog, [0.0], [0.0], 16)
        pairs = {(tuple(e.u), tuple(e.v)) for e in ss}
        for policy in ("left", "right"):
            g = grad_select(prog, [0.0], [0.0], policy)
            assert (tuple(g.u), tuple(g.v)) in pairs

    def test_overflow_flag_and_forced_all_plus(self):
        prog = parse("abs(x0) + abs(y0)", 1, 1)
        ss = subdiff_sample(prog, [0.0], [0.0], 2)
        assert ss.incomplete
        ids = [e.branch_id for e in ss]
        assert "--" in ids and "++" in ids

    def test_kink_band_widens_activation(self):
        # exact-zero activation by default; a band captures noisy inputs
        prog = parse("abs(x0) + y0", 1, 1)
        assert len(subdiff_sample(prog, [1e-12], [0.0], 8)) == 1
        ss = subdiff_sample(prog, [1e-12], [0.0], 8, eps_kink=1e-9)
        assert {e.u[0] for e in ss} == {-1.0, 1.0}
        g = grad_select(prog, [1e-12], [0.0], "zero", eps_kink=1e-9)
        assert g.u[0] == 0.0

    def test_every_element_is_a_selection_gradient(self):
        # elements at a kink are limits of nearby classical gradients
        prog = parse(ENVELOPE, 1, 1)
        ss = subdiff_sample(prog, [1.0], [1.0], 8)
        eps = 1e-7
        grads = set()
        for s in (-1, 1):
            g = grad_select(prog, [1.0 + s * eps], [1.0])
            grads.add((g.u[0], g.v[0]))
        assert {(e.u[0], e.v[0]) for e in ss} == grads


class TestFdCheck:
    def test_quadratic_tight(self):
        prog = parse("pow(x0, 2)", 1, 1)
        assert fd_check(prog, [1.0], [0.0], 1e-5) <= 1e-8

    def test_benchmarks_smooth_points(self):
        for text, x, y in ((CONVEX_HULL, [0.5], [0.3]),
                           (ENVELOPE, [2.0], [0.5])):
            prog = parse(text, 1, 1)
            assert fd_check(prog, x, y, 1e-6) <= 1e-5

    def test_raises_on_kink_in_stencil(self):
        prog = parse("abs(x0)", 1, 1)
        with pytest.raises(ExprError):
            fd_check(prog, [5e-7], [0.0], 1e-6)

    def test_random_smooth_points_match_fd(self):
        rng = np.random.Generator(np.random.Philox(3))
        prog = parse(CONVEX_HULL, 1, 1)
        checked = 0
        while checked < 100:
            x = rng.uniform(-2, 2, 1)
            y = rng.uniform(-2, 2, 1)
            if min(abs(a) for a in kink_args(prog, x, y)) < 1e-3:
                continue
            assert fd_check(prog, x, y, 1e-6) <= 1e-5
            ss = subdiff_sample(prog, x, y, 8)
            assert len(ss) == 1
            checked += 1
