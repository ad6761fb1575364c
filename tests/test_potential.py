import math

import numpy as np
import pytest

from qsweep import (
    ExpressionError,
    PotentialEvalError,
    discretize,
    load_table,
    make_builtin,
    make_expression,
    read_table,
)
from qsweep.potential import eval_expr, expr_to_text, parse_potential_expr


class TestParser:
    def test_lennard_jones_form(self):
        tree = parse_potential_expr("0.124e-12/x^12 - 1.488e-6/x^6")
        x = 0.0742
        expect = 0.124e-12 / x**12 - 1.488e-6 / x**6
        assert eval_expr(tree, x) == pytest.approx(expect, rel=1e-14)

    def test_constant_zero(self):
        assert eval_expr(parse_potential_expr("0"), 12.3) == 0.0

    def test_gaussian_at_center(self):
        tree = parse_potential_expr("450e-3*exp(-(x-0.5)^2/100)")
        assert eval_expr(tree, 0.5) == pytest.approx(0.450, rel=1e-15)

    def test_power_right_associative(self):
        assert eval_expr(parse_potential_expr("2^3^2"), 0.0) == 512.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert eval_expr(parse_potential_expr("-2^2"), 0.0) == -4.0

    def test_unary_minus_in_exponent(self):
        assert eval_expr(parse_potential_expr("2^-2"), 0.0) == 0.25

    def test_named_constants(self):
        assert eval_expr(parse_potential_expr("pi"), 0.0) == math.pi
        assert eval_expr(parse_potential_expr("e2"), 0.0) == 1.44

    def test_syntax_error_carries_position(self):
        with pytest.raises(ExpressionError) as err:
            parse_potential_expr("1 + @2")
        assert err.value.position == 4

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionError, match="unknown identifier"):
            parse_potential_expr("2*y")
        with pytest.raises(ExpressionError, match="unknown function"):
            parse_potential_expr("sin(x)")

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionError):
            parse_potential_expr("1 + 2 3")

    def test_surrounding_whitespace_ignored(self):
        assert eval_expr(parse_potential_expr("  1 + 2  "), 0.0) == 3.0

    @pytest.mark.parametrize(
        "text",
        [
            "0.124e-12/x^12 - 1.488e-6/x^6",
            "450e-3*exp(-(x-0.5)^2/100)",
            "-x^2 + 2^-2*x - abs(x-1)",
            "sqrt(abs(x))*pi - e2/x",
            "(x + 1)*(x - 2)/(x^2 + 1)",
        ],
    )
    def test_roundtrip_evaluation_equivalence(self, text):
        tree = parse_potential_expr(text)
        again = parse_potential_expr(expr_to_text(tree))
        xs = np.random.default_rng(11).uniform(0.25, 4.0, 100)
        for x in xs:
            assert eval_expr(again, x) == pytest.approx(eval_expr(tree, x), rel=1e-14)


class TestBuiltins:
    def test_lennard_jones_minimum(self):
        A, B = 0.124e-12, 1.488e-6
        spec = make_builtin("lennard_jones", {"A": A, "B": B, "J": 0})
        x_star = (2 * A / B) ** (1.0 / 6.0)
        assert spec.evaluate(x_star) == pytest.approx(-(B**2) / (4 * A), rel=1e-12)
        assert spec.evaluate(x_star) == pytest.approx(-4.464, abs=1e-3)
        # dense scan confirms this is the global minimum
        xs = np.linspace(0.03, 0.2, 5000)
        assert min(spec.evaluate(x) for x in xs) >= spec.evaluate(x_star) - 1e-9

    def test_lennard_jones_centrifugal_needs_mass(self):
        with pytest.raises(ValueError, match="mass"):
            make_builtin("lennard_jones", {"A": 1.0, "B": 1.0, "J": 8})
        spec0 = make_builtin("lennard_jones", {"A": 0.124e-12, "B": 1.488e-6})
        spec8 = make_builtin(
            "lennard_jones", {"A": 0.124e-12, "B": 1.488e-6, "J": 8, "mass": 469.4e6}
        )
        assert spec8.evaluate(0.05) > spec0.evaluate(0.05)

    def test_double_well_value_at_split(self):
        spec = make_builtin(
            "double_well",
            {"A_left": 4.0e-3, "A_right": 2.4e-3, "B": 0.450, "C": -0.500,
             "delta": 0.5, "alpha": 10.0},
        )
        assert spec.evaluate(0.0) == pytest.approx(-0.5 + 0.45 * math.exp(-0.0025), rel=1e-14)

    def test_double_well_two_sided_curvature(self):
        spec = make_builtin(
            "double_well",
            {"A_left": 4.0e-3, "A_right": 2.4e-3, "B": 0.0, "C": 0.0,
             "delta": 0.5, "alpha": 10.0},
        )
        assert spec.evaluate(-10.0) == pytest.approx(0.4)
        assert spec.evaluate(10.0) == pytest.approx(0.24)

    def test_coulomb_at_origin(self):
        spec = make_builtin("coulomb_trunc", {"e2": 1.44, "eps": 0.01})
        assert spec.evaluate(0.0) == pytest.approx(-144.0)
        assert spec.evaluate(1.0) == spec.evaluate(-1.0)

    def test_square_barrier_half_open(self):
        spec = make_builtin("square_barrier", {"V0": 0.7, "center": 0.0, "width": 1.0})
        assert spec.evaluate(-0.5) == 0.7
        assert spec.evaluate(0.5) == 0.0

    def test_double_barrier_vwell_geometry(self):
        spec = make_builtin(
            "double_barrier_vwell",
            {"heights": (0.5, 0.6), "widths": (0.4, 2.0), "depth": 0.25},
        )
        assert spec.evaluate(0.0) == pytest.approx(-0.25)
        assert spec.evaluate(0.5) == pytest.approx(-0.125)
        assert spec.evaluate(-1.2) == 0.5
        assert spec.evaluate(1.2) == 0.6
        assert spec.evaluate(3.0) == 0.0

    def test_unknown_name_and_params(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            make_builtin("morse", {})
        with pytest.raises(ValueError, match="missing parameter"):
            make_builtin("square_barrier", {"V0": 1.0})
        with pytest.raises(ValueError, match="unknown parameter"):
            make_builtin("square_barrier",
                         {"V0": 1.0, "center": 0.0, "width": 1.0, "hieght": 2})


class TestDiscretize:
    def test_molecular_grid_spacing(self):
        spec = make_builtin("lennard_jones", {"A": 0.124e-12, "B": 1.488e-6})
        dp = discretize(spec, 0.002, 0.2, 396)
        assert dp.dx[:-1] == pytest.approx(np.full(396, 0.0005), rel=1e-12)
        assert dp.dx[-1] == dp.dx[-2]
        assert len(dp.u) == len(dp.x) == 397

    def test_double_well_grid_spacing(self):
        spec = make_expression("0")
        dp = discretize(spec, -20.0, 20.0, 400)
        assert dp.dx[0] == pytest.approx(0.1, rel=1e-12)

    def test_constant_spec(self):
        dp = discretize(make_expression("0.25"), -1, 1, 10)
        assert np.all(dp.u == 0.25)

    def test_purity(self):
        spec = make_builtin("lennard_jones", {"A": 0.124e-12, "B": 1.488e-6})
        a = discretize(spec, 0.002, 0.2, 396)
        b = discretize(spec, 0.002, 0.2, 396)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.u, b.u)

    def test_singularity_fails_loudly(self):
        spec = make_builtin("coulomb_trunc", {"e2": 1.44, "eps": 0.0})
        with pytest.raises(PotentialEvalError):
            discretize(spec, -1.0, 1.0, 10)  # grid node lands on x = 0

    def test_validates_grid_arguments(self):
        spec = make_expression("0")
        with pytest.raises(ValueError):
            discretize(spec, 1.0, -1.0, 10)
        with pytest.raises(ValueError):
            discretize(spec, 0.0, 1.0, 1)

    def test_midpoint_error_shrinks_linearly(self):
        spec = make_expression("0.45*exp(-(x-0.5)^2/4)")
        errs = []
        for N in (100, 200, 400):
            dp = discretize(spec, -5, 5, N)
            half = dp.dx[0] / 2
            errs.append(
                max(abs(dp.u[j] - spec.evaluate(dp.x[j] + half)) for j in range(N))
            )
        assert errs[1] < 0.6 * errs[0]
        assert errs[2] < 0.6 * errs[1]


class TestExpressionPieces:
    def test_pieces_must_connect(self):
        with pytest.raises(ValueError, match="connected"):
            make_expression([(-1.0, 0.0, "1"), (0.5, 1.0, "2")])

    def test_piece_dispatch(self):
        spec = make_expression([(-math.inf, 0.0, "4e-3*x^2"), (0.0, math.inf, "2.4e-3*x^2")])
        assert spec.evaluate(-2.0) == pytest.approx(0.016)
        assert spec.evaluate(2.0) == pytest.approx(0.0096)

    def test_gap_fails_on_eval(self):
        spec = make_expression([(0.0, 1.0, "1")])
        with pytest.raises(PotentialEvalError):
            spec.evaluate(2.0)


class TestTable:
    def test_zero_order_hold(self):
        spec = load_table([(0.0, 1.0), (1.0, 2.0)])
        assert spec.evaluate(0.5) == 1.0

    def test_clamps_to_end_values(self):
        spec = load_table([(0.0, 1.0), (1.0, 2.0)])
        assert spec.evaluate(1.7) == 2.0
        assert spec.evaluate(-0.3) == 1.0

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            load_table([(0.0, 1.0), (0.0, 2.0)])
        with pytest.raises(ValueError):
            load_table([(1.0, 1.0), (0.0, 2.0)])
        with pytest.raises(ValueError):
            load_table([(0.0, 1.0)])

    def test_dump_reload_rediscretize_identical(self, tmp_path):
        spec = make_builtin("square_barrier", {"V0": 0.5, "center": 0.0, "width": 1.0})
        dp = discretize(spec, -2, 2, 100)
        path = tmp_path / "table.txt"
        rows = "".join(f"{x!r} {u!r}\n" for x, u in zip(dp.x.tolist(), dp.u.tolist()))
        path.write_text("# x_nm  U_eV\n" + rows)
        reloaded = read_table(path)
        dp2 = discretize(reloaded, -2, 2, 100)
        assert np.array_equal(dp.u, dp2.u)

    def test_read_table_parses_comments(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# header\n\n0.0 1.0  # inline\n1.0 2.0\n")
        spec = read_table(path)
        assert spec.evaluate(0.2) == 1.0

    def test_read_table_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0.0 1.0 7.0\n")
        with pytest.raises(ValueError, match="two columns"):
            read_table(path)
