"""Numerics layer: Bessel contracts against independent oracles, bracketed
root finding, and the damped Gauss-Newton engine."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from field_oracle import assert_bitwise_equal

from nanotrap import numerics
from nanotrap.errors import BracketError, DegenerateFitError, DomainError, EvaluationError
from nanotrap.numerics import MAX_NORMAL_CONDITION, bessel_j, bessel_k, find_root, least_squares


def series_j(order, x, terms=60):
    """Power-series oracle for J_n(x), independent of the implementation."""
    total = 0.0
    for k in range(terms):
        term = (-1) ** k * (x / 2.0) ** (2 * k + order)
        for m in range(1, k + 1):
            term /= m
        for m in range(1, k + order + 1):
            term /= m
        total += term
    return total


def full_rule_k(orders, x):
    """K_n by the trapezoid rule of ``bessel_k`` on all 201 nodes, clamped at -700."""
    _, weights, _ = numerics._tables(orders)
    terms = np.exp(np.maximum(x[:, None] * numerics._K_NEG_COSH, -700.0))
    return np.einsum("bk,nk->nb", terms, weights)


def quadrature_k(order, x, n=40001, t_max=40.0):
    """Integral-representation oracle: K_v(x) = int_0^inf exp(-x cosh t) cosh(vt) dt."""
    t = np.linspace(0.0, t_max, n)
    integrand = np.exp(-x * np.cosh(t) + np.log(np.cosh(order * t)))
    return np.trapezoid(integrand, t)


class TestBesselJ:
    def test_origin(self):
        assert bessel_j(0, 0.0) == 1.0

    def test_first_zero_of_j0(self):
        # locate the zero of the series oracle by bisection, then compare
        lo, hi = 2.0, 3.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if series_j(0, lo) * series_j(0, mid) <= 0:
                hi = mid
            else:
                lo = mid
        zero = 0.5 * (lo + hi)
        assert zero == pytest.approx(2.404826, abs=1e-6)
        assert abs(bessel_j(0, zero)) < 1e-6

    def test_against_series_oracle(self):
        assert bessel_j(1, 1.0) == pytest.approx(0.4400506, abs=1e-7)
        for order in (0, 1, 2, 3, 5):
            for x in (0.3, 1.7, 6.5, 14.0):
                assert bessel_j(order, x) == pytest.approx(
                    series_j(order, x, terms=80), rel=1e-10, abs=1e-14
                )

    def test_wronskian_like_derivative_identity(self):
        # J0'(x) = -J1(x) via central differences on [0.5, 10]
        xs = np.linspace(0.5, 10.0, 41)
        h = 1e-6
        d = (bessel_j(0, xs + h) - bessel_j(0, xs - h)) / (2 * h)
        assert np.max(np.abs(d + bessel_j(1, xs))) < 1e-9

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            bessel_j(0, np.inf)


class TestBesselK:
    def test_against_quadrature_oracle(self):
        assert bessel_k(0, 1.0) == pytest.approx(0.4210244, abs=1e-7)
        assert bessel_k(1, 1.0) == pytest.approx(0.6019072, abs=1e-7)
        for order in (0, 1, 2, 5):
            for x in (0.05, 0.8, 3.0, 12.0):
                assert bessel_k(order, x) == pytest.approx(
                    quadrature_k(order, x), rel=1e-8
                )

    def test_monotone_decreasing(self):
        assert bessel_k(0, 2.0) < bessel_k(0, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_k(0, 0.0)
        with pytest.raises(DomainError):
            bessel_k(0, -1.0)


class TestBesselAgainstScipy:
    """The quadratures against scipy.special over their whole validated domain."""

    ORDERS = (0, 1, 2, 3, 4, 5)

    def test_j_absolute_error(self):
        from scipy.special import jv

        x = np.linspace(-30.0, 30.0, 6001)
        out = bessel_j(self.ORDERS, x)
        assert out.shape == (6, x.size)
        assert np.max(np.abs(out - jv(np.array(self.ORDERS)[:, None], x))) < 1e-15

    def test_k_relative_error(self):
        # below 40 the trapezoid rule, above it the Hankel expansion; scipy's own
        # kv loses digits at large x, so the oracle there is kve e^-x
        from scipy.special import kve

        x = np.concatenate([np.geomspace(1e-4, 40.0, 4001), np.geomspace(40.0, 700.0, 801)])
        oracle = kve(np.array(self.ORDERS)[:, None], x) * np.exp(-x)
        assert np.max(np.abs(bessel_k(self.ORDERS, x) / oracle - 1.0)) < 5e-15

    def test_k_scalar_relative_error(self):
        # the long-double rule for one argument, used where bits must not depend on
        # numpy's SIMD level: the same accuracy as bessel_k, and the same refusals
        from scipy.special import kve

        for x in np.geomspace(1e-4, 700.0, 401):
            oracle = kve(np.array(self.ORDERS), x) * np.exp(-x)
            assert np.max(np.abs(numerics.bessel_k_scalar(self.ORDERS, x) / oracle - 1.0)) < 5e-15
        assert numerics.bessel_k_scalar(1, 2.5) == pytest.approx(bessel_k(1, 2.5), rel=5e-15, abs=0)
        for bad in (0.99e-4, 701.0, np.nan):
            with pytest.raises(DomainError):
                numerics.bessel_k_scalar(0, bad)

    def test_order_sequence_matches_single_orders(self):
        for fn, x in (
            (bessel_j, np.array([[0.3, 2.0], [7.5, 29.0]])),
            (bessel_k, np.array([[0.3, 2.0], [7.5, 45.0]])),  # both K branches
        ):
            stacked = fn([3, 0, 2], x)
            assert stacked.shape == (3, 2, 2)
            for row, order in zip(stacked, [3, 0, 2]):
                assert np.array_equal(row, fn(order, x))

    @pytest.mark.simd_baseline
    @pytest.mark.parametrize("size", [1, 33, 63, 64, 65, 129, 250, 4500])
    def test_batch_invariance(self, size):
        # a value never depends on the rest of its batch (no BLAS reduction):
        # the array call equals the elementwise calls bit for bit
        rng = np.random.default_rng(size)
        for fn, x in (
            (bessel_j, rng.uniform(-30.0, 30.0, size)),
            (bessel_k, np.exp(rng.uniform(np.log(1e-4), np.log(700.0), size))),
        ):
            batch = fn((0, 1, 2, 3), x)
            single = np.array([fn((0, 1, 2, 3), v) for v in x.tolist()]).T
            assert np.array_equal(batch, single)

    def test_accepted_order_types(self):
        # one order as an int, an np.int64 or an integral float, and several as a tuple, a list or
        # an array: the same bits; a non-integral, negative or too high order is refused
        x = np.array([[0.3, 2.0], [7.5, 29.0]])
        for fn in (bessel_j, bessel_k):
            one, several = fn(2, x), fn((0, 2), x)
            assert one.shape == (2, 2) and several.shape == (2, 2, 2)
            for order in (np.int64(2), 2.0):
                assert_bitwise_equal(fn(order, x), one)
            for orders in ([0, 2], np.array([0, 2]), (0.0, 2.0)):
                assert_bitwise_equal(fn(orders, x), several)
            for bad in (2.5, 6, -1, (0, 2.5), [0, 6]):
                with pytest.raises(DomainError, match="orders must be integers"):
                    fn(bad, x)

    @pytest.mark.simd_baseline
    def test_small_calls_equal_their_values_in_a_batch(self):
        # a call of at most 64 arguments is one block without a loop; every size from 1 to 65, at
        # the start of a 129-argument batch and across its first block boundary, gives the batch's bits
        rng = np.random.default_rng(34)
        x = np.exp(rng.uniform(np.log(1e-4), np.log(700.0), 129))
        batch = bessel_k((0, 1, 2), x)
        for size in range(1, 66):
            for start in (0, 64 - size // 2):
                alone = bessel_k((0, 1, 2), x[start : start + size])
                assert_bitwise_equal(alone, batch[:, start : start + size])

    def test_k_equals_the_full_201_node_rule(self):
        # nodes whose terms are clamped for every argument of a 64-argument block are
        # dropped; the values equal the full rule's bit for bit, whatever the block mix
        rng = np.random.default_rng(14)
        for _ in range(300):
            orders = tuple(rng.choice(6, size=rng.integers(1, 7), replace=False).tolist())
            size = int(rng.integers(1, 201))
            lo, hi = np.sort(rng.uniform(np.log(1e-4), np.log(40.0), 2))
            x = np.exp(rng.uniform(lo, hi, size))
            x[rng.random(size) < 0.1] = np.exp(rng.uniform(np.log(1e-4), np.log(40.0)))
            assert_bitwise_equal(bessel_k(orders, x), full_rule_k(orders, x))

    def test_refuses_outside_validated_domain(self):
        for call in (
            lambda: bessel_j(0, 30.5),
            lambda: bessel_j(0, -30.5),
            lambda: bessel_j(6, 1.0),
            lambda: bessel_j([0, 1.5], 1.0),
            lambda: bessel_k(0, 0.99e-4),
            lambda: bessel_k(0, 701.0),
            lambda: bessel_k(0, np.nan),
            lambda: bessel_k(-1, 1.0),
            # arrays: one element outside the domain, or NaN, anywhere in the batch
            lambda: bessel_j(0, np.array([0.0, np.nan, 1.0])),
            lambda: bessel_k(0, np.array([1.0, 50.0, 701.0])),
            lambda: bessel_k(0, np.array([[45.0, 0.99e-4], [1.0, 2.0]])),
            lambda: bessel_k(0, np.array([1.0, np.nan, 50.0])),
        ):
            with pytest.raises(DomainError):
                call()


class TestFindRoot:
    def test_cosine(self):
        assert find_root(np.cos, 1.0, 2.0, 1e-12) == pytest.approx(np.pi / 2, abs=1e-11)

    def test_sqrt2(self):
        assert find_root(lambda x: x * x - 2.0, 0.0, 2.0, 1e-12) == pytest.approx(
            np.sqrt(2.0), abs=1e-11
        )

    def test_j0_zero(self):
        root = find_root(lambda x: bessel_j(0, x), 2.0, 3.0, 1e-9)
        assert root == pytest.approx(2.404826, abs=1e-6)

    def test_endpoint_order_independent(self):
        f = lambda x: x**3 - 1.7
        a = find_root(f, 0.0, 2.0, 1e-13)
        b = find_root(lambda x: -f(x), 0.0, 2.0, 1e-13)
        assert a == pytest.approx(b, abs=1e-12)

    def test_no_bracket(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-9)

    def test_non_finite_evaluation(self):
        with pytest.raises(EvaluationError):
            find_root(lambda x: np.nan, 0.0, 1.0, 1e-9)

    def test_non_finite_midpoint(self):
        # finite with a sign change at both ends, NaN at the first midpoint
        f = lambda x: np.nan if 0.4 < x < 0.6 else x - 0.45
        with pytest.raises(EvaluationError):
            find_root(f, 0.0, 1.0, 1e-9)

    def test_tol_below_one_ulp_terminates(self):
        calls = []

        def f(x):
            calls.append(x)
            return x * x - 2.0

        root = find_root(f, 1.0, 2.0, 1e-300)
        assert abs(root - np.sqrt(2.0)) <= 2 * np.spacing(np.sqrt(2.0))
        assert len(calls) < 100

    @pytest.mark.parametrize("tol", [1e-3, 1e-7, 1e-12])
    def test_within_tol_either_orientation(self, tol):
        root = 1.7 ** (1 / 3)
        f = lambda x: x**3 - 1.7
        for lo, hi in ((0.0, 2.0), (2.0, 0.0)):
            for g in (f, lambda x: -f(x)):
                assert abs(find_root(g, lo, hi, tol) - root) <= tol


def line(params, x):
    x = np.asarray(x, dtype=float)
    return params[0] * x + params[1], np.column_stack([x, np.ones_like(x)])


def lorentzian_dip(params, x):
    amp, center, width = params
    x = np.asarray(x, dtype=float)
    lorentz = 1.0 / (1.0 + 4.0 * (x - center) ** 2 / width**2)
    slope = -8.0 * amp * (x - center) * lorentz**2 / width**2  # d/d(center)
    return 1.0 - amp * lorentz, np.column_stack([-lorentz, slope, slope * (x - center) / width])


class TestLeastSquares:
    def test_exact_line_recovery(self):
        x = np.linspace(-3, 5, 30)
        res = least_squares(line, [0.0, 0.0], x, 2.0 * x + 1.0, np.ones_like(x))
        assert res.converged
        assert np.allclose(res.parameters, [2.0, 1.0], atol=1e-8)
        assert res.residual_norm < 1e-10

    def test_lorentzian_dip_recovery(self):
        truth = np.array([0.6, 1.2e6, 5e6])
        x = np.linspace(-20e6, 20e6, 60)
        y, _ = lorentzian_dip(truth, x)
        res = least_squares(lorentzian_dip, truth * 1.15, x, y, np.ones_like(x))
        assert np.max(np.abs(res.parameters - truth) / truth) < 1e-6

    @settings(max_examples=25, deadline=None)
    @given(
        st.tuples(
            st.floats(-0.19, 0.19), st.floats(-0.19, 0.19), st.floats(-0.19, 0.19)
        )
    )
    def test_recovery_from_any_nearby_start(self, rel_offsets):
        truth = np.array([0.6, 1.2e6, 5e6])
        x = np.linspace(-20e6, 20e6, 60)
        y, _ = lorentzian_dip(truth, x)
        start = truth * (1.0 + np.array(rel_offsets))
        res = least_squares(lorentzian_dip, start, x, y, np.ones_like(x))
        assert np.max(np.abs(res.parameters - truth) / truth) < 1e-6

    def test_covariance_symmetric_psd(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        x = np.linspace(0, 10, 40)
        y = 2.0 * x + 1.0 + rng.normal(0, 0.1, x.size)
        res = least_squares(line, [1.5, 0.5], x, y, np.full_like(x, 100.0))
        cov = res.covariance
        assert np.allclose(cov, cov.T)
        assert np.all(np.linalg.eigvalsh(cov) >= -1e-18)

    def test_covariance_is_undamped_inverse_at_the_fit(self):
        # linear model: the covariance is exactly (X^T W X)^-1 times the residual variance
        rng = np.random.Generator(np.random.Philox(key=11))
        x = np.linspace(0, 10, 40)
        w = np.full_like(x, 100.0)
        y = 2.0 * x + 1.0 + rng.normal(0, 0.1, x.size)
        res = least_squares(line, [1.5, 0.5], x, y, w)
        design = np.sqrt(w)[:, None] * np.column_stack([x, np.ones_like(x)])
        variance = res.residual_norm**2 / (x.size - 2)
        expected = np.linalg.inv(design.T @ design) * variance
        assert np.allclose(res.covariance, expected, rtol=1e-7, atol=0.0)

    def test_covariance_from_jacobian_at_returned_parameters(self):
        truth = np.array([0.6, 1.2e6, 5e6])
        x = np.linspace(-20e6, 20e6, 60)
        rng = np.random.Generator(np.random.Philox(key=3))
        y = lorentzian_dip(truth, x)[0] + rng.normal(0, 0.01, x.size)
        res = least_squares(lorentzian_dip, truth * 1.1, x, y, np.ones_like(x))
        _, jac = lorentzian_dip(res.parameters, x)  # the model's exact Jacobian at the fit
        expected = np.linalg.inv(jac.T @ jac) * res.residual_norm**2 / (x.size - 3)
        assert np.allclose(res.covariance, expected, rtol=1e-6, atol=0.0)

    def test_degenerate_parameters_raise(self):
        def degenerate(params, x):
            ones = np.ones((np.size(x), 2))
            return (params[0] + params[1]) * ones[:, 0], ones

        with pytest.raises(DegenerateFitError, match="condition number|singular"):
            least_squares(degenerate, [1.0, -1.0], [0.0, 1.0, 2.0], [1.0, 1.1, 0.9], np.ones(3))

    @pytest.mark.parametrize("rate_gap, condition", [(1e-3, 1.74e7), (1e-5, 1.74e11)])
    def test_condition_limit(self, rate_gap, condition):
        # two decays whose rates differ by rate_gap are nearly collinear; the
        # equilibrated normal matrix has about the given condition number
        def two_decays(params, x):
            decays = np.column_stack([np.exp(-x), np.exp(-(1.0 + rate_gap) * x)])
            return params[0] * decays[:, 0] + params[1] * decays[:, 1], decays

        x = np.linspace(0.0, 3.0, 30)
        data = (x, 2.0 * np.exp(-x) + 0.01 * np.sin(7.0 * x), np.ones_like(x))
        if condition < MAX_NORMAL_CONDITION:
            assert np.all(np.isfinite(least_squares(two_decays, [1.0, 1.0], *data).sigmas))
        else:
            with pytest.raises(DegenerateFitError, match="condition number"):
                least_squares(two_decays, [1.0, 1.0], *data)

    def test_weights_must_be_positive(self):
        with pytest.raises(DomainError):
            least_squares(line, [0, 0], [0.0, 1.0], [1.0, 2.0], [0.0, 1.0])

    @pytest.mark.parametrize("lengths", [(3, 2, 2), (2, 3, 2), (2, 2, 3)])
    def test_unequal_lengths_rejected(self, lengths):
        x, y, w = (np.arange(n, dtype=float) + 1.0 for n in lengths)
        with pytest.raises(DomainError, match="equal length"):
            least_squares(line, [0, 0], x, y, w)

    def test_underdetermined_rejected(self):
        with pytest.raises(DomainError):
            least_squares(line, [0, 0], [0.0], [1.0], [1.0])

    def test_non_finite_model(self):
        def bad(params, x):
            return np.full(np.asarray(x).shape, np.nan), np.ones((np.size(x), 1))

        with pytest.raises(EvaluationError):
            least_squares(bad, [1.0], [0.0, 1.0], [1.0, 2.0], [1.0, 1.0])

    @pytest.mark.parametrize("slope", [np.nan, np.inf])
    def test_non_finite_jacobian(self, slope):
        # a finite prediction with a non-finite slope is refused as a NaN prediction is
        def bad(params, x):
            return params[0] * np.asarray(x), np.full((np.size(x), 1), slope)

        with pytest.raises(EvaluationError, match="Jacobian"):
            least_squares(bad, [1.0], [0.0, 1.0], [1.0, 2.0], [1.0, 1.0])

    def test_singular_problem_raises(self):
        def degenerate(params, x):
            ones = np.ones((np.size(x), 2))
            return (params[0] + params[1]) * ones[:, 0], ones

        with pytest.raises((DegenerateFitError, EvaluationError)):
            least_squares(degenerate, [1.0, -1.0], [0.0, 1.0, 2.0], np.full(3, np.nan), np.ones(3))

    def test_residual_norm_nonincreasing_reported(self):
        x = np.linspace(0, 1, 20)
        rng = np.random.Generator(np.random.Philox(key=9))
        y = 3.0 * x - 0.5 + rng.normal(0, 0.02, x.size)
        res = least_squares(line, [0.0, 0.0], x, y, np.ones_like(x))
        start_norm = np.linalg.norm(y - line([0.0, 0.0], x)[0])
        assert res.residual_norm <= start_norm
