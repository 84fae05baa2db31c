"""Special functions, bracketed root finding, and a damped Gauss-Newton fitter.

Everything here is a pure function of its inputs; the fitter is deterministic
for a fixed model, starting point, and data set.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import BracketError, DegenerateFitError, DomainError, EvaluationError

__all__ = ["bessel_j", "bessel_k", "find_root", "least_squares", "FitResult"]


# Bessel functions by fixed-node quadrature: one rule per value, reduced by einsum (never
# BLAS, whose blocking depends on the batch size), so bit-identical alone or in a batch.
BESSEL_MAX_ORDER, J_MAX_ARG, K_MIN_ARG, K_MAX_ARG = 5, 30.0, 1e-4, 700.0
_N = np.arange(BESSEL_MAX_ORDER + 1)[:, None]
# J_n(x) = (1/pi) int_0^pi cos(n tau - x sin tau) dtau (DLMF 10.9.2) on 48 midpoint
# nodes, within 9e-16 absolute for |x| <= 30.  The integrand is symmetric about pi/2,
# where only its cos (even n) or sin (odd n) part survives: 24 nodes in (0, pi/2).
_J_TAU = (np.arange(24) + 0.5) * np.pi / 48
_J_SIN = np.sin(_J_TAU)
_J_W = np.hstack([np.cos(_N * _J_TAU) * (_N % 2 == 0), np.sin(_N * _J_TAU) * (_N % 2)]) / 24
# K_n(x) = int_0^inf exp(-x cosh t) cosh(n t) dt (DLMF 10.32.9), trapezoid rule with
# step 0.1 on [0, 20] (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)): within 4e-15
# relative for 1e-4 <= x <= 40.  Above 40, the 30-term Hankel expansion (DLMF 10.40.2)
# with a_k(n) = prod_{j<=k} (4n^2 - (2j-1)^2) / (8j), within 2e-15 relative.
_K_T = np.arange(201) * 0.1
_K_NEG_COSH = -np.cosh(_K_T)
_K_BLOCK = 64  # arguments per block: 64 x 201 float64 terms are 101 KiB
_K_W = 0.1 * np.cosh(_N * _K_T) * np.where(_K_T == 0.0, 0.5, 1.0)
_TERMS = np.arange(1, 30)
_K_HANKEL = np.cumprod(np.hstack([_N**0, (4 * _N**2 - (2 * _TERMS - 1) ** 2) / (8 * _TERMS)]), axis=1)


@lru_cache(maxsize=None)
def _tables(orders: tuple):
    """(J weights, K weights, Hankel coefficients) of the orders, integers in 0..5."""
    if not all(0 <= n <= BESSEL_MAX_ORDER and n == int(n) for n in orders):
        raise DomainError(f"Bessel orders must be integers in 0..{BESSEL_MAX_ORDER}, got {orders}")
    rows = np.array(orders, dtype=int)
    return _J_W[rows], _K_W[rows], _K_HANKEL[rows]


def _checked(order, x, lo: float, hi: float):
    """(weight tables of the orders, whether one order was given, x as floats in [lo, hi], min x, max x)."""
    single = not isinstance(order, tuple) and np.ndim(order) == 0
    tables = _tables((order,) if single else tuple(order))
    x = np.asarray(x, dtype=float)
    # 0-d without a numpy reduction; an empty x spans (inf, -inf), and a NaN fails both bounds
    low, top = (float(x),) * 2 if x.ndim == 0 else (
        np.minimum.reduce(x, axis=None, initial=np.inf), np.maximum.reduce(x, axis=None, initial=-np.inf))
    if not (lo <= low and top <= hi):
        raise DomainError(f"Bessel argument outside its validated range [{lo}, {hi}]")
    return tables, single, x, low, top


def bessel_j(order, x):
    """J_n(x) for |x| <= 30 and integer n in 0..5; a sequence of orders adds a leading axis."""
    (weights, _, _), single, x, _, _ = _checked(order, x, -J_MAX_ARG, J_MAX_ARG)
    arg = x[..., None] * _J_SIN
    out = np.einsum("...k,nk->n...", np.concatenate((np.cos(arg), np.sin(arg)), axis=-1), weights)
    return out[0] if single else out


def bessel_k(order, x):
    """K_n(x) for 1e-4 <= x <= 700 and integer n in 0..5; a sequence of orders adds a leading axis."""
    (_, weights, hankel), single, x, low, top = _checked(order, x, K_MIN_ARG, K_MAX_ARG)
    if top <= 40.0:
        # in blocks of _K_BLOCK arguments (a smaller call is one), so that no temporary reaches
        # glibc's 128 KiB mmap threshold (above it, glibc maps each temporary or trims the
        # heap after it, and every call faults in fresh pages)
        flat = x.reshape(-1, 1)
        if flat.shape[0] <= _K_BLOCK:
            out = _k_block(flat, low, weights)
        else:
            out = np.empty((len(weights), flat.shape[0]))
            for start in range(0, flat.shape[0], _K_BLOCK):
                block = flat[start : start + _K_BLOCK]
                _k_block(block, block.min(), weights, out[:, start : start + _K_BLOCK])
        out = out.reshape(len(weights), *x.shape)
    else:
        out = np.empty((len(weights), *x.shape))
        far = x > 40.0
        out[:, ~far] = bessel_k(order, x[~far])
        xf, series = x[far], 0.0
        for coefficient in hankel.T[::-1]:
            series = coefficient[:, None] + series / xf
        out[:, far] = np.sqrt(0.5 * np.pi / xf) * np.exp(-xf.astype(np.longdouble)) * series
    return out[0] if single else out


def _k_block(block, block_min, weights, out=None):
    """K values of a column of arguments, in place; terms clamped at -700 keep exp in numpy's
    vector loop (< 1e-240 relative), and nodes clamped for ``block_min`` are dropped."""
    kept = np.count_nonzero(block_min * _K_NEG_COSH > -700.0)
    terms = np.multiply(block, _K_NEG_COSH[:kept])
    np.exp(np.maximum(terms, -700.0, out=terms), out=terms)
    return np.einsum("bk,nk->nb", terms, weights[:, :kept], out=out)


def bessel_k_scalar(order, x):
    """``bessel_k`` at one argument by no step that numpy dispatches by SIMD level, so the bits do
    not depend on the host's vector extensions: below 40, the rule in long double (libm's coshl
    and expl), 3.1e-15 relative at most and about 0.1 ms a call; elsewhere ``bessel_k``."""
    if not K_MIN_ARG <= x <= 40.0:  # refused, or the Hankel branch, whose exp is in long double
        return bessel_k(order, x)
    t = np.arange(201, dtype=np.longdouble) / 10
    weights = np.cosh(np.multiply.outer(order, t)) * np.where(t == 0, 0.05, 0.1)
    return (weights @ np.exp(-x * np.cosh(t))).astype(float)


def find_root(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Locate the root of f inside [lo, hi] to a bracket width of tol.

    The endpoints must straddle a sign change.  Plain bisection: the bracket
    is halved until it is no wider than tol, or until its midpoint rounds to
    an endpoint (tol below one ulp of the root); the midpoint of the final
    bracket is returned, so the result lies within tol of the root.
    Deterministic for fixed inputs; non-finite evaluations of f raise
    EvaluationError.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")

    def checked(x):
        y = f(x)
        if not np.isfinite(y):
            raise EvaluationError(f"f({x!r}) is not finite")
        return y

    flo, fhi = checked(lo), checked(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise BracketError(f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")
    while abs(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        fmid = checked(mid)
        if fmid == 0.0:
            return float(mid)
        if (fmid < 0) == (flo < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return float(0.5 * (lo + hi))


# Largest 1-norm condition number of the equilibrated J^T J (unit diagonal) for which a
# fit's covariance is reported.  The inverse amplifies the rounding of J^T J (near
# 1e-16 relative, as the model's Jacobian is exact) by the condition number, so past
# 1e10 the covariance has fewer than six significant digits and the fit's
# parameters are close to degenerate.
MAX_NORMAL_CONDITION = 1e10
MAX_ITERATIONS = 200  # Gauss-Newton steps of one fit; FitResult.converged is False after them


@dataclass
class FitResult:
    """Converged state of a damped Gauss-Newton least-squares fit."""

    parameters: np.ndarray
    covariance: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool

    @property
    def sigmas(self) -> np.ndarray:
        """One-sigma parameter uncertainties from the covariance diagonal."""
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))


def least_squares(model: Callable, initial: Sequence[float], x, y, weights) -> FitResult:
    """Minimise the weighted squared residuals of model(params, x) against y.

    ``x``, ``y`` and ``weights`` are 1-d arrays of the same m points, the
    weights positive (DomainError otherwise); the model is called with the
    array x and returns (prediction, Jacobian), of shapes (m,) and (m, n) for
    n parameters; EvaluationError is raised when either is not finite.  Damped
    Gauss-Newton: damping starts at 1e-3 and moves by factors of 10, and
    convergence requires a relative residual decrease below 1e-10 or a
    relative parameter step below 1e-10 within ``MAX_ITERATIONS`` steps.
    The covariance is the inverse of the undamped normal matrix J^T J, with
    J the model's Jacobian at the returned parameters, scaled by the residual
    variance.  DegenerateFitError is raised when J^T J, with its diagonal
    scaled to one, has a 1-norm condition number above ``MAX_NORMAL_CONDITION``.
    """
    p = np.array(initial, dtype=float)
    x, y, w = (np.asarray(v, dtype=float) for v in (x, y, weights))
    if not x.shape == y.shape == w.shape == (y.size,):
        raise DomainError(f"x, y and weights must be 1-d of equal length: {x.shape}, {y.shape}, {w.shape}")
    if y.size < p.size:
        raise DomainError(f"{y.size} data points cannot constrain {p.size} parameters")
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise DomainError("weights must be positive and finite")
    sqrt_w = np.sqrt(w)

    def residuals(q):  # weighted residuals and their Jacobian at q
        pred, jac = (np.asarray(v, dtype=float) for v in model(q, x))
        if not (np.all(np.isfinite(pred)) and np.all(np.isfinite(jac))):
            raise EvaluationError("model returned a non-finite prediction or Jacobian")
        return sqrt_w * (pred - y), sqrt_w[:, None] * jac

    r, jac = residuals(p)
    rnorm = float(np.linalg.norm(r))
    lam = 1e-3
    converged = False
    iterations = 0

    for iterations in range(1, MAX_ITERATIONS + 1):
        grad = jac.T @ r
        normal = jac.T @ jac
        scale = np.diag(np.maximum(np.diag(normal), 1e-300))
        accepted = False
        while lam <= 1e12:
            try:
                step = np.linalg.solve(normal + lam * scale, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            q = p + step
            try:
                r_new, jac_new = residuals(q)
            except EvaluationError:
                lam *= 10.0
                continue
            rnorm_new = float(np.linalg.norm(r_new))
            if np.isfinite(rnorm_new) and rnorm_new <= rnorm * (1.0 + 1e-15):
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            raise DegenerateFitError("normal matrix singular after maximal damping")

        rel_decrease = (rnorm - rnorm_new) / max(rnorm, 1e-300)
        rel_step = float(np.max(np.abs(step) / np.maximum(np.abs(p), 1.0)))
        p, r, jac, rnorm = q, r_new, jac_new, rnorm_new
        lam = max(lam / 10.0, 1e-15)
        if rel_decrease < 1e-10 or rel_step < 1e-10:
            converged = True
            break

    normal = jac.T @ jac
    # equilibrated so the condition number measures degeneracy, not parameter units
    d = np.sqrt(np.diag(normal))
    if not np.all(d > 0):
        raise DegenerateFitError("a parameter does not affect the residuals at the fit")
    equilibrated = normal / np.outer(d, d)
    try:
        inverse = np.linalg.inv(equilibrated)
    except np.linalg.LinAlgError as exc:
        raise DegenerateFitError("normal matrix singular at the fit") from exc
    condition = np.linalg.norm(equilibrated, 1) * np.linalg.norm(inverse, 1)
    if not condition <= MAX_NORMAL_CONDITION:
        raise DegenerateFitError(
            f"normal matrix condition number {condition:.3g} exceeds {MAX_NORMAL_CONDITION:.0e}"
        )
    dof = max(y.size - p.size, 1)
    variance = rnorm**2 / dof
    cov = inverse / np.outer(d, d) * variance
    cov = 0.5 * (cov + cov.T)
    return FitResult(
        parameters=p,
        covariance=cov,
        residual_norm=rnorm,
        iterations=iterations,
        converged=converged,
    )
