"""Special functions, bracketed root finding, and a damped Gauss-Newton fitter.

Everything here is a pure function of its inputs; the fitter is deterministic
for a fixed model, starting point, and data set.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .errors import BracketError, DegenerateFitError, DomainError, EvaluationError

__all__ = ["bessel_j", "bessel_k", "find_root", "least_squares", "FitResult"]


def bessel_j(order: int, x):
    """Bessel function of the first kind J_order(x) for non-negative integer order."""
    if order < 0 or order != int(order):
        raise DomainError(f"order must be a non-negative integer, got {order}")
    if not np.all(np.isfinite(x)):
        raise DomainError("bessel_j requires finite x")
    return special.jv(int(order), x)


def bessel_k(order: int, x):
    """Modified Bessel function of the second kind K_order(x), x > 0."""
    if order < 0 or order != int(order):
        raise DomainError(f"order must be a non-negative integer, got {order}")
    if not np.all(np.asarray(x) > 0):
        raise DomainError("bessel_k requires x > 0")
    return special.kv(int(order), x)


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
# fit's covariance is reported.  The central-difference Jacobian carries relative
# errors near 1e-10 (rounding over its 1e-6 relative step), which the inverse
# amplifies by the condition number, so past 1e10 the covariance is undetermined.
MAX_NORMAL_CONDITION = 1e10


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


def _jacobian(residuals, p, r0):
    """Central-difference Jacobian, relative step 1e-6 with absolute floor 1e-9."""
    m, n = r0.size, p.size
    jac = np.empty((m, n))
    for i in range(n):
        h = max(1e-6 * abs(p[i]), 1e-9)
        up = p.copy()
        dn = p.copy()
        up[i] += h
        dn[i] -= h
        jac[:, i] = (residuals(up) - residuals(dn)) / (2.0 * h)
    return jac


def least_squares(
    model: Callable,
    initial: Sequence[float],
    data: Sequence[tuple],
    max_iterations: int = 200,
) -> FitResult:
    """Minimise the weighted squared residuals of model(params, x) against data.

    ``data`` is a sequence of (abscissa, value, weight) triples with positive
    weights; the model must accept the stacked abscissa array.  Damped
    Gauss-Newton: damping starts at 1e-3 and moves by factors of 10, the
    Jacobian uses central differences, and convergence requires a relative
    residual decrease below 1e-10 or a relative parameter step below 1e-10.
    The covariance is the inverse of the undamped normal matrix J^T J, with
    J recomputed at the returned parameters, scaled by the residual
    variance.  DegenerateFitError is raised when J^T J, with its diagonal
    scaled to one, has a 1-norm condition number above ``MAX_NORMAL_CONDITION``.
    """
    p = np.array(initial, dtype=float)
    x = np.asarray([d[0] for d in data])
    y = np.asarray([d[1] for d in data], dtype=float)
    w = np.asarray([d[2] for d in data], dtype=float)
    if y.size < p.size:
        raise DomainError(f"{y.size} data points cannot constrain {p.size} parameters")
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise DomainError("weights must be positive and finite")
    sqrt_w = np.sqrt(w)

    def residuals(q):
        pred = np.asarray(model(q, x), dtype=float)
        if not np.all(np.isfinite(pred)):
            raise EvaluationError("model returned a non-finite prediction")
        return sqrt_w * (pred - y)

    r = residuals(p)
    rnorm = float(np.linalg.norm(r))
    lam = 1e-3
    converged = False
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        jac = _jacobian(residuals, p, r)
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
                r_new = residuals(q)
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
        p, r, rnorm = q, r_new, rnorm_new
        lam = max(lam / 10.0, 1e-15)
        if rel_decrease < 1e-10 or rel_step < 1e-10:
            converged = True
            break

    jac = _jacobian(residuals, p, r)
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
