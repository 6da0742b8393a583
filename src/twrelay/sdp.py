"""Exact solver for the power-minimization SDP with one or two constraints.

Solves min tr(F0 X) s.t. tr(F_i X) >= 1, X PSD, for positive definite F0.
With F0 = L L^T and A_i = L^-1 F_i L^-T the problem becomes
min ||z||^2 over z^T A_i z >= 1, and strong duality gives

    p* = 1 / min over t in [0, 1] of lambda_max(t A_1 + (1 - t) A_2).

The function g(t) = lambda_max(A_2 + t D), D = A_1 - A_2, is convex with
subgradient v^T D v at a top eigenvector v, so bisection on the sign of
that form brackets its minimizer; an endpoint whose form already has the
right sign is the minimizer itself. A minimum at or below a tolerance
scaled to the A_i certifies infeasibility: then no t gives a positive
dual bound.

With two constraints the relaxation is tight (Pataki's rank bound), so
the optimum is rank one. At an interior minimizer the top eigenvalue
crosses: the top eigenvectors at the two ends of the bracket have D-forms
of opposite signs, and the combination of them with zero D-form meets
both constraints with the same value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import InvalidInputError, NumericalFailureError

# min lambda_max at or below this times max |A_i| counts as zero:
# infeasible targets leave it at rounding level (~1e-17), not <= 0
INFEASIBLE_TOL = 1e-12


@dataclass
class SdpProblem:
    """min tr(F0 X) over PSD X with tr(F1 X) >= 1 and, if F2 is given,
    tr(F2 X) >= 1. All matrices are n x n real symmetric; F0 must be
    positive definite (in the relay problem it is a power form)."""

    n: int
    F0: np.ndarray
    F1: np.ndarray
    F2: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        mats = [("F0", self.F0), ("F1", self.F1)]
        if self.F2 is not None:
            mats.append(("F2", self.F2))
        for name, F in mats:
            if F.shape != (self.n, self.n):
                raise InvalidInputError(f"{name} must be {self.n}x{self.n}")
            scale = max(1.0, float(np.max(np.abs(F))))
            if float(np.max(np.abs(F - F.T))) > 1e-12 * scale:
                raise InvalidInputError(f"{name} must be symmetric")
        try:
            np.linalg.cholesky(self.F0)
        except np.linalg.LinAlgError:
            raise InvalidInputError("F0 must be positive definite") from None

    @property
    def constraints(self) -> List[np.ndarray]:
        out = [self.F1]
        if self.F2 is not None:
            out.append(self.F2)
        return out


@dataclass
class SdpSolution:
    """status is "optimal" or "infeasible". An optimal solution carries the
    rank-one optimum X = x x^T (x also in x_hat) and the dual bound
    `objective`; tr(F0 X) exceeds it by at most 1e-12 relative, or what
    rounding leaves. `iterations` counts eigen-solves."""

    status: str
    X: Optional[np.ndarray] = None
    objective: Optional[float] = None
    x_hat: Optional[np.ndarray] = None
    message: str = ""
    iterations: int = 0


def _zero_form_steps(a: float, c: float, b: float) -> Tuple[float, float]:
    """The two steps s for which u + s w has zero form, given the forms
    a < 0 of u and c > 0 of w and the cross form b: the roots of
    c s^2 + 2 b s + a, of opposite signs, each from the formula in which
    nothing cancels, scaled by a power of two that keeps b^2 and a c finite."""
    k = -math.frexp(max(-a, c, abs(b)))[1]
    a, c, b = math.ldexp(a, k), math.ldexp(c, k), math.ldexp(b, k)
    q = -(b + math.copysign(math.sqrt(b * b - a * c), b))
    return q / c, a / q


def _scaled(prob: SdpProblem, Linv_T: np.ndarray, z: np.ndarray) -> Tuple[np.ndarray, float]:
    """Map z back to x = L^-T z, scaled so that its smaller constraint form
    is 1; returns (x, tr(F0 x x^T)), with infinite cost if no form is
    positive."""
    x = Linv_T @ z
    least = min(float(x @ F @ x) for F in prob.constraints)
    if least <= 0.0:
        return x, math.inf
    x = x / math.sqrt(least)
    return x, float(x @ prob.F0 @ x)


def solve_sdp(prob: SdpProblem) -> SdpSolution:
    """Solve the SDP through its one-dimensional dual.

    Stops once the rank-one primal candidate costs at most (1 + 1e-12)
    times the dual bound, or the bracket reaches rounding level.

    Raises:
        NumericalFailureError: if the dual bound is positive but rounding
            leaves the primal candidate with no positive constraint form.
    """
    Linv = np.linalg.inv(np.linalg.cholesky(prob.F0))
    As = [Linv @ F @ Linv.T for F in prob.constraints]
    As = [0.5 * (A + A.T) for A in As]
    floor = INFEASIBLE_TOL * max(float(np.max(np.abs(A))) for A in As)
    iterations = 0

    def top(A: np.ndarray) -> Tuple[float, np.ndarray]:
        nonlocal iterations
        iterations += 1
        w, V = np.linalg.eigh(A)
        return float(w[-1]), V[:, -1]

    def result(lam: float, x: np.ndarray, cost: float) -> SdpSolution:
        if lam <= floor:
            return SdpSolution(
                status="infeasible", iterations=iterations,
                message=f"min lambda_max {lam:.1e} <= {floor:.1e}: no positive dual bound",
            )
        if not math.isfinite(cost):
            raise NumericalFailureError("no rank-one point with a positive constraint form")
        return SdpSolution(
            status="optimal", X=np.outer(x, x), objective=1.0 / lam, x_hat=x,
            iterations=iterations, message=f"relative duality gap {cost * lam - 1.0:.1e}",
        )

    def endpoint(lam: float, v: np.ndarray) -> SdpSolution:
        return result(lam, *_scaled(prob, Linv.T, v))

    if len(As) == 1:
        return endpoint(*top(As[0]))

    A2 = As[1]
    D = As[0] - A2
    lam_lo, v_lo = top(A2)
    d_lo = float(v_lo @ D @ v_lo)
    if d_lo >= 0.0:
        return endpoint(lam_lo, v_lo)
    lam_hi, v_hi = top(As[0])
    d_hi = float(v_hi @ D @ v_hi)
    if d_hi <= 0.0:
        return endpoint(lam_hi, v_hi)

    lo, hi = 0.0, 1.0
    best = min(lam_lo, lam_hi)
    while True:
        pair = [v_lo + s * v_hi for s in _zero_form_steps(d_lo, d_hi, float(v_lo @ D @ v_hi))]
        x, cost = min((_scaled(prob, Linv.T, z) for z in pair), key=lambda candidate: candidate[1])
        mid = 0.5 * (lo + hi)
        if best <= floor or cost * best - 1.0 <= 1e-12 or not lo < mid < hi:
            return result(best, x, cost)
        lam, v = top(A2 + mid * D)
        best = min(best, lam)
        d = float(v @ D @ v)
        if d == 0.0:
            return endpoint(lam, v)
        if d < 0.0:
            lo, v_lo, d_lo = mid, v, d
        else:
            hi, v_hi, d_hi = mid, v, d


def extract_rank_one(sol: SdpSolution, prob: SdpProblem) -> np.ndarray:
    """The rank-one optimum x of an optimal solution: x x^T is feasible,
    with the smaller constraint form equal to 1, and tr(F0 x x^T) is
    within the solve's 1e-12 of the dual bound."""
    if sol.status != "optimal" or sol.x_hat is None:
        raise InvalidInputError("extract_rank_one needs an optimal solution")
    return sol.x_hat
