"""Large-deviations rate functions: Legendre transform and entropy projection."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..closed import golden_section_min
from ..errors import DomainError


@dataclass(frozen=True)
class RateFunctionResult:
    """A nonnegative rate with the point or distribution attaining it."""

    rate: float
    argmin: object
    method: str


def binary_relative_entropy(t: float, p: float) -> float:
    """D(t || p) = t ln(t/p) + (1-t) ln((1-t)/(1-p)) for p <= t <= 1, 0 < p < 1; ln(1/p) at t = 1."""
    if t >= 1.0:
        return -math.log(p)
    return t * math.log(t / p) + (1.0 - t) * math.log((1.0 - t) / (1.0 - p))


def legendre_transform(lambda_fn: Callable[[float], float], x: float) -> float:
    """Lambda*(x) = sup_lam (lam * x - Lambda(lam)) over [-50, 50].

    Near the maximiser the objective is flat to second order, so a tight
    search tolerance gives the value essentially to machine precision.
    """
    neg = lambda lam: -(lam * x - lambda_fn(lam))
    _, val = golden_section_min(neg, -50.0, 50.0, tol=1e-13, coarse=513)
    return -val


def cramer_rate(lambda_fn: Callable[[float], float], mean: float, eps: float) -> RateFunctionResult:
    """inf of the Legendre transform over {x : |x - mean| >= eps}.

    The transform is convex with minimum 0 at the mean, so the infimum sits
    at one of the two endpoints mean +- eps.
    """
    if eps < 0:
        raise DomainError("cramer_rate requires eps >= 0")
    at_zero = lambda_fn(0.0)
    if not math.isfinite(at_zero) or abs(at_zero) > 1e-9:
        raise DomainError("the cumulant function must be finite with Lambda(0) = 0")
    for lam in (-1.0, -0.1, 0.1, 1.0):
        if not math.isfinite(lambda_fn(lam)):
            raise DomainError("the cumulant function must be finite on a grid around 0")
    if eps == 0.0:
        return RateFunctionResult(0.0, mean, "closed-form")
    hi = legendre_transform(lambda_fn, mean + eps)
    lo = legendre_transform(lambda_fn, mean - eps)
    if hi <= lo:
        return RateFunctionResult(max(hi, 0.0), mean + eps, "numeric")
    return RateFunctionResult(max(lo, 0.0), mean - eps, "numeric")


def sanov_rate(
    mu: np.ndarray,
    symbol: int,
    threshold: float,
) -> RateFunctionResult:
    """Minimal relative entropy D(nu || mu) subject to nu(symbol) >= threshold.

    ``mu`` lists the probabilities of the symbols 0, 1, ..., k-1.

    Exponential tilting of the constrained coordinate solves the projection
    in closed form: the minimiser keeps the conditional distribution off the
    symbol proportional to mu, and the rate reduces to the binary divergence
    ``binary_relative_entropy(t, mu_a)``.
    """
    weights = np.asarray(mu, dtype=float)
    if np.any(weights <= 0.0):
        raise DomainError("the base distribution must be strictly positive on its alphabet")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise DomainError("the base distribution must sum to 1")
    if symbol not in range(len(weights)):
        raise DomainError(f"symbol {symbol!r} is not in the alphabet")
    if threshold > 1.0:
        raise DomainError("threshold must be <= 1")
    mu_a = float(weights[symbol])
    if threshold <= mu_a:
        return RateFunctionResult(0.0, dict(enumerate(weights)), "constraint contains the mean")
    nu = weights * (1.0 - threshold) / (1.0 - mu_a)  # all 0 off the symbol at threshold 1
    nu[symbol] = threshold
    return RateFunctionResult(binary_relative_entropy(threshold, mu_a), dict(enumerate(nu)), "closed-form tilt")
