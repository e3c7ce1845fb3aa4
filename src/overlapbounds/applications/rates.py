"""Large-deviations rate functions: Legendre transform and entropy projection."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from ..bounds import BoundResult, golden_section_min
from ..errors import DomainError
from .mdf import ldp_mdf_bound


@dataclass(frozen=True)
class RateFunctionResult:
    """A nonnegative rate with the point or distribution attaining it."""

    rate: float
    argmin: object
    method: str

    def mdf_bound(self, p: float, big_c: float = 1.0) -> BoundResult:
        """The exponential deviation-count bound this rate induces."""
        return ldp_mdf_bound(self.rate, p, big_c)


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


def _as_distribution(mu: Mapping[object, float] | np.ndarray) -> tuple[list[object], np.ndarray]:
    if isinstance(mu, Mapping):
        symbols = list(mu.keys())
        weights = np.array([float(mu[s]) for s in symbols])
    else:
        weights = np.asarray(mu, dtype=float)
        symbols = list(range(len(weights)))
    if np.any(weights <= 0.0):
        raise DomainError("the base distribution must be strictly positive on its alphabet")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise DomainError("the base distribution must sum to 1")
    return symbols, weights


def kl_divergence(nu: np.ndarray, mu: np.ndarray) -> float:
    nu = np.asarray(nu, dtype=float)
    mu = np.asarray(mu, dtype=float)
    mask = nu > 0
    return float(np.sum(nu[mask] * np.log(nu[mask] / mu[mask])))


def sanov_rate(
    mu: Mapping[object, float] | np.ndarray,
    symbol: object,
    threshold: float,
) -> RateFunctionResult:
    """Minimal relative entropy D(nu || mu) subject to nu(symbol) >= threshold.

    Exponential tilting of the constrained coordinate solves the projection
    in closed form: the minimiser keeps the conditional distribution off the
    symbol proportional to mu, and the rate reduces to the binary divergence
    t ln(t/mu_a) + (1-t) ln((1-t)/(1-mu_a)).
    """
    symbols, weights = _as_distribution(mu)
    if symbol not in symbols:
        raise DomainError(f"symbol {symbol!r} is not in the alphabet")
    if threshold > 1.0:
        raise DomainError("threshold must be <= 1")
    idx = symbols.index(symbol)
    mu_a = float(weights[idx])
    if threshold <= mu_a:
        return RateFunctionResult(0.0, dict(zip(symbols, weights)), "constraint contains the mean")
    t = threshold
    nu = weights * (1.0 - t) / (1.0 - mu_a)
    nu[idx] = t
    if t >= 1.0:
        nu = np.zeros_like(weights)
        nu[idx] = 1.0
        rate = -math.log(mu_a)
    else:
        rate = t * math.log(t / mu_a) + (1.0 - t) * math.log((1.0 - t) / (1.0 - mu_a))
    return RateFunctionResult(rate, dict(zip(symbols, nu)), "closed-form tilt")
