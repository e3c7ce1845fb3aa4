"""Decay models, weight sequences and certified series primitives.

Everything downstream (bound calculators, simulation truncation, rate
reports) rests on the quantities computed here:

* ``DecayModel`` describes an event-probability sequence ``P(E_n)``.
* ``tail_sum`` evaluates the tail ``C_m = sum_{n>=m} P(E_n)`` with a
  certified truncation error.
* ``weighted_tail_series`` evaluates the double series
  ``sum_n a_n * C_n`` for a ``WeightSequence`` ``(a_n)``.
* ``faulhaber_sum``, ``zeta`` and ``lambert_w0`` are the special-function
  helpers the closed-form bounds need.

All infinite sums stop once a certified bound on the omitted tail drops
below ``max(ABS_TOL, REL_TOL * |partial sum|)``.  For power tails the
certificate is the convexity bracket

    I(M+1) + f(M+1)/2  <=  sum_{n>M} f(n)  <=  I(M+1/2)

with ``f(x) = x**-s`` and ``I(x) = x**(1-s)/(s-1)``; for geometric tails a
closed form exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DivergenceError, DomainError, InputError

REL_TOL = 1e-9
ABS_TOL = 1e-12

_SUM_CHUNK = 1 << 16


@dataclass(frozen=True)
class SeriesValue:
    """A numerically evaluated series with a certified remainder bound."""

    value: float
    truncation_error: float
    terms_used: int
    converged: bool

    def __float__(self) -> float:
        return self.value


def _power_tail_bracket(s: float, m_last: float) -> tuple[float, float]:
    """Certified bracket for sum_{n > m_last} n**-s, s > 1 (convexity)."""
    integral = lambda x: x ** (1.0 - s) / (s - 1.0)
    lo = integral(m_last + 1.0) + 0.5 * (m_last + 1.0) ** (-s)
    hi = integral(m_last + 0.5)
    return lo, hi


def _power_partial(s: float, first: int, last: int) -> float:
    """sum_{n=first}^{last} n**-s, chunked."""
    total = 0.0
    n = first
    while n <= last:
        hi = min(last, n + _SUM_CHUNK - 1)
        block = np.arange(n, hi + 1, dtype=float)
        total += float(np.sum(block ** (-s)))
        n = hi + 1
    return total


def zeta(s: float) -> SeriesValue:
    """Riemann zeta for real s > 1, partial sum plus certified tail bracket.

    The absolute truncation error is at most 1e-10.
    """
    if s <= 1.0 + 1e-6:
        raise DivergenceError(f"zeta requires s > 1 (got s={s}); the series diverges at s <= 1")
    target = 1e-10
    m = 64
    while True:
        lo, hi = _power_tail_bracket(s, m)
        if 0.5 * (hi - lo) <= target or m > 1 << 26:
            break
        m *= 2
    partial = _power_partial(s, 1, m)
    lo, hi = _power_tail_bracket(s, m)
    return SeriesValue(
        value=partial + 0.5 * (lo + hi),
        truncation_error=0.5 * (hi - lo),
        terms_used=m,
        converged=True,
    )


@lru_cache(maxsize=None)
def bernoulli_numbers(n: int) -> tuple[Fraction, ...]:
    """B_0..B_n as exact Fractions (Akiyama-Tanigawa, B_1 = +1/2)."""
    if n < 0:
        raise InputError("n must be >= 0")
    row = [Fraction(0)] * (n + 1)
    out: list[Fraction] = []
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return tuple(out)


def faulhaber_sum(p: int, n: int) -> int:
    """Exact power sum 1**p + 2**p + ... + n**p via the Bernoulli closed form.

    The closed form with B_1 = +1/2 is
    (1/(p+1)) * sum_j C(p+1, j) B_j n**(p+1-j); the result is always an
    integer and is returned as one.
    """
    if not (0 <= p <= 30):
        raise DomainError(f"faulhaber_sum supports 0 <= p <= 30 (got p={p})")
    if n < 0:
        raise DomainError(f"faulhaber_sum requires n >= 0 (got n={n})")
    if n == 0:
        return 0
    bern = bernoulli_numbers(p)
    acc = Fraction(0)
    for j in range(p + 1):
        acc += math.comb(p + 1, j) * bern[j] * Fraction(n) ** (p + 1 - j)
    acc /= p + 1
    if acc.denominator != 1:
        raise ArithmeticError(f"power sum came out non-integer for p={p}, n={n}")
    return int(acc)


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function, w * exp(w) = x.

    Halley iteration from a series/asymptotic initial guess; bisection
    fallback if the iteration has not converged after 100 steps.  Valid for
    x >= -1/e.
    """
    min_x = -math.exp(-1.0)
    if x < min_x - 1e-12:
        raise DomainError(f"lambert_w0 requires x >= -1/e (got x={x})")
    x = max(x, min_x)
    if x == 0.0:
        return 0.0
    if x > 0:
        w = math.log1p(x)
        if x > math.e:
            lx = math.log(x)
            w = lx - math.log(lx)
    else:
        # near the branch point use the square-root expansion
        q = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + q - q * q / 3.0
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * (w + 1.0)) if w != -1.0 else ew
        step = f / denom
        w -= step
        if abs(step) <= 1e-15 * (1.0 + abs(w)):
            break
    else:
        w = _lambert_bisect(x)
    if abs(w * math.exp(w) - x) > 1e-10 * max(1.0, abs(x)):
        w = _lambert_bisect(x)
    return w


def _lambert_bisect(x: float) -> float:
    lo, hi = -1.0, 2.0
    while hi * math.exp(hi) < x:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class TailFunction:
    """A nonincreasing, invertible majorant L of the tail sums C_m.

    ``evaluate(m)`` returns L(m) and ``inverse(s)`` the m with L(m) = s.
    """

    evaluate: Callable[[float], float]
    inverse: Callable[[float], float]
    domain: tuple[float, float] = (1.0, math.inf)
    label: str = "custom"

    def __post_init__(self) -> None:
        lo = self.domain[0]
        hi = min(self.domain[1], lo + 64.0)
        pts = [lo, 0.5 * (lo + hi), hi]
        vals = [self.evaluate(m) for m in pts]
        if any(v < 0 for v in vals):
            raise DomainError("tail function must be nonnegative")
        if not all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1)):
            raise DomainError("tail function must be nonincreasing")

    def self_check(self, points: Sequence[float], rel_tol: float = 1e-10) -> None:
        """Verify L(L^-1(s)) = s to rel_tol on the given sample of s values."""
        for s in points:
            back = self.evaluate(self.inverse(s))
            if abs(back - s) > rel_tol * max(abs(s), 1e-300):
                raise ArithmeticError(f"tail inverse mismatch at s={s}: L(L^-1(s))={back}")

    @staticmethod
    def power(c: float, p: float) -> "TailFunction":
        """L(m) = c / m**p with p > 1 (so it majorises a summable tail)."""
        if c <= 0 or p <= 0:
            raise DomainError("power tail requires c > 0 and p > 0")
        return TailFunction(
            evaluate=lambda m: c / m**p,
            inverse=lambda s: (c / s) ** (1.0 / p),
            domain=(1.0, math.inf),
            label=f"power(c={c},p={p})",
        )

    @staticmethod
    def geometric(c: float, b: float) -> "TailFunction":
        """L(m) = c * b**m with 0 < b < 1."""
        if c <= 0 or not (0.0 < b < 1.0):
            raise DomainError("geometric tail requires c > 0 and 0 < b < 1")
        lnb = math.log(b)
        return TailFunction(
            evaluate=lambda m: c * b**m,
            inverse=lambda s: math.log(s / c) / lnb,
            domain=(1.0, math.inf),
            label=f"geometric(c={c},b={b})",
        )


class DecayModel:
    """Base class for event-probability sequences P(E_n).

    ``raw`` is the model formula without clamping (used in bound
    arithmetic, where the majorant may exceed one); ``prob`` clamps into
    [0, 1] (used in simulation).  ``first_index`` is the smallest event
    index the model defines.
    """

    first_index: int = 1

    def raw(self, n: int) -> float:
        raise NotImplementedError

    def prob(self, n: int) -> float:
        if n < max(self.first_index, 1):
            raise DomainError(f"event index n={n} below the model's first index")
        return min(1.0, max(0.0, self.raw(n)))

    def probs_upto(self, n: int) -> np.ndarray:
        """The clamped probabilities P(E_1), ..., P(E_n) as one array."""
        return np.array([self.prob(k) for k in range(1, n + 1)])

    def tails_upto(self, n: int) -> np.ndarray:
        """C_1, ..., C_n as reverse cumulative sums of ``probs_upto(n)`` plus C_{n+1}.

        Clamped, so only min(1, C_m) is exact: a clamped term makes its tails >= 1.
        """
        return np.cumsum(self.probs_upto(n)[::-1])[::-1] + tail_sum(self, n + 1).value

    def tail(self, m: int) -> SeriesValue:
        raise NotImplementedError

    @property
    def summable(self) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.describe()


@dataclass(frozen=True)
class Explicit(DecayModel):
    """A finite, explicitly listed family; probabilities[i] = P(E_{i+1})."""

    probabilities: tuple[float, ...]
    first_index: int = field(default=1, init=False)

    def __init__(self, probabilities: Sequence[float]):
        probs = tuple(float(p) for p in probabilities)
        if any(not (0.0 <= p <= 1.0) for p in probs):
            raise DomainError("explicit probabilities must lie in [0, 1]")
        object.__setattr__(self, "probabilities", probs)

    def raw(self, n: int) -> float:
        if n < 1:
            raise DomainError(f"event index n={n} below the model's first index")
        if n > len(self.probabilities):
            return 0.0
        return self.probabilities[n - 1]

    def probs_upto(self, n: int) -> np.ndarray:
        return np.array((self.probabilities + (0.0,) * n)[:n])

    def tail(self, m: int) -> SeriesValue:
        start = max(m, 1)
        value = float(sum(self.probabilities[start - 1 :]))
        return SeriesValue(value, 0.0, max(0, len(self.probabilities) - start + 1), True)

    @property
    def summable(self) -> bool:
        return True

    def describe(self) -> str:
        return "explicit:" + ",".join(repr(p) for p in self.probabilities)


@dataclass(frozen=True)
class PowerLaw(DecayModel):
    """P(E_n) = c / n**q for n >= 1; summable tails require q > 1."""

    c: float
    q: float
    first_index: int = field(default=1, init=False)

    def __post_init__(self) -> None:
        if self.c <= 0 or self.q <= 0:
            raise DomainError("power-law decay requires c > 0 and q > 0")

    def raw(self, n: int) -> float:
        if n < 1:
            raise DomainError(f"event index n={n} below the model's first index")
        return self.c / float(n) ** self.q

    def probs_upto(self, n: int) -> np.ndarray:
        return np.minimum(1.0, self.c / np.arange(1, n + 1, dtype=float) ** self.q)

    def tail(self, m: int) -> SeriesValue:
        if not self.summable:
            raise DivergenceError(
                f"power-law tail sums require q > 1 (got q={self.q}); sum P(E_n) diverges"
            )
        start = max(m, 1)
        last = max(start + 63, 64)
        while True:
            lo, hi = _power_tail_bracket(self.q, last)
            partial = _power_partial(self.q, start, last)
            half = 0.5 * (hi - lo)
            if half <= max(ABS_TOL, REL_TOL * (partial + lo)) or last >= 1 << 26:
                break
            last *= 2
        return SeriesValue(
            value=self.c * (partial + 0.5 * (lo + hi)),
            truncation_error=self.c * half,
            terms_used=last - start + 1,
            converged=True,
        )

    @property
    def summable(self) -> bool:
        return self.q > 1.0

    def describe(self) -> str:
        return f"powerlaw:{self.c!r},{self.q!r}"


@dataclass(frozen=True)
class Geometric(DecayModel):
    """P(E_n) = c * b**n for n >= 0; tails have the closed form c b^m/(1-b)."""

    c: float
    b: float
    first_index: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.c <= 0:
            raise DomainError("geometric decay requires c > 0")
        if not (0.0 < self.b < 1.0):
            raise DomainError(f"geometric decay requires 0 < b < 1 (got b={self.b})")

    def raw(self, n: int) -> float:
        if n < 0:
            raise DomainError(f"event index n={n} below the model's first index")
        return self.c * self.b**n

    def probs_upto(self, n: int) -> np.ndarray:
        return np.minimum(1.0, self.c * self.b ** np.arange(1, n + 1, dtype=float))

    def tail(self, m: int) -> SeriesValue:
        m = max(m, 0)
        return SeriesValue(self.c * self.b**m / (1.0 - self.b), 0.0, 0, True)

    @property
    def summable(self) -> bool:
        return True

    def describe(self) -> str:
        return f"geometric:{self.c!r},{self.b!r}"


@dataclass(frozen=True)
class CustomTail(DecayModel):
    """A model specified through its tail majorant: C_m = L(m) exactly.

    Event probabilities are the decrements P(E_n) = L(n) - L(n+1).
    """

    L: TailFunction
    first_index: int = field(default=1, init=False)

    def raw(self, n: int) -> float:
        if n < 1:
            raise DomainError(f"event index n={n} below the model's first index")
        return max(0.0, self.L.evaluate(n) - self.L.evaluate(n + 1))

    def tail(self, m: int) -> SeriesValue:
        return SeriesValue(self.L.evaluate(max(m, 1)), 0.0, 0, True)

    @property
    def summable(self) -> bool:
        return True

    def describe(self) -> str:
        return f"customtail:{self.L.label}"


def tail_sum(model: DecayModel, m: int) -> SeriesValue:
    """C_m = sum_{n >= m} P(E_n) with certified truncation error.

    ``m = 0`` is allowed; models whose first event index is 1 then return
    the full sum C_1.
    """
    if m < 0:
        raise DomainError("tail index m must be >= 0")
    if not model.summable:
        raise DivergenceError(
            f"model {model.describe()} is not summable; tail sums are infinite"
        )
    return model.tail(m)


@dataclass(frozen=True)
class WeightSequence:
    """Nonnegative weights a_n with partial sums S(N) = sum_{n=start}^N a_n.

    Monomial weights a_n = n**p run from n = 1 (so S(0) = 0); exponential
    weights a_n = exp(n*p) run from n = 0 (so S(0) = 1).
    """

    kind: str
    p: float = 0.0
    start: int = 1
    term_fn: Callable[[int], float] | None = None
    label: str = ""

    @staticmethod
    def monomial(p: float) -> "WeightSequence":
        if p < 0:
            raise DomainError("monomial weights require p >= 0")
        return WeightSequence(kind="monomial", p=p, start=1, label=f"monomial:{p!r}")

    @staticmethod
    def exponential(p: float) -> "WeightSequence":
        if p <= 0:
            raise DomainError("exponential weights require rate p > 0")
        return WeightSequence(kind="exponential", p=p, start=0, label=f"exponential:{p!r}")

    @staticmethod
    def custom(term_fn: Callable[[int], float], start: int = 1, label: str = "custom") -> "WeightSequence":
        return WeightSequence(kind="custom", start=start, term_fn=term_fn, label=label)

    def term(self, n: int) -> float:
        if n < self.start:
            return 0.0
        if self.kind == "monomial":
            return float(n) ** self.p
        if self.kind == "exponential":
            return math.exp(n * self.p)
        value = self.term_fn(n)  # type: ignore[misc]
        if value < 0:
            raise DomainError(f"weight a_{n} = {value} is negative")
        return value

    def partial_sum(self, n: int) -> float:
        """S(N) = sum over the weight support up to N."""
        if n < self.start:
            return 0.0
        if self.kind == "monomial":
            return float(np.sum(np.arange(1, n + 1, dtype=float) ** self.p))
        if self.kind == "exponential":
            ep = math.exp(self.p)
            return (math.exp(self.p * (n + 1)) - 1.0) / (ep - 1.0)
        return float(sum(self.term(k) for k in range(self.start, n + 1)))

    def partial_sums_upto(self, n: int) -> np.ndarray:
        """Vector of S(0), S(1), ..., S(N) for vectorised evaluation."""
        terms = np.zeros(n + 1)
        idx = np.arange(self.start, n + 1)
        if self.kind == "monomial":
            terms[idx] = idx.astype(float) ** self.p
        elif self.kind == "exponential":
            terms[idx] = np.exp(idx * self.p)
        else:
            for k in idx:
                terms[k] = self.term(int(k))
        return np.cumsum(terms)

    def describe(self) -> str:
        return self.label


def _series_done(partial: float, tail_bound: float) -> bool:
    return tail_bound <= max(ABS_TOL, REL_TOL * abs(partial))


def _geometric_power_tail(c: float, b: float, p: float, m_last: int) -> float:
    """Certified bound for sum_{n > m_last} n**p * c * b**n (p >= 0)."""
    # (m+k)**p <= m**p * exp(p*k/m); valid once b*exp(p/m) < 1.
    growth = b * math.exp(p / max(m_last, 1))
    if growth >= 1.0:
        return math.inf
    lead = c * float(m_last) ** p * b ** (m_last + 1) * math.exp(p / m_last)
    return lead / (1.0 - growth)


def weighted_tail_series(weights: WeightSequence, model: DecayModel) -> SeriesValue:
    """The double series sum_{n >= start} a_n * C_n, certified to 1e-9 relative.

    Divergent parameter combinations raise ``DivergenceError`` naming the
    violated condition.
    """
    if isinstance(model, Explicit):
        last = len(model.probabilities)
        suffix = np.concatenate([np.cumsum(model.probabilities[::-1])[::-1], [0.0]])
        total = 0.0
        for n in range(weights.start, last + 1):
            c_n = suffix[max(n, 1) - 1]
            total += weights.term(n) * float(c_n)
        return SeriesValue(total, 0.0, last - weights.start + 1, True)

    if isinstance(model, Geometric):
        one_minus_b = 1.0 - model.b
        if weights.kind == "exponential":
            lnb_abs = abs(math.log(model.b))
            if weights.p >= lnb_abs:
                raise DivergenceError(
                    f"exponential weights over a geometric tail require p < |ln(b)| "
                    f"(got p={weights.p}, |ln(b)|={lnb_abs})"
                )
            value = model.c / (one_minus_b * (1.0 - math.exp(weights.p) * model.b))
            return SeriesValue(value, 0.0, 0, True)
        if weights.kind == "monomial":
            # sum n**p * c b**n / (1-b), certified by the exponential majorant
            coeff = model.c / one_minus_b
            partial, n = 0.0, 1
            while True:
                partial += float(n) ** weights.p * coeff * model.b**n
                bound = _geometric_power_tail(coeff, model.b, weights.p, n)
                if _series_done(partial, bound):
                    return SeriesValue(partial, bound, n, True)
                n += 1

    if isinstance(model, PowerLaw):
        if weights.kind == "exponential":
            raise DivergenceError(
                "exponential weights over a power-law tail diverge for every rate p > 0"
            )
        if weights.kind == "monomial":
            if not model.summable:
                raise DivergenceError(f"power-law tails require q > 1 (got q={model.q})")
            if weights.p >= model.q - 2.0:
                raise DivergenceError(
                    f"monomial weights over a power-law tail require p < q - 2 "
                    f"(got p={weights.p}, q={model.q})"
                )
            # swap the summation order: sum_m P(E_m) * S(m), S incremental.
            # The remainder is bracketed through m^(p+1)/(p+1) <= S(m) <=
            # (m+1)^(p+1)/(p+1) (Riemann sums of an increasing integrand).
            p, q, c = weights.p, model.q, model.c
            s_exp = q - p - 1.0
            partial, s_m, m, last = 0.0, 0.0, 1, 1 << 12
            while True:
                while m <= last:
                    s_m += float(m) ** p
                    partial += c * float(m) ** (-q) * s_m
                    m += 1
                lo = c / (p + 1.0) * ((last + 1.0) ** (1.0 - s_exp) / (s_exp - 1.0)
                                      + 0.5 * (last + 1.0) ** (-s_exp))
                hi = (c / (p + 1.0) * (1.0 + 1.0 / last) ** (p + 1.0)
                      * (last + 0.5) ** (1.0 - s_exp) / (s_exp - 1.0))
                half = 0.5 * (hi - lo)
                if _series_done(partial + lo, half) or last >= 1 << 24:
                    return SeriesValue(
                        partial + 0.5 * (lo + hi),
                        half,
                        last,
                        half <= max(ABS_TOL, REL_TOL * (partial + lo)),
                    )
                last *= 2

    # generic fallback: accumulate a_n * C_n until terms stay negligible
    return _generic_weighted(weights, model)


def _generic_weighted(weights: WeightSequence, model: DecayModel) -> SeriesValue:
    partial, small_streak = 0.0, 0
    n = weights.start
    cap = 1 << 20
    while n - weights.start < cap:
        term = weights.term(n) * tail_sum(model, n).value
        partial += term
        if term <= max(ABS_TOL, REL_TOL * abs(partial)):
            small_streak += 1
            if small_streak >= 3:
                return SeriesValue(partial, 10.0 * term, n - weights.start + 1, True)
        else:
            small_streak = 0
        n += 1
    return SeriesValue(partial, math.inf, cap, False)


def weighted_tail_closed_form(weights: WeightSequence, model: DecayModel) -> float | None:
    """The closed-form expression for the weighted tail series, when one exists.

    For monomial weights over a power law this is the integral-comparison
    expression c * zeta(q - 1 - p) / (q - 1); for exponential weights over a
    geometric decay it is c / ((1-b) (1 - e**p b)), which is exact.
    """
    if isinstance(model, PowerLaw) and weights.kind == "monomial":
        if weights.p < model.q - 2.0:
            return model.c * zeta(model.q - 1.0 - weights.p).value / (model.q - 1.0)
        return None
    if isinstance(model, Geometric) and weights.kind == "exponential":
        if weights.p < abs(math.log(model.b)):
            return model.c / ((1.0 - model.b) * (1.0 - math.exp(weights.p) * model.b))
        return None
    return None
