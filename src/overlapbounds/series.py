"""Decay models, weight sequences and certified series primitives.

Everything downstream (bound calculators, simulation truncation, rate
reports) rests on the quantities computed here:

* ``DecayModel`` describes an event-probability sequence ``P(E_n)``.
* ``tail_sum`` evaluates the tail ``C_m = sum_{n>=m} P(E_n)`` with a
  certified truncation error.
* ``weighted_tail_series`` evaluates the double series
  ``sum_n a_n * C_n`` for a ``WeightSequence`` ``(a_n)``, and
  ``weighted_prob_series`` the nested identity's ``sum_n a_n * P(E_n)``.
* ``faulhaber_sum``, ``zeta`` and ``lambert_w0`` are the special-function
  helpers the closed-form bounds need.

Every infinite sum goes through one routine, ``_certified_sum``: a
vectorised head over n < M plus a certified bracket [lo, hi] of the rest,
with M doubled from 64 until hi - lo <= 1e-15 of the value.  It reports
``head + hi``, so a value is never below the sum it stands for (up to
floating-point rounding), and ``hi - lo`` as the truncation error.  Power-law
remainders reduce to Hurwitz sums sum_{n>=M} n**-s, each enclosed by two
consecutive Euler-Maclaurin truncations (Johansson 2015); geometric
remainders use an exponential majorant or, for exponential weights, their
closed form.  Custom weights, and custom tails, have no certified remainder:
over an infinite family they raise ``DomainError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DivergenceError, DomainError, InputError, NonConvergenceError

_SUM_CHUNK = 1 << 16
_FIRST_CUT = 64
_MAX_CUT = 1 << 26  # reached only by geometric decays with b within about 1e-6 of 1
_TIGHT = 1e-15  # bracket width allowed, relative to the value
_EM_TERMS = 6


@dataclass(frozen=True)
class SeriesValue:
    """A numerically evaluated series with a certified remainder bound."""

    value: float
    truncation_error: float
    terms_used: int
    converged: bool

    def __float__(self) -> float:
        return self.value


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


# B_2k / (2k)! for k = 1 .. K+1
_EM_COEFFS = tuple(
    float(b / math.factorial(2 * k)) for k, b in enumerate(bernoulli_numbers(2 * _EM_TERMS + 2)[2::2], 1)
)


def _certified_sum(
    term: Callable[[np.ndarray], np.ndarray],
    remainder: Callable[[int], tuple[float, float]],
    start: int,
) -> SeriesValue:
    """sum_{n >= start} of nonnegative terms: a numpy head plus a certified remainder bracket.

    ``term`` maps an index array (floats) to its terms and ``remainder(M)``
    returns (lo, hi) with lo <= sum_{n >= M} <= hi.  The head runs over
    start..M-1 in chunks; M starts at max(start, 64) and doubles until
    hi - lo <= 1e-15 * value.  The value is the upper end head + hi; a bracket
    still wider than that at the 2**26 guard raises ``NonConvergenceError``.
    """
    cut, done, head = max(start, _FIRST_CUT), start, 0.0
    while True:
        for a in range(done, cut, _SUM_CHUNK):
            head += float(np.sum(term(np.arange(a, min(a + _SUM_CHUNK, cut), dtype=float))))
        done = cut
        lo, hi = remainder(cut)
        if hi - lo <= _TIGHT * (head + lo):
            return SeriesValue(head + hi, hi - lo, cut - start, True)
        if cut >= _MAX_CUT:
            raise NonConvergenceError(f"series not certified within {_MAX_CUT} terms: {head:.6g} + [{lo:.6g}, {hi:.6g}]")
        cut *= 2


_UNBRACKETED = (0.0, math.inf)


def _widen(bracket: tuple[float, float], r: float) -> tuple[float, float]:
    """The bracket of x + y for x in ``bracket`` and y between 0 and r."""
    return bracket[0] + min(r, 0.0), bracket[1] + max(r, 0.0)


def _em_expansion(s: float) -> list[tuple[float, float]]:
    """Euler-Maclaurin terms of sum_{k >= n} k**-s as (coefficient, exponent) pairs.

    sum_{k>=n} k**-s = n**(1-s)/(s-1) + n**-s/2
        + sum_{j=1}^{K} B_2j/(2j)! (s)_(2j-1) n**(1-s-2j) + R.
    x**-s is completely monotone, so R has the sign of the first omitted
    term (j = K+1, the last pair) and at most its size.
    """
    pairs = [(1.0 / (s - 1.0), s - 1.0), (0.5, s)]
    rising = s  # (s)_(2j-1)
    for j, b in enumerate(_EM_COEFFS, 1):
        pairs.append((b * rising, s + 2 * j - 1))
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return pairs


def _hurwitz(s: float, n: int) -> tuple[float, float]:
    """Certified bracket for sum_{k >= n} k**-s, s > 1."""
    *body, (c_last, e_last) = _em_expansion(s)
    x = float(n)
    total = sum(c * x**-e for c, e in body)
    return _widen((total, total), c_last * x**-e_last)


def _weighted_hurwitz(q: float, p: float, n: int) -> tuple[float, float]:
    """Certified bracket for sum_{k >= n} k**p zeta(q, k), p < q - 2.

    Expanding zeta(q, k) = sum_{i >= k} i**-q by Euler-Maclaurin turns every
    term k**p k**-e into a Hurwitz sum of exponent e - p.
    """
    *body, (c_last, e_last) = _em_expansion(q)
    lo = hi = 0.0
    for c, e in body:
        a, b = sorted(c * h for h in _hurwitz(e - p, n))
        lo, hi = lo + a, hi + b
    return _widen((lo, hi), c_last * _hurwitz(e_last - p, n)[1])


def _geometric_majorant(b: float, p: float, m: int) -> float:
    """Majorant of sum_{n >= m} n**p b**n, p >= 0, from (m+k)**p <= m**p e**(pk/m)."""
    growth = b * math.exp(p / m)
    if growth >= 1.0:
        return math.inf
    return math.exp(p * math.log(m) + m * math.log(b)) / (1.0 - growth)


def zeta(s: float) -> SeriesValue:
    """Riemann zeta for real s > 1: the upper end of a certified enclosure."""
    if not s > 1.0:
        raise DivergenceError(f"zeta requires s > 1 (got s={s}); the series diverges at s <= 1")
    return PowerLaw(1.0, s).tail(1)


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
    label: str = "custom"

    def __post_init__(self) -> None:
        vals = [self.evaluate(m) for m in (1.0, 33.0, 65.0)]
        if any(v < 0 for v in vals):
            raise DomainError("tail function must be nonnegative")
        if not all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1)):
            raise DomainError("tail function must be nonincreasing")

    @staticmethod
    def power(c: float, p: float) -> "TailFunction":
        """L(m) = c / m**p with p > 1 (so it majorises a summable tail)."""
        if c <= 0 or p <= 0:
            raise DomainError("power tail requires c > 0 and p > 0")
        return TailFunction(
            evaluate=lambda m: c / m**p,
            inverse=lambda s: (c / s) ** (1.0 / p),
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
            label=f"geometric(c={c},b={b})",
        )


class DecayModel:
    """Base class for event-probability sequences P(E_n).

    ``raw`` is the model formula without clamping (used in bound
    arithmetic, where the majorant may exceed one); ``prob`` clamps into
    [0, 1] (used in simulation).  Events are indexed from n = 1.
    """

    def raw(self, n: int) -> float:
        raise NotImplementedError

    def prob(self, n: int) -> float:
        if n < 1:
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
        c, q = self.c, self.q
        return _certified_sum(
            lambda n: c * n**-q, lambda cut: tuple(c * h for h in _hurwitz(q, cut)), max(m, 1)
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


def least_true_index(ok: Callable[[int], bool], cap: int, error: Exception) -> int:
    """The least n >= 1 with ok(n), for a predicate that stays true once true.

    n doubles from 1 until ok(n) holds, raising ``error`` once n passes
    ``cap``; bisection on [1, n] then finds the least such n.
    """
    hi = 1
    while not ok(hi):
        hi *= 2
        if hi > cap:
            raise error
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


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


def _require_bracket(weights: WeightSequence, model: DecayModel) -> None:
    """Raise unless a certified remainder exists for a_n over an infinite model."""
    if weights.kind == "custom" or not isinstance(model, (PowerLaw, Geometric)):
        raise DomainError(
            f"no certified remainder for weights {weights.describe()} over {model.describe()}; "
            "only monomial and exponential weights over power-law and geometric decays, "
            "or explicit (finite) families, are summed"
        )


def weighted_tail_series(weights: WeightSequence, model: DecayModel) -> SeriesValue:
    """The double series sum_{n >= start} a_n * C_n: the upper end of a certified enclosure.

    Divergent parameter combinations raise ``DivergenceError`` naming the
    violated condition; combinations without a certified remainder (custom
    weights or tails over an infinite family) raise ``DomainError``.
    """
    if isinstance(model, Explicit):
        last = len(model.probabilities)
        suffix = np.concatenate([np.cumsum(model.probabilities[::-1])[::-1], [0.0]])
        total = 0.0
        for n in range(weights.start, last + 1):
            c_n = suffix[max(n, 1) - 1]
            total += weights.term(n) * float(c_n)
        return SeriesValue(total, 0.0, last - weights.start + 1, True)
    _require_bracket(weights, model)
    p = weights.p

    if isinstance(model, Geometric):
        b, coeff = model.b, model.c / (1.0 - model.b)
        if weights.kind == "exponential":
            lnb_abs = abs(math.log(b))
            if p >= lnb_abs:
                raise DivergenceError(
                    f"exponential weights over a geometric tail require p < |ln(b)| "
                    f"(got p={p}, |ln(b)|={lnb_abs})"
                )
            return SeriesValue(model.c / ((1.0 - b) * (1.0 - math.exp(p) * b)), 0.0, 0, True)
        return _certified_sum(
            lambda n: coeff * n**p * b**n, lambda cut: (0.0, coeff * _geometric_majorant(b, p, cut)), 1
        )

    c, q = model.c, model.q
    if weights.kind == "exponential":
        raise DivergenceError("exponential weights over a power-law tail diverge for every rate p > 0")
    if not model.summable:
        raise DivergenceError(f"power-law tails require q > 1 (got q={q})")
    if p >= q - 2.0:
        raise DivergenceError(
            f"monomial weights over a power-law tail require p < q - 2 (got p={p}, q={q})"
        )

    # Swapped order: sum_n n**p C_n = c sum_m m**-q S(m), S(m) = sum_{n<=m} n**p.  Past
    # the cut M the rest is c (S(M-1) zeta(q, M) + sum_{n>=M} n**p zeta(q, n)).
    def remainder(cut: int) -> tuple[float, float]:
        s_head = weights.partial_sum(cut - 1)
        (z_lo, z_hi), (w_lo, w_hi) = _hurwitz(q, cut), _weighted_hurwitz(q, p, cut)
        return c * (s_head * z_lo + w_lo), c * (s_head * z_hi + w_hi)

    return _certified_sum(
        lambda m: c * m**-q * (weights.partial_sum(int(m[0]) - 1) + np.cumsum(m**p)), remainder, 1
    )


def weighted_prob_series(weights: WeightSequence, model: DecayModel) -> SeriesValue:
    """sum_{n >= 1} a_n * P(E_n) with clamped probabilities (the nested identity's series).

    Certified like ``weighted_tail_series``, with the same errors.
    """
    if isinstance(model, Explicit):
        total = sum(weights.term(n) * model.prob(n) for n in range(1, len(model.probabilities) + 1))
        return SeriesValue(float(total), 0.0, len(model.probabilities), True)
    _require_bracket(weights, model)
    c, p = model.c, weights.p

    if isinstance(model, PowerLaw):
        q = model.q
        if weights.kind == "exponential":
            raise DivergenceError("exponential weights over a power-law decay diverge")
        if p >= q - 1.0:
            raise DivergenceError(
                f"sum n**p P(E_n) over a power law requires p < q - 1 (got p={p}, q={q})"
            )
        # past the clamped indices (c n**-q >= 1) the rest is c zeta(q - p, M)
        return _certified_sum(
            lambda n: n**p * np.minimum(1.0, c * n**-q),
            lambda cut: tuple(c * h for h in _hurwitz(q - p, cut)) if c * float(cut) ** -q <= 1.0 else _UNBRACKETED,
            1,
        )

    b = model.b
    if weights.kind == "monomial":
        return _certified_sum(
            lambda n: n**p * np.minimum(1.0, c * b**n),
            lambda cut: (0.0, c * _geometric_majorant(b, p, cut)) if c * b**cut <= 1.0 else _UNBRACKETED,
            1,
        )
    if p >= abs(math.log(b)):
        raise DivergenceError(
            f"sum e^(pn) P(E_n) over a geometric decay requires p < |ln(b)| (got p={p})"
        )
    growth = math.exp(p) * b

    def geometric_rest(cut: int) -> tuple[float, float]:
        rest = c * growth**cut / (1.0 - growth)
        return (rest, rest) if c * b**cut <= 1.0 else _UNBRACKETED

    return _certified_sum(lambda n: np.exp(p * n) * np.minimum(1.0, c * b**n), geometric_rest, 1)


def weighted_tail_closed_form(weights: WeightSequence, model: DecayModel) -> float | None:
    """A closed-form upper bound on the weighted tail series, when one exists.

    For monomial weights over a power law, C_n <= c n**-q + c n**(1-q) / (q-1)
    gives sum_n n**p C_n <= c (zeta(q-1-p) / (q-1) + zeta(q-p)) for p < q - 2;
    for exponential weights over a geometric decay the value
    c / ((1-b) (1 - e**p b)) is exact.
    """
    p = weights.p
    if isinstance(model, PowerLaw) and weights.kind == "monomial" and p < model.q - 2.0:
        c, q = model.c, model.q
        return c * (zeta(q - 1.0 - p).value / (q - 1.0) + zeta(q - p).value)
    if isinstance(model, Geometric) and weights.kind == "exponential" and p < abs(math.log(model.b)):
        return model.c / ((1.0 - model.b) * (1.0 - math.exp(p) * model.b))
    return None
