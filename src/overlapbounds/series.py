"""Decay models, weight sequences and certified series primitives.

Everything downstream (bound calculators, simulation truncation, rate
reports) rests on the quantities computed here, each stated once:

* ``DecayModel`` describes an event-probability sequence ``P(E_n)``; every
  model states it as ``raw(n)``, unclamped, and ``tails_upto(n)`` is its one
  vector of tails ``C_1, ..., C_n``.
* ``WeightSequence`` holds weights ``a_n``; ``terms(n)`` is their one
  vectorised formula.
* ``tail_sum`` evaluates the tail ``C_m = sum_{n>=m} P(E_n)`` with a
  certified truncation error.
* ``weighted_tail_series`` evaluates the double series
  ``sum_n a_n * C_n`` and ``weighted_prob_series`` the nested identity's
  ``sum_n a_n * P(E_n)``.
* ``faulhaber_sum``, ``zeta`` and ``lambert_w0`` are the special-function
  helpers the closed-form bounds need; ``lambert_w0`` is one Halley
  iteration, valid for every finite x >= -1/e.

Every infinite sum goes through one routine, ``_certified_sum``: a vectorised
head over n < M plus a certified bracket [lo, hi] of the rest, with M doubled
from 64 until hi - lo <= 1e-15 of the value.  It reports ``head + hi`` through
``errors.positive_finite`` (never below the sum, up to rounding, nor 0.0) and
``hi - lo`` as the truncation error; ``_explicit_sum`` sums an explicit family
exactly, in index order.  The rests of sum_{n>=M} a_n * raw(n) form one table,
``_weighted_rest``: a cell per (model, weight kind) with its convergence
condition.  Power-law cells reduce to Hurwitz sums sum_{n>=M} n**-s, each
enclosed by two consecutive Euler-Maclaurin truncations (Johansson 2015);
geometric cells use an exponential majorant or a closed form.  A geometric
decay's tails C_n = raw(n) / (1 - b) are geometric too, so its weighted tail
series reads the same table, scaled; a power-law one sums in swapped order.
Custom weights have no cell: over an infinite family they raise ``DomainError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, Sequence

import numpy as np

from .errors import DivergenceError, DomainError, FunctionalOverflowError, InputError, NonConvergenceError, positive_finite

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
    hi - lo <= 1e-15 * value.  The value is the upper end head + hi through
    ``positive_finite``; a bracket still wider than that at the 2**26 guard, or a
    NaN one at any cut, raises ``NonConvergenceError``; a head or a lower end that
    is not finite (the sum overflows double precision) raises ``FunctionalOverflowError``.
    """
    cut, done, head = max(start, _FIRST_CUT), start, 0.0
    while True:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed head is reported below
            for a in range(done, cut, _SUM_CHUNK):
                head += float(np.sum(term(np.arange(a, min(a + _SUM_CHUNK, cut), dtype=float))))
        done = cut
        lo, hi = remainder(cut)
        if math.isnan(lo) or math.isnan(hi):  # an overflowed bracket never tightens
            raise NonConvergenceError(f"remainder bracket at {cut} terms is not a number: [{lo}, {hi}]")
        if not math.isfinite(head + lo):
            raise FunctionalOverflowError(f"series exceeds double precision: {head:.6g} + [{lo:.6g}, {hi:.6g}] at {cut} terms")
        if hi - lo <= _TIGHT * (head + lo):
            return SeriesValue(positive_finite(lambda: head + hi, f"the series' upper end {head:.6g} + {hi:.6g}"),
                               hi - lo, cut - start, True)
        if cut >= _MAX_CUT:
            raise NonConvergenceError(f"series not certified within {_MAX_CUT} terms: {head:.6g} + [{lo:.6g}, {hi:.6g}]")
        cut *= 2


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
    bern = bernoulli_numbers(p)
    acc = Fraction(0)
    for j in range(p + 1):
        acc += math.comb(p + 1, j) * bern[j] * Fraction(n) ** (p + 1 - j)
    acc /= p + 1
    if acc.denominator != 1:
        raise ArithmeticError(f"power sum came out non-integer for p={p}, n={n}")
    return int(acc)


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function, w * exp(w) = x, for every finite x >= -1/e.

    Halley iteration from a series/asymptotic initial guess, on the scaled
    residual w - x * exp(-w) = (w * exp(w) - x) / exp(w), which cannot
    overflow anywhere in double range.  It stops once a step is below 1e-15
    of w, or after 100 steps where rounding near -1/e keeps the steps above that.
    """
    min_x = -math.exp(-1.0)
    if not min_x - 1e-12 <= x < math.inf:
        raise DomainError(f"lambert_w0 requires a finite x >= -1/e (got x={x})")
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
        f = w - x * math.exp(-w)
        step = f / (w + 1.0 - (w + 2.0) * f / (2.0 * (w + 1.0))) if w != -1.0 else f
        w -= step
        if abs(step) <= 1e-15 * abs(w):
            break
    return w


@dataclass(frozen=True)
class TailFunction:
    """A nonincreasing, invertible majorant L of the tail sums C_m.

    ``power``: L(m) = c / m**x; ``geometric``: L(m) = c * x**m.
    """

    kind: str
    c: float
    x: float

    @staticmethod
    def power(c: float, p: float) -> "TailFunction":
        """L(m) = c / m**p with p > 0."""
        if not (0.0 < c < math.inf and 0.0 < p < math.inf):
            raise DomainError(f"power tail requires finite c > 0 and p > 0 (got c={c}, p={p})")
        return TailFunction("power", c, p)

    @staticmethod
    def geometric(c: float, b: float) -> "TailFunction":
        """L(m) = c * b**m with 0 < b < 1."""
        if not (0.0 < c < math.inf and 0.0 < b < 1.0):
            raise DomainError(f"geometric tail requires finite c > 0 and 0 < b < 1 (got c={c}, b={b})")
        return TailFunction("geometric", c, b)

    def inverse(self, s: float) -> float:
        """The m with L(m) = s; inf where that m exceeds double precision (s = 0 or s/c underflowing too)."""
        try:
            if self.kind == "power":
                return (self.c / s) ** (1.0 / self.x)
            return math.log(s / self.c) / math.log(self.x)
        except (OverflowError, ZeroDivisionError, ValueError):  # each only when m is beyond double precision
            return math.inf

    def describe(self) -> str:
        return f"{self.kind}:{self.c!r},{self.x!r}"


class DecayModel:
    """Base class for event-probability sequences P(E_n), indexed from n = 1.

    A model states its formula once, as ``raw(n)`` for an index or an array
    of indices (floats).  ``probs_upto`` clamps it into [0, 1] (used in
    simulation); ``tails_upto``, ``tail`` and the weighted series sum it
    unclamped (used in bound arithmetic, where the majorant may exceed one).
    """

    def probs_upto(self, n: int) -> np.ndarray:
        """The clamped probabilities P(E_1), ..., P(E_n) as one array."""
        return np.minimum(1.0, self.raw(np.arange(1, n + 1, dtype=float)))

    def tails_upto(self, n: int) -> np.ndarray:
        """C_1, ..., C_n: the reverse cumulative sum of the unclamped ``raw(1..n)`` plus C_{n+1}."""
        return np.cumsum(self.raw(np.arange(1, n + 1, dtype=float))[::-1])[::-1] + tail_sum(self, n + 1).value

    def tail(self, m: int) -> SeriesValue:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Explicit(DecayModel):
    """A finite, explicitly listed family; probabilities[i] = P(E_{i+1})."""

    probabilities: tuple[float, ...]

    def __init__(self, probabilities: Sequence[float]):
        probs = tuple(float(p) for p in probabilities)
        if any(not (0.0 <= p <= 1.0) for p in probs):
            raise DomainError("explicit probabilities must lie in [0, 1]")
        object.__setattr__(self, "probabilities", probs)

    def raw(self, n: Any) -> Any:
        """P(E_n) for indices n >= 1: the listed probabilities, and 0 past the last one."""
        padded = np.append(self.probabilities, 0.0)
        return padded[np.minimum(np.asarray(n, dtype=int), len(padded)) - 1]

    def tail(self, m: int) -> SeriesValue:
        """C_m, the m-th entry of ``tails_upto``: one summation order for every tail of the family."""
        start, n = max(m, 1), len(self.probabilities)
        value = float(self.tails_upto(n)[start - 1]) if start <= n else 0.0
        return SeriesValue(value, 0.0, max(n - start + 1, 0), True)

    def describe(self) -> str:
        return "explicit:" + ",".join(repr(p) for p in self.probabilities)


@dataclass(frozen=True)
class PowerLaw(DecayModel):
    """P(E_n) = c * n**-q for n >= 1; summable tails require q > 1."""

    c: float
    q: float

    def __post_init__(self) -> None:
        if not (0.0 < self.c < math.inf and 0.0 < self.q < math.inf):
            raise DomainError(f"power-law decay requires finite c > 0 and q > 0 (got c={self.c}, q={self.q})")

    def raw(self, n: Any) -> Any:
        return self.c * n**-self.q

    def tail(self, m: int) -> SeriesValue:
        if not self.q > 1.0:
            raise DivergenceError(f"{self.describe()} is not summable: its tail sums require q > 1 (got q={self.q})")
        return _certified_sum(self.raw, lambda cut: tuple(self.c * h for h in _hurwitz(self.q, cut)), max(m, 1))

    def describe(self) -> str:
        return f"powerlaw:{self.c!r},{self.q!r}"


@dataclass(frozen=True)
class Geometric(DecayModel):
    """P(E_n) = c * b**n for n >= 1; tails have the closed form C_m = c b^m/(1-b) for m >= 1."""

    c: float
    b: float

    def __post_init__(self) -> None:
        if not 0.0 < self.c < math.inf:
            raise DomainError(f"geometric decay requires finite c > 0 (got c={self.c})")
        if not (0.0 < self.b < 1.0):
            raise DomainError(f"geometric decay requires 0 < b < 1 (got b={self.b})")

    def raw(self, n: Any) -> Any:
        return self.c * self.b**n

    def tail(self, m: int) -> SeriesValue:
        m = max(m, 1)
        value = positive_finite(lambda: self.c * self.b**m / (1.0 - self.b), f"C_{m} = c b**m / (1-b) of {self.describe()}")
        return SeriesValue(value, 0.0, 0, True)

    def describe(self) -> str:
        return f"geometric:{self.c!r},{self.b!r}"


def tail_sum(model: DecayModel, m: int) -> SeriesValue:
    """C_m = sum_{n >= m} P(E_n) with certified truncation error.

    ``m = 0`` is allowed; every model's first event index is 1, so it
    returns the full sum C_1.
    """
    if m < 0:
        raise DomainError("tail index m must be >= 0")
    return model.tail(m)


@dataclass(frozen=True)
class WeightSequence:
    """Nonnegative weights a_n with partial sums S(N) = sum_{n=start}^N a_n.

    Exponential weights a_n = exp(n*p) run from n = 0 (so S(0) = 1); monomial
    weights a_n = n**p and custom weights a_n = term_fn(n) run from n = 1
    (so S(0) = 0).
    """

    kind: str
    p: float = 0.0
    term_fn: Callable[[int], float] | None = None

    @staticmethod
    def monomial(p: float) -> "WeightSequence":
        if not 0 <= p < math.inf:
            raise DomainError(f"monomial weights require finite p >= 0 (got p={p})")
        return WeightSequence(kind="monomial", p=p)

    @staticmethod
    def exponential(p: float) -> "WeightSequence":
        if not 0 < p < math.inf:
            raise DomainError(f"exponential weights require a finite rate p > 0 (got p={p})")
        return WeightSequence(kind="exponential", p=p)

    @staticmethod
    def custom(term_fn: Callable[[int], float]) -> "WeightSequence":
        return WeightSequence(kind="custom", term_fn=term_fn)

    @property
    def start(self) -> int:
        return 0 if self.kind == "exponential" else 1

    def terms(self, n: np.ndarray) -> np.ndarray:
        """a_n for an array of indices n >= start (floats); a custom a_n that is not a nonnegative number is a DomainError."""
        if self.kind == "monomial":
            return n**self.p
        if self.kind == "exponential":
            return np.exp(n * self.p)
        values = [self.term_fn(int(k)) for k in n]  # type: ignore[misc]
        for k, value in zip(n, values):
            if not value >= 0:
                raise DomainError(f"weight a_{int(k)} = {value} is not a nonnegative number")
        return np.array(values, dtype=float)

    def partial_sums_upto(self, n: int) -> np.ndarray:
        """Vector of S(0), S(1), ..., S(N) for vectorised evaluation."""
        terms = np.zeros(n + 1)
        terms[self.start :] = self.terms(np.arange(self.start, n + 1, dtype=float))
        return np.cumsum(terms)

    def describe(self) -> str:
        return "custom" if self.kind == "custom" else f"{self.kind}:{self.p!r}"


# sum_{n >= M} a_n * raw(n) per (model, weight kind): whether it converges, the condition it
# names when it does not, and a certified bracket (lo, hi) of it as a function of the cut M
_WEIGHTED_REST: dict[tuple[type, str], tuple[Callable, str, Callable | None]] = {
    (PowerLaw, "monomial"): (
        lambda m, p: p < m.q - 1.0, "monomial weights over a power-law decay require p < q - 1 (got p={p}, q={m.q})",
        lambda m, p, cut: tuple(m.c * h for h in _hurwitz(m.q - p, cut))),
    (PowerLaw, "exponential"): (
        lambda m, p: False, "exponential weights over a power-law decay diverge for every rate p > 0 (got p={p})", None),
    (Geometric, "monomial"): (lambda m, p: True, "", lambda m, p, cut: (0.0, m.c * _geometric_majorant(m.b, p, cut))),
    (Geometric, "exponential"): (
        lambda m, p: p < abs(math.log(m.b)) and math.exp(p) * m.b < 1.0,
        "exponential weights over a geometric decay require p < |ln(b)|, and e**p * b < 1 in floating point "
        "(got p={p}, b={m.b})",
        lambda m, p, cut: (m.c * (math.exp(p) * m.b) ** cut / (1.0 - math.exp(p) * m.b),) * 2),
}


def _weighted_rest(weights: WeightSequence, model: DecayModel) -> Callable[[int], tuple[float, float]]:
    """The bracket of sum_{n >= M} a_n * raw(n) as a function of M, from ``_WEIGHTED_REST``.

    A divergent cell raises ``DivergenceError`` naming its condition; custom
    weights and other models have no cell and raise ``DomainError``.
    """
    cell = next((v for (cls, kind), v in _WEIGHTED_REST.items() if isinstance(model, cls) and kind == weights.kind), None)
    if cell is None:
        raise DomainError(f"no certified remainder for weights {weights.describe()} over {model.describe()}; only monomial "
                          "and exponential weights over power-law and geometric decays, or explicit families, are summed")
    converges, condition, bracket = cell
    if not converges(model, weights.p):
        raise DivergenceError(condition.format(p=weights.p, m=model))
    return lambda cut: bracket(model, weights.p, cut)


def _explicit_sum(weights: WeightSequence, first: int, coeffs: Sequence[float]) -> SeriesValue:
    """The exact sum of a_n * coeffs[n - first] over an explicit family, in index order.

    An overflowed sum raises ``FunctionalOverflowError``.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed weight makes an inf or NaN total, reported below
        products = weights.terms(np.arange(first, first + len(coeffs), dtype=float)) * np.asarray(coeffs, dtype=float)
    total = 0.0
    for x in products.tolist():  # built-in sum compensates from Python 3.12; this order is the recorded one
        total += x
    if not math.isfinite(total):
        raise FunctionalOverflowError(f"the weighted sum over {len(coeffs)} events overflows double precision")
    return SeriesValue(total, 0.0, len(coeffs), True)


def weighted_tail_series(weights: WeightSequence, model: DecayModel) -> SeriesValue:
    """The double series sum_{n >= start} a_n * C_n: the upper end of a certified enclosure.

    Divergent parameter combinations raise ``DivergenceError`` naming the
    violated condition; combinations without a certified remainder (custom
    weights over an infinite family) raise ``DomainError``, and a sum over an
    explicit family that overflows raises ``FunctionalOverflowError``.
    """
    if isinstance(model, Explicit):
        tails = model.tails_upto(len(model.probabilities) + 1)  # C_1, ..., C_N and C_{N+1} = 0
        # a_0 takes C_1: an explicit family has no event E_0
        return _explicit_sum(weights, weights.start, tails[np.maximum(np.arange(weights.start, len(tails)), 1) - 1])
    if isinstance(model, Geometric):  # C_n = raw(n) / (1 - b): the table's rest, scaled
        rest, one_minus_b = _weighted_rest(weights, model), 1.0 - model.b
        closed = weighted_tail_closed_form(weights, model)  # exact for exponential weights
        if closed is not None:
            return SeriesValue(closed, 0.0, 0, True)
        return _certified_sum(lambda n: weights.terms(n) * model.raw(n) / one_minus_b,
                              lambda cut: tuple(h / one_minus_b for h in rest(cut)), weights.start)
    if weights.kind != "monomial" or not isinstance(model, PowerLaw):
        _weighted_rest(weights, model)  # raises: no cell, or exponential weights over a power law
    c, q, p = model.c, model.q, weights.p
    if p >= q - 2.0:
        raise DivergenceError(
            f"monomial weights over a power-law tail require p < q - 2 (got p={p}, q={q})"
        )

    # Swapped order: sum_n n**p C_n = c sum_m m**-q S(m), S(m) = sum_{n<=m} n**p.  Past
    # the cut M the rest is c (S(M-1) zeta(q, M) + sum_{n>=M} n**p zeta(q, n)).
    def partial_sum(m: int) -> float:
        with np.errstate(over="ignore"):  # an overflowed partial sum makes a NaN bracket, reported by _certified_sum
            return float(np.sum(weights.terms(np.arange(1, m + 1, dtype=float))))

    def remainder(cut: int) -> tuple[float, float]:
        s_head = partial_sum(cut - 1)
        (z_lo, z_hi), (w_lo, w_hi) = _hurwitz(q, cut), _weighted_hurwitz(q, p, cut)
        return c * (s_head * z_lo + w_lo), c * (s_head * z_hi + w_hi)

    return _certified_sum(
        lambda m: model.raw(m) * (partial_sum(int(m[0]) - 1) + np.cumsum(weights.terms(m))), remainder, 1
    )


def weighted_prob_series(weights: WeightSequence, model: DecayModel) -> SeriesValue:
    """sum_{n >= 1} a_n * P(E_n) with clamped probabilities (the nested identity's series).

    Certified like ``weighted_tail_series``, with the same errors.
    """
    if isinstance(model, Explicit):
        return _explicit_sum(weights, 1, model.probabilities)
    rest = _weighted_rest(weights, model)
    # past the clamped indices (raw(n) > 1) the table's bracket is the rest
    return _certified_sum(
        lambda n: weights.terms(n) * np.minimum(1.0, model.raw(n)),
        lambda cut: rest(cut) if model.raw(float(cut)) <= 1.0 else (0.0, math.inf),
        1,
    )


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
        return positive_finite(lambda: c * (zeta(q - 1.0 - p).value / (q - 1.0) + zeta(q - p).value),
                               f"c (zeta(q-1-p) / (q-1) + zeta(q-p)) at c={c}, q={q}, p={p}")
    if isinstance(model, Geometric) and weights.kind == "exponential":
        c, b, growth = model.c, model.b, math.exp(p) * model.b
        if p < abs(math.log(b)) and growth < 1.0:
            return positive_finite(lambda: c / ((1.0 - b) * (1.0 - growth)), f"c / ((1-b) (1 - e**p b)) at p={p}")
    return None
