"""The closed-form bounds: each result that is a formula in a few scalars, evaluated without numpy.

Lemma 2.6, Theorems 2.7 and 2.9 with Freedman's tail and Corollary 2.10's
rate-aware infimum over a ``TailFunction`` (independent families); the
Markov-minimised tails of Examples 2.12 and 2.13 with the numeric
minimisations they are checked against; Theorem 3.16 and the VC bound.
``golden_section_min`` searches numpy's ``linspace`` grid, rebuilt bit for bit.
``bounds``, ``series`` and ``applications.mdf`` read these names too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .errors import DomainError, positive_finite

if TYPE_CHECKING:
    from .series import SeriesValue

# The event-family kinds the engine simulates, here so the CLI parses --family without it
FAMILIES = ("independent", "nested", "union")


@dataclass(frozen=True)
class BoundResult:
    """A computed bound with its validity domain."""

    value: float
    validity: str
    minimizer: float | None = None
    closed_form: float | None = None
    series: SeriesValue | None = None


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """``np.linspace(lo, hi, n)`` bit for bit: point i is i * step + lo, the last one hi, and n = 1 gives [lo].

    Like numpy, it scales i / (n - 1) by hi - lo instead where step = (hi - lo) / (n - 1) underflows to 0.
    """
    if n == 1:
        return [lo]
    div, delta = n - 1, hi - lo
    step = delta / div
    return [(i * step if step else i / div * delta) + lo for i in range(div)] + [hi]


def golden_section_min(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12, coarse: int = 129
) -> tuple[float, float]:
    """Minimise a scalar function: coarse grid bracket, then golden section.

    Returns (argmin, min).  The coarse pass protects against non-unimodal
    objectives; the result is always a valid upper bound for an infimum.
    """
    grid = linspace(lo, hi, coarse)
    vals = [f(x) for x in grid]
    # np.argmin's rule: the first NaN if there is one, else the first least value
    i = min(range(coarse), key=lambda j: (vals[j] == vals[j], vals[j]))
    a = grid[max(0, i - 1)]
    b = grid[min(coarse - 1, i + 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol * (1.0 + abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


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


def second_moment_bound(c1: float) -> float:
    """E[O**2] <= C1 * (1 + C1) for independent summable families."""
    if c1 <= 0:
        raise DomainError("second_moment_bound requires C1 > 0")
    return positive_finite(lambda: c1 * (1.0 + c1), f"C1 (1 + C1) at C1={c1}")


def freedman_exp_bound(r: float, c1: float) -> BoundResult:
    """Universal bound E[exp(r*O)] <= exp(C1 (e**r - 1)) for independent families."""
    if not (r > 0 and c1 > 0):
        raise DomainError(f"freedman_exp_bound requires r > 0 and C1 > 0 (got r={r}, C1={c1})")
    return BoundResult(
        value=positive_finite(lambda: math.exp(c1 * math.expm1(r)), f"exp(C1 (e**r - 1)) at C1={c1}, r={r}"),
        validity="independent events, C1 = sum P(E_n)",
    )


def freedman_tail_bound(k: int, c1: float) -> BoundResult:
    """P(O >= k) <= exp(-k ln k + k (ln C1 + 1) - C1), minimised over r > 0.

    The exponent minimiser is r = ln(k / C1); for k <= C1 it is not
    positive, the infimum over r > 0 is attained in the limit r -> 0 and
    the bound degenerates to 1.
    """
    if not (k >= 1 and c1 > 0):
        raise DomainError(f"freedman_tail_bound requires k >= 1 and C1 > 0 (got k={k}, C1={c1})")
    exponent = -k * math.log(k) + k * (math.log(c1) + 1.0) - c1 if k > c1 else 0.0
    if not exponent < math.inf:  # -inf + inf near the top of double range: the same exponent, k (log1p(t) - t) <= 0
        t = (c1 - k) / k
        exponent = k * (math.log1p(t) - t) if t > -1.0 else min(k * (1.0 + math.log(c1 / k)) - c1, 0.0)
    value = positive_finite(lambda: math.exp(exponent), f"the Freedman tail at k={k}, C1={c1}")
    return BoundResult(value, "P(O >= k) for independent events, C1 = sum P(E_n)")


def freedman_tail_numeric(k: int, c1: float) -> tuple[float, float]:
    """Numeric infimum of exp(-k r + C1 (e**r - 1)) over r > 0; (r*, value)."""
    hi = math.log(max(k / c1, 1.0)) + 5.0
    r, val = golden_section_min(lambda r: -k * r + c1 * math.expm1(r), 1e-12, hi)
    return r, math.exp(val)


def improved_exp_bound(r: float, c1: float) -> BoundResult:
    """E[exp(r*O)] <= 1 / (1 - C1 e**r) for independent families with C1 < 1."""
    if not (0.0 < c1 < 1.0):
        raise DomainError(f"improved_exp_bound requires C1 < 1 (got C1={c1})")
    limit = abs(math.log(c1))
    if not (0.0 < r < limit and positive_finite(lambda: c1 * math.exp(r), f"e**r at r={r}") < 1.0):
        raise DomainError(
            f"improved_exp_bound requires 0 < r < |ln(C1)| = {limit:.6g}, and C1 e**r < 1 in floating point (got r={r})"
        )
    return BoundResult(
        value=1.0 / (1.0 - c1 * math.exp(r)),
        validity=f"independent events, C1 < 1 and r < |ln(C1)| = {limit:.6g}",
    )


def rate_aware_exp_bound(r: float, L: TailFunction) -> BoundResult:
    """E[exp(r*O)] <= inf_{delta>1} delta/(delta-1) exp(r L^-1(e^-r / delta)).

    Minimised by a coarse grid plus golden section on ln(delta) in (0, 50];
    any evaluation point is itself a valid upper bound.  A point whose
    L^-1 exceeds double precision bounds nothing and counts as +inf; a negative
    L^-1 (a geometric tail with e^-r / delta > c) is clamped at index 0.
    """
    if r <= 0:
        raise DomainError("rate_aware_exp_bound requires r > 0")

    def log_objective(ln_delta: float) -> float:
        delta = math.exp(ln_delta)
        inv = max(L.inverse(math.exp(-r) / delta), 0.0)
        return math.log(delta / (delta - 1.0)) + r * inv

    x, log_val = golden_section_min(log_objective, 1e-9, 50.0, tol=1e-12, coarse=257)
    return BoundResult(
        value=positive_finite(lambda: math.exp(log_val), f"the rate-aware bound exp({log_val:.6g}) at r={r}"),
        validity="independent events; L nonincreasing invertible majorant of the tail sums",
        minimizer=math.exp(x),
    )


def powerlaw_tail_asymptotic(k: int, c: float, p: float) -> BoundResult:
    """Markov-minimised tail 2 exp(inf_r(-k r + (2c)^(1/p) r e^(r/p))).

    The stationarity condition A e^(r/p) (1 + r/p) = k with A = (2c)^(1/p)
    gives the exact minimiser r* = p (W(e k / A) - 1) and the infimum value
    -p k (w - 1)^2 / w at w = W(e k / A).
    """
    if k < 8:
        raise DomainError("powerlaw_tail_asymptotic requires k >= 8")
    if c <= 0 or p <= 1:
        raise DomainError("powerlaw_tail_asymptotic requires c > 0 and p > 1")
    a = (2.0 * c) ** (1.0 / p)
    w = lambert_w0(positive_finite(lambda: math.e * (k / a), f"e k / (2c)**(1/p) at k={k}, c={c}, p={p}"))
    if w <= 1.0:
        raise DomainError(f"k={k} too small for a positive minimiser (requires W(e k / (2c)^(1/p)) > 1)")
    r_star = positive_finite(lambda: p * (w - 1.0), f"the minimiser r* at k={k}, c={c}, p={p}")
    value = positive_finite(lambda: 2.0 * math.exp(-p * k * (w - 1.0) ** 2 / w), f"the tail at k={k}, c={c}, p={p}")
    return BoundResult(value, "P(O >= k) for independent events with tail sums C_m <= c m**-p", r_star)


def powerlaw_tail_numeric(k: int, c: float, p: float) -> tuple[float, float]:
    """Numeric minimisation companion to powerlaw_tail_asymptotic; (r*, value)."""
    a = (2.0 * c) ** (1.0 / p)
    obj = lambda r: -k * r + a * r * math.exp(r / p)
    hi = p * (math.log(max(math.e * k / a, 2.0)) + 3.0)
    r, val = golden_section_min(obj, 1e-9, hi)
    return r, 2.0 * math.exp(val)


def geometric_tail_bound(k: int, c: float, b: float) -> BoundResult:
    """Gaussian-type tail 2 exp(-(|ln b|/4) [k - ln(2c)/|ln b|]**2).

    The quadratic exponent r**2 + r (ln(2c) - k |ln b|) has its vertex at
    r* = (k |ln b| - ln(2c)) / 2; when r* <= 0 the infimum over r > 0 is
    the vacuous bound 2, at r* = 0.
    """
    if not (k >= 1 and c > 0 and 0.0 < b < 1.0):
        raise DomainError(f"geometric_tail_bound requires k >= 1, c > 0 and 0 < b < 1 (got k={k}, c={c}, b={b})")
    lnb = abs(math.log(b))
    beta = math.log(2.0 * c) - k * lnb
    value = 2.0 if beta >= 0.0 else positive_finite(lambda: 2.0 * math.exp(-beta * beta / (4.0 * lnb)), "the Gaussian tail")
    return BoundResult(value, "P(O >= k) for independent events with tail sums C_m <= c b**m", max(0.0, -beta / 2.0))


def geometric_tail_numeric(k: int, c: float, b: float) -> tuple[float, float]:
    """Numeric minimisation of 2 exp((r**2 + r(ln 2c - k|ln b|)) / |ln b|)."""
    lnb = abs(math.log(b))
    obj = lambda r: (r * r + r * (math.log(2.0 * c) - k * lnb)) / lnb
    hi = max(1.0, k * lnb)
    r, val = golden_section_min(obj, 1e-12, hi)
    return r, 2.0 * math.exp(val)


def ldp_mdf_bound(rate: float, p: float, big_c: float) -> BoundResult:
    """Deviation-count bound under a large-deviations upper bound with rate J.

    E[e**(p O)] <= C (1 - e**-J)**-1 (1 - e**-(J - p))**-1 for 0 < p < J;
    tail P(O >= k) <= value * e**(-p k).
    """
    if rate <= 0:
        raise DomainError("ldp_mdf_bound requires rate > 0")
    if big_c <= 0:
        raise DomainError("ldp_mdf_bound requires C > 0")
    if not (0.0 < p < rate):
        raise DomainError(f"ldp_mdf_bound requires 0 < p < rate = {rate:.6g} (got p={p})")
    denominator = (1.0 - math.exp(-rate)) * (1.0 - math.exp(-(rate - p)))
    if denominator == 0.0:
        raise DomainError(f"ldp_mdf_bound requires e**-rate < 1 and e**-(rate - p) < 1 in floating point "
                          f"(got rate={rate}, p={p})")
    return BoundResult(
        value=positive_finite(lambda: big_c / denominator, f"C / ((1 - e**-rate) (1 - e**-(rate - p))) at C={big_c}"),
        validity=f"requires 0 < p < rate = {rate:.6g}; tail value * e**(-p k)",
    )


def vc_bound(ell: int, eps: float, growth: Callable[[int], float]) -> BoundResult:
    """Uniform relative-frequency deviation bound 4 m(2 ell) exp(-eps**2 ell / 8).

    Valid for sample sizes ell >= 1 with ell >= 2 / eps**2.
    """
    if eps <= 0:
        raise DomainError("vc_bound requires eps > 0")
    least = 2.0 / (eps * eps) if eps * eps > 0.0 else math.inf  # eps**2 may underflow
    if not ell >= max(least, 1.0):
        raise DomainError(f"vc_bound requires ell >= 1 and ell >= 2/eps**2 = {least:.6g} (got ell={ell})")
    value = positive_finite(lambda: 4.0 * float(growth(2 * ell)) * math.exp(-eps * eps * ell / 8.0),
                            f"4 m(2 ell) exp(-eps**2 ell / 8) at ell={ell}")
    return BoundResult(value, "P(sup_A |frequency of A in ell draws - P(A)| > eps) for a class with growth function m")
