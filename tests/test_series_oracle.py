"""The certified series against an independent mpmath oracle at 30 digits.

Every value must be the upper end of an enclosure of the true sum,

    value - truncation_error <= oracle <= value <= oracle * (1 + 1e-12),

where the two middle comparisons allow ``ROUND`` for floating-point
rounding in the head sums and closed forms (at most 6e-15 on this grid,
from 1 / (1 - e**p b) at e**p b = 0.997).  The grid holds near-boundary
exponents (q -> 1, p -> q - 2 or q - 1, e**p b -> 1, b -> 1), clamped
probabilities, and every parameter point of the re-recorded cells of
``cli_golden.json``.  For integer p a second, exact oracle sums the
Faulhaber polynomial against zeta, and the power-law ``closed_form`` must
lie at or above the series.
"""

from __future__ import annotations

import math
import time

import mpmath as mp
import pytest

from overlapbounds import (
    DomainError,
    Geometric,
    NonConvergenceError,
    PowerLaw,
    WeightSequence,
    general_moment_bound,
    nested_moment_identity,
    poly_moment_bound,
    tail_sum,
    weighted_tail_series,
    zeta,
)

DPS = 30
ROUND = 1e-14  # about 45 ulps
EM_CUTOFFS = (150, 300)
EM_TERMS = 10


def check_enclosure(sv, oracle) -> None:
    oracle = float(oracle)
    assert sv.value - sv.truncation_error <= oracle * (1.0 + ROUND)
    assert oracle <= sv.value * (1.0 + ROUND)
    assert sv.value <= oracle * (1.0 + 1e-12)


# --- oracle -------------------------------------------------------------------


def hurwitz(s: float, a: int) -> mp.mpf:
    """zeta(s, a) to DPS digits.  mpmath's error here is absolute, not relative
    (at 30 digits zeta(12, 1000) is off by 2e-11 relative), so the working
    precision grows by the digits the value lies below one."""
    lost = max(0, math.ceil(-math.log10(float(a) ** (1.0 - float(s)) / (float(s) - 1.0))))
    with mp.workdps(DPS + 10 + lost):
        return mp.zeta(s, a)


def oracle_powerlaw_weighted_tail(c: float, q: float, p: float) -> mp.mpf:
    """sum_{n>=1} n**p c zeta(q, n): exact head below the cut-off, then the
    Euler-Maclaurin expansion of zeta(q, n) summed in closed form with Hurwitz
    zeta; two cut-offs must agree to 1e-25."""
    with mp.workdps(DPS + 10):
        q, p = mp.mpf(q), mp.mpf(p)
        values = []
        for cut in EM_CUTOFFS:
            head, hz = mp.mpf(0), hurwitz(q, cut)
            for n in range(cut - 1, 0, -1):  # hz = zeta(q, n), adding terms from the cut-off down: no cancellation
                hz += mp.mpf(n) ** -q
                head += mp.mpf(n) ** p * hz
            tail = hurwitz(q - 1 - p, cut) / (q - 1) + hurwitz(q - p, cut) / 2
            for k in range(1, EM_TERMS + 1):
                tail += mp.bernoulli(2 * k) / mp.factorial(2 * k) * mp.rf(q, 2 * k - 1) * hurwitz(q + 2 * k - 1 - p, cut)
            values.append(head + tail)
        assert abs(values[0] - values[1]) <= mp.mpf("1e-25") * values[1]
        return +(mp.mpf(c) * values[1])


def oracle_faulhaber_zeta(c: float, q: float, p: int) -> mp.mpf:
    """sum_{n>=1} n**p C_n for integer p, exactly: swapping the order gives
    c sum_m m**-q S_p(m) with the Faulhaber polynomial
    S_p(m) = sum_{j<=p} C(p+1, j) B+_j m**(p+1-j) / (p+1), B+_1 = +1/2,
    so the sum is a finite combination of zeta(q - p - 1 + j)."""
    with mp.workdps(DPS):
        q = mp.mpf(q)
        total = sum(mp.binomial(p + 1, j) * (-1) ** j * mp.bernoulli(j) * mp.zeta(q - p - 1 + j) for j in range(p + 1))
        return +(mp.mpf(c) * total / (p + 1))


def oracle_clamped(c: float, decay, weight, rest) -> mp.mpf:
    """sum_{n>=1} a_n min(1, P_n) = sum over clamped n of a_n (1 - P_n) + sum_{n>=1} a_n P_n."""
    with mp.workdps(DPS):
        total, n = rest, 1
        while c * decay(n) >= 1:
            total += weight(n) * (1 - c * decay(n))
            n += 1
        return total


def oracle_nested_powerlaw(c: float, q: float, p: float) -> mp.mpf:
    with mp.workdps(DPS):
        q, p = mp.mpf(q), mp.mpf(p)
        return oracle_clamped(c, lambda n: mp.mpf(n) ** -q, lambda n: mp.mpf(n) ** p, mp.mpf(c) * mp.zeta(q - p))


def oracle_nested_geometric(c: float, b: float, kind: str, p: float) -> mp.mpf:
    """Monomial weights via the polylogarithm Li_{-p}(b), exponential ones as a geometric series (plus a_0 = 1)."""
    with mp.workdps(DPS):
        b, p = mp.mpf(b), mp.mpf(p)
        if kind == "monomial":
            return oracle_clamped(c, lambda n: b**n, lambda n: mp.mpf(n) ** p, mp.mpf(c) * mp.polylog(-p, b))
        g = mp.exp(p) * b
        return 1 + oracle_clamped(c, lambda n: b**n, lambda n: mp.exp(p * n), mp.mpf(c) * g / (1 - g))


# --- grid -----------------------------------------------------------------------

NEAR_ONE = 1.0 + 5e-7
TAIL_POINTS = [
    (c, q, m)
    for c, q in [(1.0, NEAR_ONE), (1.0, 1.001), (1.0, 1.1), (0.5, 1.5), (1.0, 2.0), (1.0, 3.0), (2.0, 4.0), (1.0, 6.0), (1.0, 12.0)]
    for m in (1, 2, 10, 64, 65, 1000, 10**6 + 1)
]
ZETA_POINTS = [NEAR_ONE, 1.0 + 1e-6, 1.001, 1.1, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 20.0, 50.0]
WEIGHTED_POWERLAW = [
    (1.0, 3.0, 0.0), (1.0, 3.0, 0.5), (1.0, 3.0, 0.9),
    (1.0, 4.0, 0.0), (1.0, 4.0, 0.5), (1.0, 4.0, 1.0), (1.0, 4.0, 1.5), (1.0, 4.0, 1.9), (1.0, 4.0, 1.99),
    (1.0, 5.0, 0.0), (1.0, 5.0, 1.0), (1.0, 5.0, 2.0), (1.0, 5.0, 2.5), (1.0, 5.0, 2.9),
    (1.0, 6.0, 0.0), (1.0, 6.0, 1.0), (1.0, 6.0, 2.0), (1.0, 6.0, 3.0),
    (0.5, 4.0, 1.0), (2.0, 5.0, 1.5), (1.0, 2.5, 0.4), (1.0, 2.001, 0.0),
]
FAULHABER_POINTS = [
    (1.0, 4.0, 0), (1.0, 4.0, 1), (1.0, 5.0, 1), (1.0, 5.0, 2), (1.0, 6.0, 3), (2.0, 5.0, 1),
    (1.0, 12.0, 2), (1.0, 12.0, 9), (0.5, 3.5, 1), (1.0, 3.001, 1),
]
# closed form against the series, near p -> q - 2 as well
CLOSED_FORM_POINTS = WEIGHTED_POWERLAW + [(1.0, 4.0, 1.999), (1.0, 3.0, 0.999), (1.0, 12.0, 2.0), (1.0, 12.0, 9.99)]
WEIGHTED_GEOMETRIC = [
    (1.0, 0.5, 0.0), (1.0, 0.5, 0.5), (1.0, 0.5, 1.0), (1.0, 0.5, 1.5), (1.0, 0.5, 2.0), (1.0, 0.5, 2.5),
    (0.5, 0.3, 1.0), (2.0, 0.3, 1.0), (0.5, 0.7, 1.0), (1.0, 0.95, 2.0), (1.0, 0.05, 0.5),
]
NESTED_POWERLAW = [
    (1.0, 3.0, 1.0), (1.0, 3.0, 1.9), (1.0, 4.0, 0.0), (1.0, 4.0, 1.0), (1.0, 4.0, 2.0), (1.0, 4.0, 2.9),
    (1.0, 5.0, 1.0), (1.0, 5.0, 2.0), (0.5, 6.0, 2.0), (1.0, 6.0, 3.0), (1.0, 2.0, 0.9), (3.0, 3.0, 0.5), (10.0, 2.0, 0.5),
]
NESTED_GEOMETRIC = [
    (1.0, 0.5, "monomial", 1.0), (1.0, 0.5, "monomial", 2.0), (1.0, 0.5, "monomial", 2.5),
    (0.5, 0.3, "monomial", 1.0), (4.0, 0.5, "monomial", 1.0), (1.0, 0.95, "monomial", 1.0),
    (1.0, 0.5, "exponential", 0.3), (0.5, 0.5, "exponential", 0.1), (0.5, 0.3, "exponential", 1.0),
    (4.0, 0.5, "exponential", 0.3), (1.0, 0.5, "exponential", 0.69),
]


@pytest.mark.parametrize("c,q,m", TAIL_POINTS)
def test_powerlaw_tail_sum(c, q, m):
    with mp.workdps(DPS):
        check_enclosure(tail_sum(PowerLaw(c, q), m), mp.mpf(c) * hurwitz(q, m))


@pytest.mark.parametrize("s", ZETA_POINTS)
def test_zeta(s):
    with mp.workdps(DPS):
        check_enclosure(zeta(s), mp.zeta(s))


@pytest.mark.parametrize("c,q,p", WEIGHTED_POWERLAW)
def test_weighted_tail_series_powerlaw(c, q, p):
    check_enclosure(weighted_tail_series(WeightSequence.monomial(p), PowerLaw(c, q)), oracle_powerlaw_weighted_tail(c, q, p))


@pytest.mark.parametrize("c,q,p", FAULHABER_POINTS)
def test_weighted_tail_series_faulhaber_zeta(c, q, p):
    check_enclosure(weighted_tail_series(WeightSequence.monomial(p), PowerLaw(c, q)), oracle_faulhaber_zeta(c, q, p))


def test_faulhaber_zeta_oracle_at_4_1():
    # sum_m m**-4 m (m + 1) / 2 = (zeta(2) + zeta(3)) / 2
    with mp.workdps(DPS):
        assert oracle_faulhaber_zeta(1.0, 4.0, 1) == (mp.zeta(2) + mp.zeta(3)) / 2


@pytest.mark.parametrize("c,q,p", CLOSED_FORM_POINTS)
def test_powerlaw_closed_form_bounds_the_series(c, q, p):
    # c (zeta(q-1-p)/(q-1) + zeta(q-p)) from C_n <= c n**-q + c n**(1-q) / (q-1)
    res = general_moment_bound(WeightSequence.monomial(p), PowerLaw(c, q))
    assert res.closed_form >= res.value
    assert res.closed_form >= float(oracle_powerlaw_weighted_tail(c, q, p))


@pytest.mark.parametrize("c,b,p", WEIGHTED_GEOMETRIC)
def test_weighted_tail_series_geometric(c, b, p):
    with mp.workdps(DPS):
        oracle = mp.mpf(c) * mp.polylog(-mp.mpf(p), mp.mpf(b)) / (1 - mp.mpf(b))
    check_enclosure(weighted_tail_series(WeightSequence.monomial(p), Geometric(c, b)), oracle)


@pytest.mark.parametrize("c,q,p", NESTED_POWERLAW)
def test_nested_moment_identity_powerlaw(c, q, p):
    res = nested_moment_identity(WeightSequence.monomial(p), PowerLaw(c, q))
    assert res.value == res.series.value
    check_enclosure(res.series, oracle_nested_powerlaw(c, q, p))


@pytest.mark.parametrize("c,b,kind,p", NESTED_GEOMETRIC)
def test_nested_moment_identity_geometric(c, b, kind, p):
    weights = WeightSequence.monomial(p) if kind == "monomial" else WeightSequence.exponential(p)
    res = nested_moment_identity(weights, Geometric(c, b))
    base = 1.0 if kind == "exponential" else 0.0
    assert res.value == base + res.series.value
    check_enclosure(res.series, oracle_nested_geometric(c, b, kind, p) - base)


# --- defects of the earlier stopping rules ---------------------------------------


def test_poly_bound_near_boundary_is_certified():
    # p = 1.9 against q - 2 = 2: the old loop stopped at 2**24 terms, unconverged
    res = poly_moment_bound(1.9, PowerLaw(1, 4))
    assert res.series.converged and res.series.terms_used <= 1 << 16
    check_enclosure(res.series, oracle_powerlaw_weighted_tail(1.0, 4.0, 1.9))


def test_nested_identity_slow_decay_is_certified():
    # sum n * n**-3 = zeta(2): the old loop returned a partial sum below it
    res = nested_moment_identity(WeightSequence.monomial(1), PowerLaw(1, 3))
    assert res.series.converged and res.series.terms_used <= 1 << 16
    with mp.workdps(DPS):
        check_enclosure(res.series, mp.zeta(2))


def test_custom_weights_over_an_infinite_family_raise():
    # the old heuristic returned 1.2020565, below zeta(3) = 1.2020569
    with pytest.raises(DomainError, match="no certified remainder"):
        general_moment_bound(WeightSequence.custom(lambda n: 1.0), PowerLaw(1, 4))


def test_unconverged_series_raises_instead_of_bounding():
    # b = 1 - 1e-7 reaches the 2**26 guard with the bracket still 7% wide; the
    # earlier routine returned 3.7e32 with converged=False as a bound
    with pytest.raises(NonConvergenceError, match="not certified"):
        poly_moment_bound(2.5, Geometric(1, 1 - 1e-7))
    assert issubclass(NonConvergenceError, DomainError)


def test_nan_remainder_bracket_raises_at_once():
    # at q = 1e30 the Euler-Maclaurin rising factorial overflows to inf and meets
    # x**-e = 0, so every bracket is NaN; the routine used to double the cut to 2**26
    start = time.perf_counter()
    with pytest.raises(NonConvergenceError, match="not a number"):
        weighted_tail_series(WeightSequence.monomial(1), PowerLaw(1, 1e30))
    assert time.perf_counter() - start < 1.0
