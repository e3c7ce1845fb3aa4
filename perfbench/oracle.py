"""Independent high-precision evaluations of the bound formulas (mpmath, 40 digits).

Used only to check the package's outputs, always outside the timed region.
The power-law weighted tail series sum_{n>=1} n**p C_n with
C_n = c * zeta(q, n) converges too slowly for plain ``mpmath.nsum`` (it
returns wrong digits at p = 1.9, q = 4).  Here the head n < N is summed
exactly, and the tail n >= N is the Euler-Maclaurin expansion of
zeta(q, n) summed term by term in closed form with Hurwitz zeta:

    sum_{n>=N} n**p zeta(q, n) = zeta(q-1-p, N)/(q-1) + zeta(q-p, N)/2
        + sum_k B_2k/(2k)! (q)_(2k-1) zeta(q+2k-1-p, N)

The result is accepted only when two cut-offs N agree.
"""

from __future__ import annotations

from typing import Sequence

import mpmath as mp

mp.mp.dps = 40

CUTOFFS = (200, 800)
EM_TERMS = 8
AGREEMENT = mp.mpf("1e-25")


class OracleError(ArithmeticError):
    """The oracle could not certify its own value."""


def _agree(values: Sequence[mp.mpf]) -> mp.mpf:
    a, b = values
    if abs(a - b) > AGREEMENT * abs(b):
        raise OracleError(f"oracle cut-offs disagree: {a} vs {b}")
    return b


def powerlaw_weighted_tail(c: float, q: float, p: float) -> float:
    """sum_{n>=1} n**p C_n for P(E_n) = c n**-q (requires p < q - 2)."""
    q, p = mp.mpf(q), mp.mpf(p)
    values = []
    for cutoff in CUTOFFS:
        head, hz = mp.mpf(0), mp.zeta(q)  # hz = zeta(q, n), stepped by recurrence
        for n in range(1, cutoff):
            head += mp.mpf(n) ** p * hz
            hz -= mp.mpf(n) ** (-q)
        tail = mp.zeta(q - 1 - p, cutoff) / (q - 1) + mp.zeta(q - p, cutoff) / 2
        for k in range(1, EM_TERMS + 1):
            tail += mp.bernoulli(2 * k) / mp.factorial(2 * k) * mp.rf(q, 2 * k - 1) * mp.zeta(q + 2 * k - 1 - p, cutoff)
        values.append(head + tail)
    return float(mp.mpf(c) * _agree(values))


def powerlaw_weighted_probs(c: float, q: float, p: float) -> float:
    """sum_{n>=1} n**p min(1, c n**-q) (the nested identity, p < q - 1)."""
    q, p, c = mp.mpf(q), mp.mpf(p), mp.mpf(c)
    clamp_end = int(mp.floor(c ** (1 / q)))  # indices with c n**-q >= 1
    total = mp.mpf(0)
    for n in range(1, clamp_end + 1):
        total += mp.mpf(n) ** p * (1 - c * mp.mpf(n) ** (-q))
    return float(total + c * mp.zeta(q - p))


def powerlaw_tail(c: float, q: float, m: int) -> float:
    """C_m = c zeta(q, m)."""
    return float(mp.mpf(c) * mp.zeta(q, m))


def geometric_tail(c: float, b: float, m: int) -> float:
    """C_m = c b**m / (1 - b) for the geometric model (defined from n = 0)."""
    c, b = mp.mpf(c), mp.mpf(b)
    return float(c * b**m / (1 - b))


def geometric_monomial(c: float, b: float, p: float, tails: bool) -> float:
    """sum_{n>=1} n**p C_n (tails) or sum_{n>=1} n**p c b**n, via the polylogarithm."""
    c, b = mp.mpf(c), mp.mpf(b)
    li = mp.polylog(-mp.mpf(p), b)
    return float(c * li / (1 - b) if tails else c * li)


def geometric_exponential(c: float, b: float, p: float, tails: bool) -> float:
    """sum_{n>=0} e**(pn) C_n (tails) or 1 + sum_{n>=1} e**(pn) c b**n."""
    c, b = mp.mpf(c), mp.mpf(b)
    x = mp.exp(p) * b
    return float(c / ((1 - b) * (1 - x)) if tails else 1 + c * x / (1 - x))


def explicit_weighted(probs: Sequence[float], weight, start: int, tails: bool) -> float:
    """Finite sums over an explicit family: sum a_n C_max(n,1) or a_0 + sum a_n p_n."""
    ps = [mp.mpf(x) for x in probs]
    if tails:
        return float(sum(weight(n) * sum(ps[max(n, 1) - 1 :]) for n in range(start, len(ps) + 1)))
    base = weight(0) if start == 0 else 0
    return float(base + sum(weight(n) * ps[n - 1] for n in range(1, len(ps) + 1)))


def mp_weight(kind: str, p: float):
    p = mp.mpf(p)
    if kind == "monomial":
        return lambda n: mp.mpf(n) ** p
    return lambda n: mp.exp(p * n)


def zeta(s: float) -> float:
    return float(mp.zeta(s))


# closed-form formulas --------------------------------------------------------


def second_moment(c1: float) -> float:
    c1 = mp.mpf(c1)
    return float(c1 * (1 + c1))


def freedman_exp(r: float, c1: float) -> float:
    return float(mp.exp(mp.mpf(c1) * mp.expm1(r)))


def improved_exp(r: float, c1: float) -> float:
    return float(1 / (1 - mp.mpf(c1) * mp.exp(r)))


def freedman_tail(k: int, c1: float) -> float:
    if k <= c1:
        return 1.0
    k, c1 = mp.mpf(k), mp.mpf(c1)
    return float(mp.exp(-k * mp.log(k) + k * (mp.log(c1) + 1) - c1))


def powerlaw_tail_bound(k: int, c: float, p: float) -> float:
    a = (2 * mp.mpf(c)) ** (1 / mp.mpf(p))
    w = mp.lambertw(mp.e * k / a).real
    return float(2 * mp.exp(-p * k * (w - 1) ** 2 / w))


def geometric_tail_bound(k: int, c: float, b: float) -> float:
    lnb = abs(mp.log(b))
    beta = mp.log(2 * mp.mpf(c)) - k * lnb
    return 2.0 if beta >= 0 else float(2 * mp.exp(-beta * beta / (4 * lnb)))


def ldp_mdf(rate: float, p: float, big_c: float) -> float:
    rate = mp.mpf(rate)
    return float(big_c / ((1 - mp.exp(-rate)) * (1 - mp.exp(-(rate - p)))))


def vc_bound(ell: int, eps: float, growth_p: float) -> float:
    eps = mp.mpf(eps)
    return float(4 * (mp.mpf(2 * ell) ** growth_p + 1) * mp.exp(-eps * eps * ell / 8))


def sde_mdf(kt: float, ct: float, t: float, eps: float) -> float:
    return float(mp.mpf(kt) * (mp.mpf(ct) * t) ** mp.mpf(1.5) / eps * mp.zeta(1.5))


def rate_aware(r: float, tail_kind: str, c: float, x: float) -> float:
    """inf over delta > 1 of delta/(delta-1) exp(r L^-1(e^-r / delta)), delta <= e**50.

    With u = ln(delta) the log-objective is convex in u; its derivative
    -1/(delta - 1) + r d/du L^-1(e^-r / delta) is increasing, so bisection
    on its sign finds the minimiser.
    """
    r, c, x = mp.mpf(r), mp.mpf(c), mp.mpf(x)

    def log_obj(u):
        delta = mp.exp(u)
        s = mp.exp(-r) / delta
        inv = (c / s) ** (1 / x) if tail_kind == "power" else mp.log(s / c) / mp.log(x)
        return mp.log(delta / (delta - 1)) + r * inv

    def slope(u):
        delta = mp.exp(u)
        if tail_kind == "power":
            grow = r / x * (c * mp.exp(r) * delta) ** (1 / x)
        else:
            grow = r / abs(mp.log(x))
        return -1 / (delta - 1) + grow

    lo, hi = mp.mpf("1e-9"), mp.mpf(50)
    if slope(hi) <= 0:
        return float(mp.exp(log_obj(hi)))
    for _ in range(200):
        mid = (lo + hi) / 2
        if slope(mid) > 0:
            hi = mid
        else:
            lo = mid
    return float(mp.exp(log_obj((lo + hi) / 2)))


def independent_exp_moment(probs: Sequence[float], r: float) -> float:
    """E[e**(rO)] of a finite independent family: prod (1 - p + p e**r)."""
    er = mp.exp(r)
    out = mp.mpf(1)
    for p in probs:
        p = mp.mpf(p)
        out *= 1 - p + p * er
    return float(out)


def binary_kl(t: float, p: float) -> float:
    t, p = mp.mpf(t), mp.mpf(p)
    if t >= 1:
        return float(-mp.log(p))
    return float(t * mp.log(t / p) + (1 - t) * mp.log((1 - t) / (1 - p)))


def binomial_upper_tail(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p), as a regularized incomplete beta."""
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    return float(mp.betainc(k, n - k + 1, 0, min(mp.mpf(p), 1), regularized=True))
