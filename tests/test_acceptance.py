"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Monte-Carlo criteria share module fixtures so the thread-invariance check
compares the exact same runs at 1, 2 and 8 workers.  All seeds are fixed;
every assertion is deterministic.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from overlapbounds import (
    EventFamilySpec,
    Explicit,
    Geometric,
    PowerLaw,
    WeightSequence,
    empirical_moment,
    exp_moment_bound,
    faulhaber_sum,
    freedman_exp_bound,
    freedman_tail_bound,
    improved_exp_bound,
    nested_moment_identity,
    poly_moment_bound,
    simulate_overlap,
    sn_exact_distribution,
)
from overlapbounds.applications import (
    bridge_max_sample,
    cramer_rate,
    gc_simulate,
    lil_simulate,
    sanov_rate,
    slln_partition_bound,
    uniform01,
)
from overlapbounds.bounds import (
    freedman_tail_numeric,
    geometric_tail_bound,
    geometric_tail_numeric,
    powerlaw_tail_asymptotic,
    powerlaw_tail_numeric,
)
from overlapbounds.sde import SdeProblem, strong_error_estimate

SEED = 20240801
THREADS = (1, 2, 8)


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def nested_geometric_runs():
    spec = EventFamilySpec.from_model("nested", Geometric(1, 0.5))
    out, elapsed = {}, None
    for th in THREADS:
        t0 = time.perf_counter()
        out[th] = simulate_overlap(spec, 1_000_000, SEED, threads=th)
        if th == 1:
            elapsed = time.perf_counter() - t0
    return out, elapsed


@pytest.fixture(scope="module")
def moment_bound_runs():
    cases = {
        "powerlaw": (PowerLaw(1, 5), 0.0),
        "geometric": (Geometric(1, 0.5), 0.5),
    }
    out = {}
    for name, (model, exp_rate) in cases.items():
        for family in ("independent", "nested"):
            spec = EventFamilySpec.from_model(family, model, exp_rate=exp_rate)
            for th in THREADS:
                out[(name, family, th)] = simulate_overlap(spec, 1_000_000, SEED, threads=th)
    return out


@pytest.fixture(scope="module")
def gc_runs():
    out = {}
    for th in THREADS:
        out[th] = gc_simulate(
            uniform01, eps=0.2, n_max=2000, reps=10_000, seed=SEED, eta=0.1, threads=th
        )
    return out


@pytest.fixture(scope="module")
def lil_runs():
    out = {}
    for alpha in (1.5, 2.0, 3.0):
        for th in THREADS:
            out[(alpha, th)] = lil_simulate(alpha, n_max=40, reps=1000, seed=SEED, threads=th)
    return out


@pytest.fixture(scope="module")
def sde_runs():
    problem = SdeProblem.geometric_brownian(0.5, 0.1, 1.0, 1.0)
    deltas = [2.0**-k for k in range(4, 10)]
    out, elapsed = {}, None
    for th in THREADS:
        t0 = time.perf_counter()
        out[th] = strong_error_estimate(problem, deltas, reps=10_000, seed=SEED, threads=th)
        if th == 1:
            elapsed = time.perf_counter() - t0
    return out, elapsed


def test_criterion_1_exact_oracle_domination():
    """200 random independent families: exact E[e^(rO)] below both bounds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    violations = 0
    for _ in range(200):
        n = int(rng.integers(1, 21))
        while True:
            probs = rng.uniform(0.0, 0.05, n)
            c1 = float(probs.sum())
            if 0.0 < c1 < 0.999:
                break
        dist = sn_exact_distribution(probs)
        top = abs(math.log(c1))
        for r in np.linspace(top / 11.0, 10.0 * top / 11.0, 10):
            exact = dist.exp_moment(float(r))
            if exact > improved_exp_bound(float(r), c1).value * (1.0 + 1e-12):
                violations += 1
            if exact > freedman_exp_bound(float(r), c1).value * (1.0 + 1e-12):
                violations += 1
    elapsed = time.perf_counter() - t0
    report(1, violations == 0 and elapsed < 5.0, f"violations={violations}, runtime={elapsed:.2f}s")


def test_criterion_2_nested_equality(nested_geometric_runs):
    """Nested geometric family, quadratic partial sums: equality within 4 se."""
    runs, elapsed = nested_geometric_runs
    weights = WeightSequence.monomial(1)
    emp = empirical_moment(runs[1], partial_sum_of=weights)
    ident = nested_moment_identity(weights, Geometric(1, 0.5)).value
    gap = abs(emp.estimate - ident)
    ok = gap <= 4.0 * emp.stderr and elapsed < 10.0
    report(2, ok, f"|{emp.estimate:.5f} - {ident:.5f}| = {gap:.2e} <= 4*{emp.stderr:.2e}, sim {elapsed:.2f}s")


def test_criterion_3_general_bounds(moment_bound_runs):
    """Monte-Carlo moments below the weighted-tail bounds, dependent case included."""
    checks = []
    poly_pl = poly_moment_bound(1.0, PowerLaw(1, 5)).value
    poly_geo = poly_moment_bound(0.5, Geometric(1, 0.5)).value
    exp_geo = exp_moment_bound(0.5, Geometric(1, 0.5)).value
    for family in ("independent", "nested"):
        emp = empirical_moment(moment_bound_runs[("powerlaw", family, 1)], power=2.0)
        checks.append((f"powerlaw E[O^2] {family}", emp.estimate, poly_pl, emp.stderr))
        emp = empirical_moment(moment_bound_runs[("geometric", family, 1)], power=1.5)
        checks.append((f"geometric E[O^1.5] {family}", emp.estimate, poly_geo, emp.stderr))
        emp = empirical_moment(moment_bound_runs[("geometric", family, 1)], exp_rate=0.5)
        checks.append((f"geometric E[e^0.5O] {family}", emp.estimate, exp_geo, emp.stderr))
    bad = [c for c in checks if c[1] > c[2] + 4.0 * c[3]]
    detail = "; ".join(f"{name}: {est:.4f} <= {bound:.4f}" for name, est, bound, _ in checks)
    report(3, not bad, detail)


def test_criterion_4_closed_form_agreement():
    """Optimised and closed forms agree to 1e-8 relative on 20-point grids."""
    worst = 0.0
    for k in range(1, 21):  # k > C1 = 0.5 throughout
        closed = freedman_tail_bound(k, 0.5).value
        _, numeric = freedman_tail_numeric(k, 0.5)
        worst = max(worst, abs(closed - numeric) / closed)
    # grids chosen so no bound underflows double precision (worst ~ e^-340)
    for k, c, p in itertools.islice(
        itertools.product((10, 20, 40, 60, 80), (0.5, 1.0), (1.5, 2.0)), 20
    ):
        closed = powerlaw_tail_asymptotic(k, c, p).value
        _, numeric = powerlaw_tail_numeric(k, c, p)
        assert closed > 0.0
        worst = max(worst, abs(closed - numeric) / closed)
    for k, c, b in itertools.islice(
        itertools.product((2, 4, 8, 16, 32), (0.4, 0.6), (0.3, 0.6)), 20
    ):
        closed = geometric_tail_bound(k, c, b).value
        _, numeric = geometric_tail_numeric(k, c, b)
        assert closed > 0.0
        worst = max(worst, abs(closed - numeric) / closed)
    report(4, worst <= 1e-8, f"worst relative disagreement {worst:.2e}")


def test_criterion_5_faulhaber_exactness():
    """Closed-form power sums match direct summation exhaustively."""
    t0 = time.perf_counter()
    bad = 0
    for p in range(0, 11):
        acc = 0
        assert faulhaber_sum(p, 0) == 0
        for n in range(1, 201):
            acc += n**p
            if faulhaber_sum(p, n) != acc:
                bad += 1
    report(5, bad == 0, f"0 <= p <= 10, 0 <= N <= 200 exact, {time.perf_counter() - t0:.2f}s")


def test_criterion_6_partition_bound_vs_enumeration():
    """Exact Rademacher moments by full sign enumeration stay below the bound."""
    t0 = time.perf_counter()
    ok = True
    for k in range(2, 13):
        histogram = [0] * (k + 1)
        for word in range(1 << k):
            histogram[bin(word).count("1")] += 1
        for q in (1, 2, 3):
            moments = {j: (1.0 if j % 2 == 0 else 0.0) for j in range(2, 2 * q + 1)}
            bound = slln_partition_bound(q, moments, k)
            exact = Fraction(0)
            for ones, count in enumerate(histogram):
                exact += count * Fraction(2 * ones - k) ** (2 * q)
            exact = exact / (1 << k)
            if float(exact) > bound * (1.0 + 1e-12):
                ok = False
            if q == 1 and float(exact) != pytest.approx(bound, rel=1e-12):
                ok = False
    elapsed = time.perf_counter() - t0
    report(6, ok and elapsed < 30.0, f"q in 1..3, k in 2..12, equality at q=1, {elapsed:.2f}s")


def test_criterion_7_rate_functions():
    gauss = cramer_rate(lambda lam: 0.5 * lam * lam, 0.0, 1.0)
    ok1 = abs(gauss.rate - 0.5) <= 1e-8
    bern = sanov_rate(np.array([0.5, 0.5]), 0, 0.6)
    ok2 = abs(bern.rate - 0.020136) <= 1e-6

    mu = np.array([1 / 3, 1 / 3, 1 / 3])
    res = sanov_rate(mu, 0, 0.5)
    tilt = np.array([res.argmin[i] for i in range(3)])

    def grid_best(lo, hi, step):
        # kl_divergence over each row of nb values at once: terms with nu = 0
        # drop out, and the first minimum wins as in a point-by-point scan
        best = (math.inf, None)
        for na in np.arange(max(0.5, lo), min(1.0, hi) + step / 2, step):
            rest = 1.0 - na
            nb = np.arange(0.0, rest + step / 2, step)
            nu = np.clip(np.stack([np.full_like(nb, na), nb, rest - nb], axis=1), 0.0, 1.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = np.sum(np.where(nu > 0, nu * np.log(nu / mu), 0.0), axis=1)
            i = int(np.argmin(vals))
            if vals[i] < best[0]:
                best = (vals[i], np.array([na, nb[i], rest - nb[i]]))
        return best

    _, coarse = grid_best(0.5, 1.0, 0.01)
    _, fine = grid_best(coarse[0] - 0.02, coarse[0] + 0.02, 2e-5)
    ok3 = float(np.max(np.abs(tilt - fine))) <= 1e-4
    report(
        7,
        ok1 and ok2 and ok3,
        f"gauss rate {gauss.rate:.10f}, bernoulli rate {bern.rate:.8f}, tilt-vs-grid "
        f"{float(np.max(np.abs(tilt - fine))):.2e}",
    )


def test_criterion_8_glivenko_cantelli(gc_runs):
    """Per-n exceedance under the cell Hoeffding bound; geometric tail decay."""
    rep = gc_runs[1]
    cell_ok = all(cp["empirical"] <= cp["cell_hoeffding"] + 1e-12 for cp in rep.extra["checkpoints"])
    tails = [rep.extra["tail_counts"][k] for k in range(1, 7)]
    ratios = [tails[k + 1] / tails[k] for k in range(5) if tails[k] > 0]
    ratio_ok = len(ratios) == 5 and all(r <= 0.9 for r in ratios)
    report(
        8,
        cell_ok and ratio_ok,
        f"checkpoints ok={cell_ok}; tail ratios {[round(r, 3) for r in ratios]} (count from "
        f"n={rep.extra['count_from']})",
    )


def test_criterion_9_lil(lil_runs):
    rng = np.random.default_rng(SEED)
    n = 100_000
    a, b, dt, m = 0.0, 0.5, 1.0, 1.0
    sup = bridge_max_sample(rng.random(n), np.full(n, a), np.full(n, b), dt)
    phat = float(np.mean(sup >= m))
    target = math.exp(-2.0 * (m - a) * (m - b) / dt)
    se = math.sqrt(target * (1.0 - target) / n)
    bridge_ok = abs(phat - target) <= 4.0 * se

    means = [lil_runs[(alpha, 1)].rows[0].empirical for alpha in (1.5, 2.0, 3.0)]
    lil_ok = all(math.isfinite(v) for v in means) and means[0] >= means[1] >= means[2]
    report(9, bridge_ok and lil_ok, f"bridge |{phat:.4f}-{target:.4f}|<=4se; E[O_alpha]={means}")


def test_criterion_10_sde_strong_order(sde_runs):
    runs, elapsed = sde_runs
    slope = runs[1].slope
    ok = 1.3 <= slope <= 1.7 and elapsed < 180.0
    report(10, ok, f"slope {slope:.3f} (se {runs[1].slope_stderr:.3f}), sim {elapsed:.1f}s")


def test_criterion_11_thread_reproducibility(
    nested_geometric_runs, moment_bound_runs, gc_runs, lil_runs, sde_runs
):
    """Every Monte-Carlo criterion run is bitwise identical at 1, 2, 8 workers."""
    ok = True
    runs, _ = nested_geometric_runs
    for th in THREADS[1:]:
        ok &= bool(np.array_equal(runs[1].counts, runs[th].counts))
    for (name, family, th), sample in moment_bound_runs.items():
        if th != 1:
            ok &= bool(np.array_equal(sample.counts, moment_bound_runs[(name, family, 1)].counts))
    for th in THREADS[1:]:
        ok &= gc_runs[th].rows == gc_runs[1].rows and gc_runs[th].extra == gc_runs[1].extra
        for alpha in (1.5, 2.0, 3.0):
            ok &= lil_runs[(alpha, th)].rows == lil_runs[(alpha, 1)].rows
        sweeps, _ = sde_runs
        ok &= bool(np.array_equal(sweeps[th].mean_errors, sweeps[1].mean_errors))
        ok &= sweeps[th].slope == sweeps[1].slope
    report(11, ok, "criteria 2, 3, 8, 9, 10 bitwise identical at 1/2/8 workers")
