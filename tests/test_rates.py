import math

import numpy as np
import pytest

from overlapbounds import DomainError
from overlapbounds.applications import cramer_rate, ldp_mdf_bound, sanov_rate
from overlapbounds.applications.rates import legendre_transform


def gaussian_cumulant(lam):
    return 0.5 * lam * lam


def rademacher_cumulant(lam):
    return math.log(math.cosh(lam))


def simplex_grid_search(mu, t, a_lo, a_hi, b_lo, b_hi, step):
    """Brute-force minimum of D(nu||mu) over {nu(0) >= t} on a 3-simplex grid."""
    na = np.arange(max(t, a_lo), min(1.0, a_hi) + step / 2, step)
    nb = np.arange(max(0.0, b_lo), min(1.0, b_hi) + step / 2, step)
    va, vb = np.meshgrid(na, nb, indexing="ij")
    vc = 1.0 - va - vb
    valid = vc >= -1e-12
    kl = np.zeros(va.shape)
    for coord, w in ((va, mu[0]), (vb, mu[1]), (np.clip(vc, 0.0, 1.0), mu[2])):
        kl += np.where(coord > 0, coord * np.log(np.maximum(coord, 1e-300) / w), 0.0)
    kl[~valid] = np.inf
    i, j = np.unravel_index(int(np.argmin(kl)), kl.shape)
    best = np.array([va[i, j], vb[i, j], max(vc[i, j], 0.0)])
    return float(kl[i, j]), best


class TestCramer:
    def test_gaussian(self):
        res = cramer_rate(gaussian_cumulant, 0.0, 1.0)
        assert res.rate == pytest.approx(0.5, abs=1e-8)
        assert res.method == "numeric"

    def test_eps_zero(self):
        assert cramer_rate(gaussian_cumulant, 0.0, 0.0).rate == 0.0

    def test_rademacher_binary_entropy_limit(self):
        res = cramer_rate(rademacher_cumulant, 0.0, 1.0)
        assert res.rate == pytest.approx(math.log(2.0), abs=1e-8)

    def test_transform_matches_closed_form_on_grid(self):
        for x in np.linspace(-3.0, 3.0, 13):
            assert legendre_transform(gaussian_cumulant, float(x)) == pytest.approx(
                0.5 * x * x, abs=1e-8
            )

    def test_asymmetric_mean(self):
        # shifted gaussian: Lambda(lam) = 0.7 lam + lam^2/2, mean 0.7
        fn = lambda lam: 0.7 * lam + 0.5 * lam * lam
        res = cramer_rate(fn, 0.7, 0.5)
        assert res.rate == pytest.approx(0.125, abs=1e-8)
        assert res.argmin in (pytest.approx(1.2), pytest.approx(0.2))

    def test_guards(self):
        with pytest.raises(DomainError):
            cramer_rate(lambda lam: 1.0 + lam * lam, 0.0, 1.0)  # Lambda(0) != 0
        with pytest.raises(DomainError):
            cramer_rate(lambda lam: math.inf if lam > 0.5 else 0.5 * lam * lam, 0.0, 1.0)

    def test_pairs_with_mdf_bound(self):
        res = cramer_rate(gaussian_cumulant, 0.0, 1.0)
        bound = ldp_mdf_bound(res.rate, p=0.1, big_c=1.0)
        assert bound.value > 1.0


class TestSanov:
    def test_bernoulli_closed_form(self):
        res = sanov_rate(np.array([0.5, 0.5]), 0, 0.6)
        expected = 0.6 * math.log(1.2) + 0.4 * math.log(0.8)
        assert res.rate == pytest.approx(expected, abs=1e-12)
        assert res.rate == pytest.approx(0.020136, abs=1e-6)

    def test_constraint_contains_mean(self):
        assert sanov_rate(np.array([0.5, 0.5]), 0, 0.5).rate == 0.0
        assert sanov_rate(np.array([0.5, 0.5]), 0, 0.3).rate == 0.0

    def test_three_letter_tilt(self):
        res = sanov_rate(np.array([1 / 3, 1 / 3, 1 / 3]), 0, 0.5)
        nu = np.array([res.argmin[i] for i in range(3)])
        assert np.allclose(nu, [0.5, 0.25, 0.25], atol=1e-12)
        # D(nu || mu) = 0.5 ln(1.5) + 2 * 0.25 ln(0.75)
        assert res.rate == pytest.approx(0.5 * math.log(1.5) + 0.5 * math.log(0.75), abs=1e-12)

    def test_grid_search_oracle(self):
        # independent dense search over the simplex slice nu(a) >= t,
        # refined around the coarse argmin
        mu = np.array([0.2, 0.5, 0.3])
        t = 0.45
        res = sanov_rate(mu, 0, t)
        coarse_val, coarse_nu = simplex_grid_search(mu, t, t, 1.0, 0.0, 1.0, 0.01)
        fine_val, fine_nu = simplex_grid_search(
            mu, t, coarse_nu[0] - 0.02, coarse_nu[0] + 0.02, coarse_nu[1] - 0.02, coarse_nu[1] + 0.02, 2e-5
        )
        assert res.rate == pytest.approx(fine_val, abs=1e-6)
        tilt_nu = np.array([res.argmin[i] for i in range(3)])
        assert np.max(np.abs(tilt_nu - fine_nu)) <= 1e-4

    def test_degenerate_threshold(self):
        res = sanov_rate(np.array([0.25, 0.75]), 0, 1.0)
        assert res.rate == pytest.approx(-math.log(0.25))

    def test_guards(self):
        with pytest.raises(DomainError):
            sanov_rate(np.array([0.5, 0.5]), 0, 1.2)
        with pytest.raises(DomainError):
            sanov_rate(np.array([0.0, 1.0]), 0, 0.5)
        with pytest.raises(DomainError):
            sanov_rate(np.array([0.5, 0.4]), 0, 0.6)
