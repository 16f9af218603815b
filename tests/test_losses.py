"""The toy's loss terms against independent oracles.

The row forms in ``tests/oracles.py`` (the reference that
``toy.loss_gradient`` is checked against bit for bit in ``test_toy.py``)
are checked here: the expected-Brier loss against Monte-Carlo estimates
of E_{p ~ Dir(alpha)}[sum (y - p)^2] (the quantity it claims to equal in
closed form), and the KL regularizer against both a Monte-Carlo estimate
of the log density ratio and an adaptive-quadrature integral over the
simplex. Those estimates use numpy/scipy machinery only, never the
package's own special functions.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from vacuitylab import softplus_evidence
from vacuitylab.special import log_gamma

from oracles import (
    ExpectedBrier,
    adjusted_alpha,
    dirichlet_state,
    edl_mse_loss,
    ib_info_loss,
    kl_to_uniform,
    kl_to_uniform_grad,
    kl_to_uniform_rows,
)

# KL(Dir(2,2,2) || Dir(1,1,1)) by scipy dblquad over the 2-simplex,
# frozen from a run with epsabs=epsrel=1e-12 (error estimate ~1e-12).
KL_222_QUADRATURE = 0.2443445622221023


def mc_brier(alpha, y, n_samples=100_000, seed=0):
    """Monte-Carlo E_Dir(alpha)[sum_i (y_i - p_i)^2]; returns (mean, stderr)."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(alpha, size=n_samples)
    vals = ((np.asarray(y) - p) ** 2).sum(axis=1)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_samples))


def mc_kl_to_uniform(alpha, n_samples=1_000_000, seed=0):
    """Monte-Carlo E_Dir(alpha)[log Dir(p|alpha) - log Dir(p|1)]."""
    rng = np.random.default_rng(seed)
    a = np.asarray(alpha, dtype=float)
    k = len(a)
    p = rng.dirichlet(a, size=n_samples)
    log_norm = math.lgamma(a.sum()) - sum(math.lgamma(x) for x in a)
    log_ratio = log_norm + ((a - 1.0) * np.log(p)).sum(axis=1) - math.lgamma(k)
    return float(log_ratio.mean()), float(log_ratio.std(ddof=1) / math.sqrt(n_samples))


class TestSoftplusEvidence:
    def test_at_zero(self):
        assert softplus_evidence([0.0])[0] == pytest.approx(math.log(2), rel=1e-12)

    def test_overflow_safe(self):
        assert softplus_evidence([1000.0])[0] == pytest.approx(1000.0, abs=1e-9)
        assert softplus_evidence([-1000.0])[0] == pytest.approx(0.0, abs=1e-9)

    def test_non_negative(self):
        rng = np.random.default_rng(0)
        out = softplus_evidence(rng.normal(0, 10, 1000))
        assert (out >= 0).all()

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            softplus_evidence([0.0, float("nan")])


class TestEdlMseLoss:
    def test_uniform_two_class(self):
        # E_Dir(1,1)[(1-p1)^2 + p2^2] = 2/3
        loss = edl_mse_loss(dirichlet_state([1, 1]), [1, 0])
        assert loss == pytest.approx(2 / 3, rel=1e-12)
        mc, se = mc_brier([1, 1], [1, 0])
        assert abs(loss - mc) < 3 * se

    def test_three_one(self):
        loss = edl_mse_loss(dirichlet_state([3, 1]), [1, 0])
        assert loss == pytest.approx(0.2, rel=1e-12)
        mc, se = mc_brier([3, 1], [1, 0])
        assert abs(loss - mc) < 3 * se

    def test_concentrated_limit(self):
        assert edl_mse_loss(dirichlet_state([1e6, 1]), [1, 0]) < 1e-5

    def test_matches_monte_carlo_randomized(self):
        rng = np.random.default_rng(2024)
        for trial in range(10):
            k = int(rng.integers(2, 9))
            alpha = rng.uniform(1.0, 50.0, k)
            y = np.eye(k)[int(rng.integers(k))]
            loss = edl_mse_loss(dirichlet_state(alpha), y)
            mc, se = mc_brier(alpha, y, seed=trial)
            assert abs(loss - mc) < 3 * se

    def test_per_class_variant_differs(self):
        """The per-class denominator does NOT equal the Dirichlet expectation."""
        state = dirichlet_state([3, 1])
        default = edl_mse_loss(state, [1, 0])
        alpha, y, s = np.array([3.0, 1.0]), np.array([1.0, 0.0]), 4.0
        variant = ((y - alpha / s) ** 2).sum() + (alpha * (s - alpha) / (s * s * (alpha + 1.0))).sum()
        assert variant != pytest.approx(default, rel=1e-6)
        mc, se = mc_brier([3, 1], [1, 0], n_samples=400_000)
        assert abs(default - mc) < 3 * se
        assert abs(variant - mc) > 10 * se

    def test_not_one_hot_rejected(self):
        state = dirichlet_state([1, 1])
        for bad in ([1, 1], [0, 0], [0.5, 0.5]):
            with pytest.raises(ValueError, match="one-hot"):
                edl_mse_loss(state, bad)


class TestAdjustedAlpha:
    def test_removes_true_class_evidence(self):
        out = adjusted_alpha(dirichlet_state([5, 3, 2]), [0, 1, 0])
        assert out.alpha.tolist() == [5, 1, 2]

    def test_uniform_fixed_point(self):
        out = adjusted_alpha(dirichlet_state([1, 1, 1]), [1, 0, 0])
        assert out.alpha.tolist() == [1, 1, 1]

    def test_kl_zero_when_only_true_evidence(self):
        out = adjusted_alpha(dirichlet_state([9, 1]), [1, 0])
        assert out.alpha.tolist() == [1, 1]
        assert kl_to_uniform(out) == 0.0


class TestKlToUniform:
    def test_identical_distributions(self):
        assert kl_to_uniform(dirichlet_state([1, 1, 1])) == 0.0

    def test_two_one_closed_form(self):
        assert kl_to_uniform(dirichlet_state([2, 1])) == pytest.approx(
            math.log(2) - 0.5, abs=1e-9
        )

    def test_two_one_matches_monte_carlo(self):
        value = kl_to_uniform(dirichlet_state([2, 1]))
        mc, se = mc_kl_to_uniform([2, 1])
        assert abs(value - mc) < 3 * se

    def test_222_matches_quadrature(self):
        value = kl_to_uniform(dirichlet_state([2, 2, 2]))
        assert value == pytest.approx(KL_222_QUADRATURE, abs=1e-9)

    def test_222_quadrature_oracle_live(self):
        """Recompute the simplex integral here so the frozen value stays honest."""
        a = np.array([2.0, 2.0, 2.0])
        log_norm = math.lgamma(a.sum()) - sum(math.lgamma(x) for x in a)

        def integrand(p2, p1):
            p3 = 1.0 - p1 - p2
            if p3 <= 0.0:
                return 0.0
            log_dens = log_norm + ((a - 1.0) * np.log([p1, p2, p3])).sum()
            return math.exp(log_dens) * (log_dens - math.lgamma(3.0))

        value, err = integrate.dblquad(
            integrand, 0.0, 1.0, lambda p1: 0.0, lambda p1: 1.0 - p1, epsabs=1e-10, epsrel=1e-10
        )
        assert value == pytest.approx(KL_222_QUADRATURE, abs=1e-8)
        assert kl_to_uniform(dirichlet_state([2, 2, 2])) == pytest.approx(value, abs=1e-8)

    def test_non_negative_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            k = int(rng.integers(2, 9))
            alpha = 1.0 + rng.gamma(1.0, 3.0, k)
            value = kl_to_uniform(dirichlet_state(alpha))
            assert value >= 0.0
            if np.max(alpha) > 1.0 + 1e-6:
                assert value > 0.0

    def test_alpha_below_one_rejected(self):
        state = dirichlet_state([1.0, 1.0])
        object.__setattr__(state, "alpha", np.array([0.9, 1.1]))
        with pytest.raises(ValueError):
            kl_to_uniform(state)


class TestIbInfoLoss:
    def test_standard_normal_latent(self):
        assert ib_info_loss([0, 0, 0, 0], [1, 1, 1, 1]) == 2.0

    def test_unit_examples(self):
        assert ib_info_loss([1], [1]) == pytest.approx(1.0, rel=1e-15)
        assert ib_info_loss([0], [math.e]) == pytest.approx((math.e**2 - 2) / 2, rel=1e-12)

    def test_sigma_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            ib_info_loss([0.0], [0.0])
        with pytest.raises(ValueError):
            ib_info_loss([0.0], [-1.0])

    def test_strictly_convex_in_mu(self):
        rng = np.random.default_rng(5)
        sigma = rng.uniform(0.5, 2.0, 6)
        for _ in range(100):
            a = rng.normal(0, 3, 6)
            b = rng.normal(0, 3, 6)
            if np.allclose(a, b):
                continue
            mid = ib_info_loss((a + b) / 2, sigma)
            avg = 0.5 * (ib_info_loss(a, sigma) + ib_info_loss(b, sigma))
            assert mid < avg

    def test_minimized_at_unit_sigma(self):
        """d/d sigma_i = sigma_i - 1/sigma_i vanishes at 1."""
        mu = np.zeros(3)
        at_one = ib_info_loss(mu, np.ones(3))
        rng = np.random.default_rng(6)
        for _ in range(100):
            sigma = rng.uniform(0.2, 3.0, 3)
            assert ib_info_loss(mu, sigma) >= at_one
        h = 1e-7
        grad = (ib_info_loss(mu, [1 + h, 1, 1]) - ib_info_loss(mu, [1 - h, 1, 1])) / (2 * h)
        assert grad == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("k", range(2, 8))
def test_class_major_inputs_give_row_major_bits(k):
    """Below K = 8 numpy sums the K entries of a row left to right in either memory order."""
    rng = np.random.default_rng(k)
    alpha = 1.0 + rng.gamma(0.7, 3.0, (200, k))
    y_onehot = np.eye(k)[rng.integers(0, k, 200)]
    alpha_tilde = y_onehot + (1.0 - y_onehot) * alpha
    f_alpha, f_y, f_tilde = (np.asfortranarray(a) for a in (alpha, y_onehot, alpha_tilde))
    row_major, class_major = ExpectedBrier(alpha, y_onehot), ExpectedBrier(f_alpha, f_y)
    assert row_major.rows().tobytes() == class_major.rows().tobytes()
    assert row_major.grad().tobytes() == class_major.grad().tobytes()
    (kl_c, psi1_c), (kl_f, psi1_f) = (kl_to_uniform_rows(a, log_gamma(float(k))) for a in (alpha_tilde, f_tilde))
    assert kl_c.tobytes() == kl_f.tobytes()
    assert psi1_c.tobytes() == psi1_f.tobytes()
    assert kl_to_uniform_grad(alpha_tilde, psi1_c).tobytes() == kl_to_uniform_grad(f_tilde, psi1_f).tobytes()
