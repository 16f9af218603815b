"""Evidential training objectives.

The classification loss is the expected Brier score under the predicted
Dirichlet,

    L = sum_i (y_i - alpha_i/S)^2 + sum_i alpha_i (S - alpha_i) / (S^2 (S + 1)),

which equals E_{p ~ Dir(alpha)}[ sum_i (y_i - p_i)^2 ] exactly. (A variant
with per-class variance denominators S^2 (alpha_i + 1) circulates in the
literature; it does not satisfy that identity.)

The misleading-evidence regularizer is KL(Dir(alpha_tilde) || Dir(1)) where
alpha_tilde keeps all wrong-class concentrations and resets the true class
to 1. The information-bottleneck penalty is the proportional form
0.5 (||mu||^2 + ||sigma||^2 - 2 sum log sigma_i); it differs from the exact
Gaussian KL to a standard normal by the constant -C/2.
"""

from __future__ import annotations

import numpy as np

from .special import gamma_family


def softplus_evidence(logits) -> np.ndarray:
    """Overflow-safe softplus: log(1 + exp(x)) as non-negative evidence."""
    arr = np.asarray(logits, dtype=float)
    if np.isnan(arr).any():
        raise ValueError("logits must not contain NaN")
    return np.logaddexp(0.0, arr)


class ExpectedBrier:
    """Expected Brier score of (n, K) concentrations against one-hot targets.

    S and alpha/S are computed once and shared by the per-row score and its
    gradient, so a training step can check the score before it asks for
    the gradient.
    """

    def __init__(self, alpha, y_onehot):
        self.alpha = alpha
        self.y_onehot = y_onehot
        self.s = alpha.sum(axis=1, keepdims=True)
        self.p = alpha / self.s

    def rows(self) -> np.ndarray:
        """Per-row expected Brier score."""
        alpha, s = self.alpha, self.s
        squared = ((self.y_onehot - self.p) ** 2).sum(axis=1)
        variance = (alpha * (s - alpha)).sum(axis=1) / (s[:, 0] ** 2 * (s[:, 0] + 1.0))
        return squared + variance

    def grad(self) -> np.ndarray:
        """d/d alpha of the expected Brier score, per row."""
        alpha, s, p = self.alpha, self.s, self.p
        q = (alpha**2).sum(axis=1, keepdims=True)
        denom = s**2 * (s + 1.0)
        error = p - self.y_onehot
        g_squared = (2.0 / s) * (error - (error * p).sum(axis=1, keepdims=True))
        g_variance = ((2.0 * s - 2.0 * alpha) * denom - (s**2 - q) * (3.0 * s**2 + 2.0 * s)) / denom**2
        return g_squared + g_variance


def kl_to_uniform_rows(alpha_tilde, log_gamma_k: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-row KL(Dir(alpha_tilde) || Dir(1)) for (n, K) rows, and psi' of [alpha_tilde | S].

    Closed form, with S = sum a and ``log_gamma_k`` = log G(K):
        log G(S) - log G(K) - sum log G(a_i) + sum (a_i - 1) (psi(a_i) - psi(S))
    ``gamma_family`` runs once over the stacked (n, K+1) array; the
    returned psi' values feed ``kl_to_uniform_grad``.
    """
    n, k = alpha_tilde.shape
    # class-major, like the toy's arrays, so the sums over classes below are vector adds
    stacked = np.empty((n, k + 1), order="F")
    stacked[:, :k] = alpha_tilde
    stacked[:, k] = alpha_tilde.sum(axis=1)
    lg, psi, psi1 = gamma_family(stacked)
    digamma_term = ((alpha_tilde - 1.0) * (psi[:, :k] - psi[:, k:])).sum(axis=1)
    return lg[:, k] - log_gamma_k - lg[:, :k].sum(axis=1) + digamma_term, psi1


def kl_to_uniform_grad(alpha_tilde, psi1) -> np.ndarray:
    """d/d alpha_tilde of the per-row KL, from the psi' that ``kl_to_uniform_rows`` returned."""
    k = alpha_tilde.shape[1]
    totals = alpha_tilde.sum(axis=1, keepdims=True)
    return (alpha_tilde - 1.0) * psi1[:, :k] - (totals - k) * psi1[:, k:]


def ib_info_rows(mu, sigma) -> np.ndarray:
    """Per-row penalty 0.5 (||mu||^2 + ||sigma||^2 - 2 sum log sigma) for (n, C) rows."""
    return 0.5 * ((mu**2).sum(axis=1) + (sigma**2).sum(axis=1) - 2.0 * np.log(sigma).sum(axis=1))
