"""Evidential training objectives.

The classification loss is the expected Brier score under the predicted
Dirichlet,

    L = sum_i (y_i - alpha_i/S)^2 + sum_i alpha_i (S - alpha_i) / (S^2 (S + 1)),

which equals E_{p ~ Dir(alpha)}[ sum_i (y_i - p_i)^2 ] exactly. A variant
with per-class variance denominators S^2 (alpha_i + 1) circulates in the
literature; it does not satisfy that identity and is available behind
``variance_denominator="per_class"`` for comparison only.

The misleading-evidence regularizer is KL(Dir(alpha_tilde) || Dir(1)) where
alpha_tilde keeps all wrong-class concentrations and resets the true class
to 1. The information-bottleneck penalty is the proportional form
0.5 (||mu||^2 + ||sigma||^2 - 2 sum log sigma_i); it differs from the exact
Gaussian KL to a standard normal by the constant -C/2.
"""

from __future__ import annotations

import numpy as np

from .dirichlet import DirichletState, dirichlet_state
from .special import digamma_trigamma, log_gamma


def softplus_evidence(logits) -> np.ndarray:
    """Overflow-safe softplus: log(1 + exp(x)) as non-negative evidence."""
    arr = np.asarray(logits, dtype=float)
    if np.isnan(arr).any():
        raise ValueError("logits must not contain NaN")
    return np.logaddexp(0.0, arr)


def _validate_one_hot(y, k: int) -> np.ndarray:
    arr = np.asarray(y, dtype=float)
    if arr.shape != (k,):
        raise ValueError(f"y must have length {k}, got shape {arr.shape}")
    if not np.isin(arr, (0.0, 1.0)).all() or arr.sum() != 1.0:
        raise ValueError(f"y must be one-hot, got {arr}")
    return arr


def expected_brier(alpha, y_onehot, variance_denominator: str = "total") -> np.ndarray:
    """Per-row expected Brier score for (n, K) concentrations and one-hot targets.

    ``variance_denominator="total"`` (default) uses S^2 (S + 1) and equals
    the Dirichlet expectation exactly; ``"per_class"`` uses the
    S^2 (alpha_i + 1) variant for side-by-side comparison.
    """
    s = alpha.sum(axis=1, keepdims=True)
    p = alpha / s
    squared = ((y_onehot - p) ** 2).sum(axis=1)
    if variance_denominator == "total":
        variance = (alpha * (s - alpha)).sum(axis=1) / (s[:, 0] ** 2 * (s[:, 0] + 1.0))
    elif variance_denominator == "per_class":
        variance = (alpha * (s - alpha) / (s * s * (alpha + 1.0))).sum(axis=1)
    else:
        raise ValueError(
            f"variance_denominator must be 'total' or 'per_class', got {variance_denominator!r}"
        )
    return squared + variance


def expected_brier_grad(alpha, y_onehot) -> np.ndarray:
    """d/d alpha of the (total-denominator) expected Brier score, per row."""
    s = alpha.sum(axis=1, keepdims=True)
    p = alpha / s
    q = (alpha**2).sum(axis=1, keepdims=True)
    denom = s**2 * (s + 1.0)
    g_squared = (2.0 / s) * ((p - y_onehot) - ((p - y_onehot) * p).sum(axis=1, keepdims=True))
    g_variance = ((2.0 * s - 2.0 * alpha) * denom - (s**2 - q) * (3.0 * s**2 + 2.0 * s)) / denom**2
    return g_squared + g_variance


def edl_mse_loss(alpha: DirichletState, y, variance_denominator: str = "total") -> float:
    """Expected Brier score under Dir(alpha) for a one-hot target (see ``expected_brier``)."""
    a = np.asarray(alpha.alpha, dtype=float)
    target = _validate_one_hot(y, alpha.k)
    return float(expected_brier(a[None, :], target[None, :], variance_denominator)[0])


def adjusted_alpha(alpha: DirichletState, y) -> DirichletState:
    """Remove correct-class evidence before regularization.

    alpha_tilde = y + (1 - y) * alpha: the true class drops to concentration
    1, wrong classes keep theirs.
    """
    target = _validate_one_hot(y, alpha.k)
    a = np.asarray(alpha.alpha, dtype=float)
    return dirichlet_state(target + (1.0 - target) * a)


def kl_to_uniform_rows(alpha_tilde, log_gamma_k: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-row KL(Dir(alpha_tilde) || Dir(1)) for (n, K) rows, and psi' of [alpha_tilde | S].

    Closed form, with S = sum a and ``log_gamma_k`` = log G(K):
        log G(S) - log G(K) - sum log G(a_i) + sum (a_i - 1) (psi(a_i) - psi(S))
    The special functions run once over the stacked (n, K+1) array; the
    returned psi' values feed ``kl_to_uniform_grad``.
    """
    k = alpha_tilde.shape[1]
    stacked = np.concatenate([alpha_tilde, alpha_tilde.sum(axis=1, keepdims=True)], axis=1)
    lg = log_gamma(stacked)
    psi, psi1 = digamma_trigamma(stacked)
    digamma_term = ((alpha_tilde - 1.0) * (psi[:, :k] - psi[:, k:])).sum(axis=1)
    return lg[:, k] - log_gamma_k - lg[:, :k].sum(axis=1) + digamma_term, psi1


def kl_to_uniform_grad(alpha_tilde, psi1) -> np.ndarray:
    """d/d alpha_tilde of the per-row KL, from the psi' that ``kl_to_uniform_rows`` returned."""
    k = alpha_tilde.shape[1]
    totals = alpha_tilde.sum(axis=1, keepdims=True)
    return (alpha_tilde - 1.0) * psi1[:, :k] - (totals - k) * psi1[:, k:]


def kl_to_uniform(alpha_tilde: DirichletState) -> float:
    """KL divergence from Dir(alpha_tilde) to the uniform Dirichlet Dir(1).

    Non-negative, zero iff alpha_tilde is all ones (see ``kl_to_uniform_rows``).
    """
    a = np.asarray(alpha_tilde.alpha, dtype=float)
    if (a < 1.0).any():
        raise ValueError("kl_to_uniform requires every alpha_tilde_i >= 1")
    if (a == 1.0).all():
        return 0.0
    rows, _ = kl_to_uniform_rows(a[None, :], log_gamma(float(alpha_tilde.k)))
    return max(float(rows[0]), 0.0)


def ib_info_rows(mu, sigma) -> np.ndarray:
    """Per-row penalty 0.5 (||mu||^2 + ||sigma||^2 - 2 sum log sigma) for (n, C) rows."""
    return 0.5 * ((mu**2).sum(axis=1) + (sigma**2).sum(axis=1) - 2.0 * np.log(sigma).sum(axis=1))


def ib_info_loss(mu, sigma) -> float:
    """Information-bottleneck penalty for one latent (see ``ib_info_rows``)."""
    m = np.asarray(mu, dtype=float)
    s = np.asarray(sigma, dtype=float)
    if m.shape != s.shape or m.ndim != 1:
        raise ValueError("mu and sigma must be equal-length vectors")
    if np.isnan(s).any() or (s <= 0).any():
        raise ValueError("every sigma_i must be > 0")
    return float(ib_info_rows(m[None, :], s[None, :])[0])
