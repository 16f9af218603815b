"""Evidential training objectives, evaluated in place.

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

Each term is the mean over a batch of (n, K) rows, computed, and followed
by its gradient, in one pass over a ``LossArrays`` allocated once per
batch. Its per-class arrays are class-major (Fortran order), and every
elementwise op keeps that order, so a sum over classes is K - 1 vector
adds instead of n short reductions. For K < 8 numpy adds the K entries of
a row left to right in either order, and each op is the one of the
row-major formula, operands swapped at most, so the bits are those of
row-major arrays; for K >= 8 a row-major row sum is pairwise and the last
bits may differ. Batch means are ``np.add.reduce(...) / n``, the bits of
``.mean()``.
"""

from __future__ import annotations

import numpy as np

from .special import gamma_family


class LossArrays:
    """The work arrays of a batch's forward pass, loss terms and logit gradient.

    ``mu``, ``sigma_raw``, ``z``, ``p``, ``error``, ``am1``, ``t`` and ``u``
    are class-major (n, K), ``grad`` is a head's row-major (n, K) gradient,
    ``stacked`` is the class-major (n, K+1) ``[alpha_tilde | S]`` that
    ``gamma_family`` reads (views ``alpha_tilde``, ``total``), and ``s`` to
    ``c2`` are (n, 1) columns. ``t``, ``u``, ``rows``, ``c1`` and ``c2`` are
    scratch, free whenever a function returns; the rest carry values forward.
    """

    def __init__(self, n: int, k: int):
        self.mu, self.sigma_raw, self.z = (np.empty((n, k), order="F") for _ in range(3))
        self.grad = np.empty((n, k))
        self.p, self.error, self.am1, self.t, self.u = (np.empty((n, k), order="F") for _ in range(5))
        self.stacked = np.empty((n, k + 1), order="F")
        self.alpha_tilde, self.total = self.stacked[:, :k], self.stacked[:, k:]
        self.psi1 = None
        self.s, self.s2, self.denom, self.rows, self.c1, self.c2 = (np.empty((n, 1)) for _ in range(6))


def _mean(rows: np.ndarray) -> float:
    return float(np.add.reduce(rows, axis=None)) / len(rows)


def expected_brier(alpha, y_onehot, w: LossArrays) -> float:
    """Mean expected Brier score; leaves S, S^2, S^2 (S + 1), p and p - y in ``w`` for the gradient."""
    s, s2, denom, rows, c1, t = w.s, w.s2, w.denom, w.rows, w.c1, w.t
    np.add.reduce(alpha, axis=1, keepdims=True, out=s)
    np.multiply(s, s, out=s2)
    np.add(s, 1.0, out=denom)
    denom *= s2
    np.divide(alpha, s, out=w.p)
    error = np.subtract(w.p, y_onehot, out=w.error)
    np.add.reduce(np.multiply(error, error, out=t), axis=1, keepdims=True, out=rows)
    np.subtract(s, alpha, out=t)
    t *= alpha
    np.add.reduce(t, axis=1, keepdims=True, out=c1)
    c1 /= denom
    rows += c1
    return _mean(rows)


def expected_brier_grad(alpha, w: LossArrays) -> np.ndarray:
    """d/d alpha of each row's Brier score, after ``expected_brier``; written over ``w.error``.

    (2 / S) (e - sum e p) with e = p - y, plus
    ((2 S - 2 alpha) S^2 (S + 1) - (S^2 - sum alpha^2) (3 S^2 + 2 S)) / (S^2 (S + 1))^2.
    """
    s, s2, denom, rows, c1, c2, t = w.s, w.s2, w.denom, w.rows, w.c1, w.c2, w.t
    d_alpha = w.error
    np.add.reduce(np.multiply(d_alpha, w.p, out=t), axis=1, keepdims=True, out=c1)
    d_alpha -= c1
    np.divide(2.0, s, out=c1)
    d_alpha *= c1
    np.multiply(alpha, 2.0, out=t)
    np.multiply(s, 2.0, out=c1)
    np.subtract(c1, t, out=t)
    t *= denom
    np.add.reduce(np.multiply(alpha, alpha, out=w.u), axis=1, keepdims=True, out=c1)
    np.subtract(s2, c1, out=c1)
    np.multiply(s2, 3.0, out=c2)
    np.multiply(s, 2.0, out=rows)
    c2 += rows
    c1 *= c2
    t -= c1
    np.multiply(denom, denom, out=c1)
    t /= c1
    d_alpha += t
    return d_alpha


def kl_to_uniform(alpha, y_onehot, not_y, log_gamma_k: float, w: LossArrays) -> float:
    """Mean KL(Dir(alpha_tilde) || Dir(1)) with alpha_tilde = y + (1 - y) alpha.

    Closed form, with S = sum a and ``log_gamma_k`` = log G(K):
        log G(S) - log G(K) - sum log G(a_i) + sum (a_i - 1) (psi(a_i) - psi(S))
    ``gamma_family`` runs once over ``[alpha_tilde | S]``; alpha_tilde - 1,
    S and psi' stay in ``w`` for ``add_kl_to_uniform_grad``.
    """
    k = alpha.shape[1]
    alpha_tilde, rows, c1, c2, t = w.alpha_tilde, w.rows, w.c1, w.c2, w.t
    np.multiply(not_y, alpha, out=alpha_tilde)
    alpha_tilde += y_onehot
    np.add.reduce(alpha_tilde, axis=1, keepdims=True, out=w.total)
    lg, psi, w.psi1 = gamma_family(w.stacked)
    np.subtract(alpha_tilde, 1.0, out=w.am1)
    np.subtract(psi[:, :k], psi[:, k:], out=t)
    t *= w.am1
    np.add.reduce(t, axis=1, keepdims=True, out=c1)
    np.add.reduce(lg[:, :k], axis=1, keepdims=True, out=c2)
    np.subtract(lg[:, k:], log_gamma_k, out=rows)
    rows -= c2
    rows += c1
    return _mean(rows)


def add_kl_to_uniform_grad(d_alpha, not_y, lam: float, w: LossArrays) -> None:
    """Add lam times d KL / d alpha, after ``kl_to_uniform``, to ``d_alpha``.

    d KL / d alpha_tilde = (alpha_tilde - 1) psi'(alpha_tilde) - (S - K) psi'(S),
    zero for the true class, whose alpha_tilde does not depend on alpha.
    """
    k = d_alpha.shape[1]
    psi1, c1, t = w.psi1, w.c1, w.t
    np.multiply(w.am1, psi1[:, :k], out=t)
    np.subtract(w.total, k, out=c1)
    c1 *= psi1[:, k:]
    t -= c1
    t *= not_y
    t *= lam
    d_alpha += t


def ib_info(mu, sigma, w: LossArrays) -> float:
    """Mean penalty 0.5 (||mu||^2 + ||sigma||^2 - 2 sum log sigma) of (n, C) rows."""
    rows, c1, t = w.rows, w.c1, w.t
    np.add.reduce(np.multiply(mu, mu, out=t), axis=1, keepdims=True, out=rows)
    np.add.reduce(np.multiply(sigma, sigma, out=t), axis=1, keepdims=True, out=c1)
    rows += c1
    np.add.reduce(np.log(sigma, out=t), axis=1, keepdims=True, out=c1)
    c1 *= 2.0
    rows -= c1
    rows *= 0.5
    return _mean(rows)
