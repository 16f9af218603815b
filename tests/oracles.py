"""Deliberately naive oracles: the per-record calculus and the rank metrics.

The library works on ``RecordBatch`` columns and (n, K) arrays; the tests
check it against these one-record-at-a-time forms.

- ``DirichletState`` and the functions of one state (``vacuity``,
  ``max_probability``, ``normalized_entropy``, ``invariance_concentration``
  and the rest) score one record from its evidence.
- ``ExpectedBrier``, ``kl_to_uniform_rows`` with ``kl_to_uniform_grad``,
  and ``ib_info_rows`` are the loss terms and their gradients as
  functions of (n, K) rows, each making new arrays; ``edl_mse_loss``,
  ``adjusted_alpha``, ``kl_to_uniform`` and ``ib_info_loss`` call them on
  a batch of one. ``row_major_step`` is the toy's loss and gradient step
  built from them on row-major arrays: a bit-for-bit reference for
  ``toy.loss_gradient`` (which runs ``vacuitylab.losses``'s in-place
  class-major forms) below K = 8, where numpy adds the K entries of a row
  left to right in either memory order, and a 1e-12 one from K = 8 on.
- ``digamma_trigamma_masked`` shifts every entry below the cutoff one
  step at a time with a masked ``np.where``, repeated while any entry is
  below it; it is an accuracy reference for ``special.gamma_family``'s
  fixed ten-step shift (within 1e-13 relative), not a byte-for-byte one.
- ``records_of`` rebuilds one ``EvidenceRecord`` per batch row.
- ``parse_records_per_line`` reads a valid record file with one
  ``json.loads`` per line into the columns ``parse_records`` builds.
- ``auroc_bruteforce`` compares every positive with every negative
  (O(n^2)); ``aupr_reference`` recounts true and false positives at every
  threshold. Both take a list of ``vacuitylab.metrics.ScoredSample``.
- ``auroc_argsort`` and ``aupr_argsort`` are the rank metrics as they were
  before they shared one sort: each runs its own ``argsort`` (AUPR on
  ``-scores``). They are a bit-for-bit reference for the shared sort.
- ``gamma_population_auroc`` is the population AUROC of an OOD-only
  vacuity sweep of ``simulate``'s Gamma population, one integral by scipy:
  the law each drawn sweep row estimates.
"""

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import integrate, stats

from vacuitylab.dirichlet import EvidenceRecord
from vacuitylab.metrics import ScoredSample
from vacuitylab.records import Group, RecordBatch, softplus_evidence
from vacuitylab.special import gamma_family, log_gamma
from vacuitylab.synthetic import PopulationParams
from vacuitylab.toy import LossBreakdown, ToyModelGrads, TrainingMode


@dataclass(frozen=True)
class DirichletState:
    """Dirichlet concentration vector with its derived strength and K."""

    alpha: np.ndarray
    strength: float
    k: int

    def __post_init__(self) -> None:
        if self.alpha.ndim != 1 or self.k != len(self.alpha):
            raise ValueError("alpha must be 1-D with k entries")
        if (self.alpha < 1.0).any():
            raise ValueError("every alpha_i must be >= 1 (evidence is non-negative)")
        total = float(self.alpha.sum())
        if abs(total - self.strength) > 1e-12 * max(1.0, abs(total)):
            raise ValueError(f"strength {self.strength} != sum(alpha) {total}")


def dirichlet_state(alpha) -> DirichletState:
    """Build a validated DirichletState from a concentration vector."""
    arr = np.array(alpha, dtype=float)
    arr.setflags(write=False)
    return DirichletState(alpha=arr, strength=float(arr.sum()), k=len(arr))


@dataclass(frozen=True)
class UncertaintyScores:
    """All per-record uncertainty quantities used for OOD scoring."""

    vacuity: float
    max_probability: float
    normalized_entropy: float


def evidence_to_alpha(record: EvidenceRecord) -> DirichletState:
    """Map per-class evidence to Dirichlet concentrations: alpha_i = e_i + 1."""
    evidence = np.asarray(record.evidence, dtype=float)
    return dirichlet_state(evidence + 1.0)


def expected_probabilities(state: DirichletState) -> np.ndarray:
    """Expected class probabilities p_i = alpha_i / S."""
    return np.asarray(state.alpha) / state.strength


def vacuity(state: DirichletState) -> float:
    """Uncertainty mass u = K / S; 1 exactly when all evidence is zero."""
    return state.k / state.strength


def max_probability(state: DirichletState) -> float:
    """Largest expected class probability max_i alpha_i / S."""
    return float(np.max(state.alpha)) / state.strength


def normalized_entropy(probs) -> float:
    """Shannon entropy in bits divided by log2(K), in [0, 1].

    Requires a probability vector (non-negative, sums to 1 within 1e-9);
    0 * log 0 is treated as 0.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or len(p) < 2:
        raise ValueError("probs must be a 1-D vector with at least 2 entries")
    if np.isnan(p).any() or (p < 0).any():
        raise ValueError("probs must be non-negative")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probs must sum to 1 within 1e-9, got {total!r}")
    nonzero = p[p > 0]
    h_bits = float(-(nonzero * np.log2(nonzero)).sum())
    return min(max(h_bits / math.log2(len(p)), 0.0), 1.0)


def uncertainty_scores(state: DirichletState) -> UncertaintyScores:
    """Bundle vacuity, max probability and normalized entropy for one state."""
    return UncertaintyScores(
        vacuity=vacuity(state),
        max_probability=max_probability(state),
        normalized_entropy=normalized_entropy(expected_probabilities(state)),
    )


def invariance_concentration(state: DirichletState) -> tuple[float, float]:
    """Concentration (and evidence) an appended class must carry to keep
    vacuity unchanged: alpha_new = S/K, i.e. e_new = S/K - 1.

    This is the unique fixed point: appending any other concentration
    changes u = K/S.
    """
    alpha_new = state.strength / state.k
    return alpha_new, alpha_new - 1.0


def records_of(batch: RecordBatch) -> list[EvidenceRecord]:
    """One ``EvidenceRecord`` per row of a batch, in row order."""
    starts = (np.cumsum(batch.k) - batch.k).tolist()
    return [
        EvidenceRecord(
            id=batch.ids[row],
            group=Group.OOD if batch.ood[row] else Group.ID,
            class_names=batch.class_names[batch.class_index[row]],
            evidence=batch.values[start : start + batch.k[row]].tolist(),
            gold_label=int(batch.labels[row]) if batch.labels[row] >= 0 else None,
        )
        for row, start in enumerate(starts)
    ]


def parse_records_per_line(path) -> RecordBatch:
    """The batch of a valid record file, one ``json.loads`` per line; logits go through ``np.logaddexp(0, x)``."""
    ids, ood, index, k, values, labels, lines = [], [], [], [], [], [], []
    names: dict[tuple, int] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            obj = json.loads(line)
            row = np.array(obj["logits"] if "logits" in obj else obj["evidence"], dtype=float)
            values.append(np.logaddexp(0.0, row) if "logits" in obj else row)
            ids.append(obj["id"])
            ood.append(obj["group"] == "ood")
            index.append(names.setdefault(tuple(obj["classes"]), len(names)))
            k.append(len(row))
            labels.append(obj.get("label"))
            lines.append(lineno)
    return RecordBatch(
        ids=ids,
        ood=np.array(ood, dtype=bool),
        class_names=tuple(names),
        class_index=np.array(index, dtype=np.intp),
        k=np.array(k, dtype=np.intp),
        values=np.concatenate([np.zeros(0), *values]),
        labels=np.array([-1 if g is None else g for g in labels], dtype=np.int64),
        lines=np.array(lines, dtype=np.intp),
        path=str(path),
    )


def digamma_trigamma_masked(x) -> tuple[np.ndarray, np.ndarray]:
    """psi(x) and psi'(x) for an array of x > 0, testing every entry against the cutoff at every step."""
    arr = np.atleast_1d(np.asarray(x, dtype=float)).astype(float)
    psi = np.zeros_like(arr)
    psi1 = np.zeros_like(arr)
    low = arr < 10.0
    while low.any():
        psi -= np.where(low, 1.0 / arr, 0.0)
        psi1 += np.where(low, 1.0 / (arr * arr), 0.0)
        arr += low
        low = arr < 10.0
    u = 1.0 / (arr * arr)
    psi_series = u * (
        1.0 / 12.0
        - u * (1.0 / 120.0 - u * (1.0 / 252.0 - u * (1.0 / 240.0 - u * (1.0 / 132.0 - u * 691.0 / 32760.0))))
    )
    psi = psi + np.log(arr) - 0.5 / arr - psi_series
    psi1 += (
        1.0 / arr
        + 0.5 * u
        + u / arr * (1.0 / 6.0 - u * (1.0 / 30.0 - u * (1.0 / 42.0 - u * (1.0 / 30.0 - u * 5.0 / 66.0))))
    )
    return psi, psi1


class ExpectedBrier:
    """Expected Brier score of (n, K) concentrations against one-hot targets.

    S and alpha/S are computed once and shared by the per-row score and its
    gradient.
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
    ``gamma_family`` runs once over the stacked class-major (n, K+1) array;
    the returned psi' values feed ``kl_to_uniform_grad``.
    """
    n, k = alpha_tilde.shape
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


def row_major_step(params, features, labels, lam, beta, rng_seed, training=True) -> ToyModelGrads:
    """The loss terms and gradients of ``toy.loss_gradient``, from row-major arrays and the row forms above."""
    x = np.asarray(features, dtype=float)
    n, k = x.shape[0], params.n_classes
    y_onehot = np.eye(k)[np.asarray(labels)]
    mu = x @ params.weights.T + params.bias
    if params.mode is TrainingMode.EDL:
        z = mu
    else:
        sigma_raw = x @ params.sigma_weights.T + params.sigma_bias
        sigma = softplus_evidence(sigma_raw)
        scale = 1.0 if training else params.sigma_mult
        eps = np.random.default_rng(rng_seed).standard_normal(mu.shape)
        z = mu + scale * sigma * eps
    alpha = softplus_evidence(z) + 1.0
    brier = ExpectedBrier(alpha, y_onehot)
    mse = float(brier.rows().mean())
    d_alpha = brier.grad()

    def sigmoid(v):
        return 0.5 * (1.0 + np.tanh(0.5 * v))

    if params.mode is TrainingMode.EDL:
        alpha_tilde = y_onehot + (1.0 - y_onehot) * alpha
        kl_rows, psi1 = kl_to_uniform_rows(alpha_tilde, log_gamma(float(k)))
        kl = float(kl_rows.mean())
        loss = LossBreakdown(mse_term=mse, kl_term=kl, ib_info_term=0.0,
                             lambda_weight=lam, beta_weight=0.0, total=mse + lam * kl)
        d_kl = kl_to_uniform_grad(alpha_tilde, psi1) * (1.0 - y_onehot)
        d_logits = (d_alpha + lam * d_kl) * sigmoid(z)
        return ToyModelGrads(loss=loss, weights=d_logits.T @ x / n, bias=d_logits.mean(axis=0))

    info = float(ib_info_rows(mu, sigma).mean())
    loss = LossBreakdown(mse_term=mse, kl_term=0.0, ib_info_term=info,
                         lambda_weight=0.0, beta_weight=beta, total=mse + beta * info)
    d_z = d_alpha * sigmoid(z)
    d_mu = d_z + beta * mu
    d_sigma_raw = (d_z * (scale * eps) + beta * (sigma - 1.0 / sigma)) * sigmoid(sigma_raw)
    return ToyModelGrads(
        loss=loss,
        weights=d_mu.T @ x / n,
        bias=d_mu.mean(axis=0),
        sigma_weights=d_sigma_raw.T @ x / n,
        sigma_bias=d_sigma_raw.mean(axis=0),
    )


def _validate_one_hot(y, k: int) -> np.ndarray:
    arr = np.asarray(y, dtype=float)
    if arr.shape != (k,):
        raise ValueError(f"y must have length {k}, got shape {arr.shape}")
    if not np.isin(arr, (0.0, 1.0)).all() or arr.sum() != 1.0:
        raise ValueError(f"y must be one-hot, got {arr}")
    return arr


def edl_mse_loss(alpha: DirichletState, y) -> float:
    """Expected Brier score under Dir(alpha) for a one-hot target (see ``ExpectedBrier``)."""
    a = np.asarray(alpha.alpha, dtype=float)
    target = _validate_one_hot(y, alpha.k)
    return float(ExpectedBrier(a[None, :], target[None, :]).rows()[0])


def adjusted_alpha(alpha: DirichletState, y) -> DirichletState:
    """Remove correct-class evidence before regularization.

    alpha_tilde = y + (1 - y) * alpha: the true class drops to concentration
    1, wrong classes keep theirs.
    """
    target = _validate_one_hot(y, alpha.k)
    a = np.asarray(alpha.alpha, dtype=float)
    return dirichlet_state(target + (1.0 - target) * a)


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


def ib_info_loss(mu, sigma) -> float:
    """Information-bottleneck penalty for one latent (see ``ib_info_rows``)."""
    m = np.asarray(mu, dtype=float)
    s = np.asarray(sigma, dtype=float)
    if m.shape != s.shape or m.ndim != 1:
        raise ValueError("mu and sigma must be equal-length vectors")
    if np.isnan(s).any() or (s <= 0).any():
        raise ValueError("every sigma_i must be > 0")
    return float(ib_info_rows(m[None, :], s[None, :])[0])


def scores_labels(samples: Sequence[ScoredSample]) -> tuple[np.ndarray, np.ndarray]:
    scores = np.array([s.score for s in samples], dtype=float)
    labels = np.array([s.label for s in samples], dtype=int)
    return scores, labels


def auroc_bruteforce(samples: Sequence[ScoredSample]) -> float:
    """O(n^2) pairwise AUROC with half credit for ties (oracle)."""
    scores, labels = scores_labels(samples)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("auroc needs at least one positive and one negative sample")
    credit = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                credit += 1.0
            elif p == q:
                credit += 0.5
    return credit / (len(pos) * len(neg))


def aupr_reference(samples: Sequence[ScoredSample]) -> float:
    """AUPR by explicit threshold sweep with full recounting (oracle)."""
    scores, labels = scores_labels(samples)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise ValueError("aupr needs at least one positive sample")
    thresholds = sorted(set(scores.tolist()), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for t in thresholds:
        tp = int(((scores >= t) & (labels == 1)).sum())
        fp = int(((scores >= t) & (labels == 0)).sum())
        recall = tp / n_pos
        precision = tp / (tp + fp)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def _tie_run_ends(sorted_scores: np.ndarray) -> np.ndarray:
    return np.append(np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]) + 1, len(sorted_scores))


def auroc_argsort(scores: np.ndarray, labels: np.ndarray) -> float:
    """Midrank AUROC from its own stable ascending sort (bit-for-bit reference)."""
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    order = np.argsort(scores, kind="mergesort")
    ends = _tie_run_ends(scores[order])
    starts = np.append(0, ends[:-1])
    ranks = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    rank_sum = float(ranks[labels[order] == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def aupr_argsort(scores: np.ndarray, labels: np.ndarray) -> float:
    """Step-wise AUPR from its own stable descending sort (bit-for-bit reference)."""
    n_pos = int(labels.sum())
    order = np.argsort(-scores, kind="mergesort")
    ends = _tie_run_ends(scores[order])
    tp = np.cumsum(labels[order])[ends - 1]
    recall = tp / n_pos
    precision = tp / ends
    steps = (recall - np.append(0.0, recall[:-1])) * precision
    return float(np.cumsum(steps)[-1])


def gamma_population_auroc(params: PopulationParams, m: int, e: float) -> float:
    """ID-positive vacuity AUROC of ``params``'s population after m classes of evidence e are appended to OOD.

    Every Gamma draw shares one scale, so each group's total evidence is one
    Gamma variable: G_id = S_id - K ~ Gamma(a_c + (K - 1) a_w) and
    G_ood = S_ood - K ~ Gamma(K a_o). An OOD row's score S/K becomes
    (K + m(1 + e) + G_ood)/(K + m), so

        AUROC(m, e) = P((K + G_id)/K > (K + m(1 + e) + G_ood)/(K + m))
                    = E[P(G_id > K (m e + G_ood)/(K + m))],

    one integral over G_ood (ties have probability 0). At m = 0 it is the
    matched-K law; as m grows it tends to P(S_id/K > 1 + e).
    """
    k = params.k
    g_id = stats.gamma(params.id_correct_shape + (k - 1) * params.id_wrong_shape, scale=params.scale)
    g_ood = stats.gamma(k * params.ood_shape, scale=params.scale)
    value, _ = integrate.quad(
        lambda g: g_ood.pdf(g) * g_id.sf(k * (m * e + g) / (k + m)), 0.0, np.inf, epsabs=1e-13, epsrel=1e-12
    )
    return value
