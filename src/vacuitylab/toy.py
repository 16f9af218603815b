"""Desk-scale evidential classifier: linear head over fixed RBF features.

A raw linear map cannot show the collapse of evidence away from the data
(its logits grow with ||x||, so far-away points get *more* evidence), so
the toy model scores points through a fixed radial-basis feature grid:
off the data manifold all features vanish, the logits fall back to the
bias, and vacuity rises.

Training is plain full-batch gradient descent with a constant learning
rate; everything is deterministic given the config seed. Gradients are
analytic and are validated against central finite differences in the
test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import losses
from .records import require_int, require_number, softplus_evidence
from .special import log_gamma
from .synthetic import generate_toy_classification


class TrainingMode(str, Enum):
    EDL = "edl"
    IB_EDL = "ib-edl"


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite.

    ``last_finite_loss`` is the total loss of the step before, or None if
    the first step already diverged.
    """

    def __init__(self, step: int, message: str, last_finite_loss: float | None = None):
        super().__init__(
            f"training diverged at step {step}: {message} (last finite loss: {last_finite_loss})"
        )
        self.step = step
        self.last_finite_loss = last_finite_loss


@dataclass(frozen=True)
class LossBreakdown:
    """One loss evaluation split into its terms.

    total = mse_term + lambda_weight * kl_term        (EDL mode)
    total = mse_term + beta_weight * ib_info_term     (IB mode)
    """

    mse_term: float
    kl_term: float
    ib_info_term: float
    lambda_weight: float
    beta_weight: float
    total: float


@dataclass(frozen=True)
class ToyModelParams:
    """Linear evidential head; the sigma head exists only in IB mode."""

    weights: np.ndarray  # (K, feature_dim)
    bias: np.ndarray  # (K,)
    mode: TrainingMode
    sigma_weights: np.ndarray | None = None
    sigma_bias: np.ndarray | None = None
    sigma_mult: float = 0.0

    def __post_init__(self) -> None:
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError("weights must be (K, d) with a matching (K,) bias")
        has_sigma = self.sigma_weights is not None and self.sigma_bias is not None
        if self.mode is TrainingMode.IB_EDL:
            if not has_sigma:
                raise ValueError("IB mode requires a sigma head")
            if (
                self.sigma_weights.shape != self.weights.shape
                or self.sigma_bias.shape != self.bias.shape
            ):
                raise ValueError("sigma head must match the mean head's shapes")
        elif self.sigma_weights is not None or self.sigma_bias is not None:
            raise ValueError("EDL mode must not carry a sigma head")
        require_number("sigma_mult", self.sigma_mult)

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class ToyModelGrads:
    """One loss evaluation's terms and gradients (None when ``loss.total`` is not finite)."""

    loss: LossBreakdown
    weights: np.ndarray | None
    bias: np.ndarray | None
    sigma_weights: np.ndarray | None = None
    sigma_bias: np.ndarray | None = None


def init_params(
    mode: TrainingMode, n_classes: int, feature_dim: int, sigma_mult: float = 0.0
) -> ToyModelParams:
    """Zero-initialized parameters (deterministic by construction)."""
    ib = mode is TrainingMode.IB_EDL
    return ToyModelParams(
        weights=np.zeros((n_classes, feature_dim)),
        bias=np.zeros(n_classes),
        mode=mode,
        sigma_weights=np.zeros((n_classes, feature_dim)) if ib else None,
        sigma_bias=np.zeros(n_classes) if ib else None,
        sigma_mult=sigma_mult,
    )


def _sigmoid(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """0.5 (1 + tanh(x / 2)), written into ``out``."""
    np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


@dataclass(frozen=True, eq=False)
class ToyBatch:
    """A validated batch with its per-run invariants and the work arrays of its steps.

    ``y_onehot`` and ``not_y = 1 - y_onehot`` are class-major (n, K), and
    ``log_gamma_k`` is log G(K). Every ``total_loss`` or ``loss_gradient``
    on the batch overwrites ``work``, so one batch serves one caller at a
    time; what they return never aliases it.
    """

    x: np.ndarray
    y_onehot: np.ndarray
    not_y: np.ndarray
    log_gamma_k: float
    work: losses.LossArrays

    @classmethod
    def of(cls, params: ToyModelParams, features, labels) -> "ToyBatch":
        x = np.asarray(features, dtype=float)
        y = np.asarray(labels)
        if not np.issubdtype(y.dtype, np.integer):  # a float or bool label is refused, not cast
            raise ValueError(f"labels must be integers, got dtype {y.dtype}")
        if x.ndim != 2 or x.shape[1] != params.feature_dim:
            raise ValueError(f"features must be (n, {params.feature_dim})")
        if y.shape != (x.shape[0],):
            raise ValueError("labels must be a vector matching the batch size")
        if x.shape[0] == 0:
            raise ValueError("batch must not be empty")
        if (y < 0).any() or (y >= params.n_classes).any():
            raise ValueError("labels out of range")
        y_onehot = np.asfortranarray(np.eye(params.n_classes)[y])
        return cls(x, y_onehot, 1.0 - y_onehot, log_gamma(float(params.n_classes)),
                   losses.LossArrays(x.shape[0], params.n_classes))


# The forward arrays are class-major like the loss terms' (see ``losses``),
# and gradients go back to row-major before the sums over the batch, whose
# order does depend on the layout.


def _forward(params: ToyModelParams, x: np.ndarray, rng_seed: int, training: bool, work: losses.LossArrays):
    """alpha = softplus(z) + 1, with z, and in IB mode sigma and eps (else None).

    z = mu in EDL mode and mu + scale * sigma * eps in IB mode, where eps is
    drawn from a generator seeded by ``rng_seed`` and the noise scale is 1
    in training and ``params.sigma_mult`` otherwise. mu, and in IB mode
    sigma_raw and z, are written into ``work``.
    """
    z = mu = np.add(x @ params.weights.T, params.bias, out=work.mu)
    sigma = eps = None
    if params.mode is TrainingMode.IB_EDL:
        sigma_raw = np.add(x @ params.sigma_weights.T, params.sigma_bias, out=work.sigma_raw)
        sigma = softplus_evidence(sigma_raw)
        eps = np.random.default_rng(rng_seed).standard_normal(mu.shape)
        z = np.multiply(sigma, 1.0 if training else params.sigma_mult, out=work.z)
        z *= eps
        z += mu
    alpha = softplus_evidence(z)
    alpha += 1.0
    return alpha, z, sigma, eps


def _batch_means(d_logits: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A head's weight and bias gradients: the batch means of d_logits x^T and of d_logits."""
    n = x.shape[0]
    weights = d_logits.T @ x
    weights /= n
    bias = np.add.reduce(d_logits, axis=0)
    bias /= n
    return weights, bias


def _evaluate(params, batch: ToyBatch, lam, beta, rng_seed, training, gradient):
    """One forward pass: the loss terms, then the gradients if asked for and the loss is finite."""
    w, y, not_y = batch.work, batch.y_onehot, batch.not_y
    alpha, z, sigma, eps = _forward(params, batch.x, rng_seed, training, w)
    mse = losses.expected_brier(alpha, y, w)
    if params.mode is TrainingMode.EDL:
        kl = losses.kl_to_uniform(alpha, y, not_y, batch.log_gamma_k, w)
        loss = LossBreakdown(mse_term=mse, kl_term=kl, ib_info_term=0.0,
                             lambda_weight=lam, beta_weight=0.0, total=mse + lam * kl)
    else:
        info = losses.ib_info(w.mu, sigma, w)
        loss = LossBreakdown(mse_term=mse, kl_term=0.0, ib_info_term=info,
                             lambda_weight=0.0, beta_weight=beta, total=mse + beta * info)
    if not gradient or not math.isfinite(loss.total):
        return ToyModelGrads(loss=loss, weights=None, bias=None)

    d_alpha = losses.expected_brier_grad(alpha, w)
    t, u = w.t, w.u
    if params.mode is TrainingMode.EDL:
        losses.add_kl_to_uniform_grad(d_alpha, not_y, lam, w)
        weights, bias = _batch_means(np.multiply(d_alpha, _sigmoid(z, t), out=w.grad), batch.x)
        return ToyModelGrads(loss=loss, weights=weights, bias=bias)

    # d_z = d_alpha sigmoid(z); the logit gradients are d_z + beta mu for the mean
    # head and (d_z scale eps + beta (sigma - 1 / sigma)) sigmoid(sigma_raw) for sigma's
    d_z = d_alpha
    d_z *= _sigmoid(z, t)
    np.multiply(w.mu, beta, out=t)
    weights, bias = _batch_means(np.add(d_z, t, out=w.grad), batch.x)
    np.multiply(eps, 1.0 if training else params.sigma_mult, out=t)
    t *= d_z
    np.divide(1.0, sigma, out=u)
    np.subtract(sigma, u, out=u)
    u *= beta
    t += u
    sigma_weights, sigma_bias = _batch_means(np.multiply(t, _sigmoid(w.sigma_raw, u), out=w.grad), batch.x)
    return ToyModelGrads(loss=loss, weights=weights, bias=bias,
                         sigma_weights=sigma_weights, sigma_bias=sigma_bias)


def total_loss(
    params: ToyModelParams,
    batch: ToyBatch,
    lambda_weight: float,
    beta_weight: float,
    rng_seed: int,
    training: bool = True,
) -> LossBreakdown:
    """Mean per-example loss over a batch.

    EDL mode ignores ``beta_weight``; IB mode ignores ``lambda_weight``.
    In IB mode the latent noise is z = mu + sigma * eps with eps drawn from
    a generator seeded by ``rng_seed`` (so repeat calls are bitwise equal);
    with ``training=False`` the noise is scaled by ``params.sigma_mult``.
    """
    return _evaluate(params, batch, lambda_weight, beta_weight, rng_seed, training, False).loss


def loss_gradient(
    params: ToyModelParams,
    batch: ToyBatch,
    lambda_weight: float,
    beta_weight: float,
    rng_seed: int,
    training: bool = True,
) -> ToyModelGrads:
    """Analytic gradient of ``total_loss`` with the IB noise held fixed by seed.

    The same forward pass yields the loss, returned as ``grads.loss``.
    """
    return _evaluate(params, batch, lambda_weight, beta_weight, rng_seed, training, True)


@dataclass(frozen=True)
class RbfFeaturizer:
    """Fixed Gaussian-bump features on a grid covering the training data."""

    centers: np.ndarray  # (m, 2)
    lengthscale: float

    def transform(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d2 = ((pts[:, None, :] - self.centers[None, :, :]) ** 2).sum(axis=-1)
        return np.exp(-d2 / (2.0 * self.lengthscale**2))

    @classmethod
    def for_data(cls, points: np.ndarray, grid: int = 5) -> "RbfFeaturizer":
        require_int("grid", grid, 2)
        lo = points.min(axis=0) - 1.0  # the grid spans the data's bounding box widened by 1
        hi = points.max(axis=0) + 1.0
        gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], grid), np.linspace(lo[1], hi[1], grid))
        centers = np.stack([gx.ravel(), gy.ravel()], axis=1)
        lengthscale = 0.5 * float(np.max(hi - lo)) / (grid - 1)
        centers.setflags(write=False)
        return cls(centers=centers, lengthscale=lengthscale)


@dataclass(frozen=True)
class ToyTrainConfig:
    mode: TrainingMode = TrainingMode.EDL
    steps: int = 500
    learning_rate: float = 0.5
    lambda_weight: float = 1.0
    lambda_ramp_steps: int | None = 200
    beta_weight: float = 1e-3
    seed: int = 0
    sigma_mult: float = 0.0
    rbf_grid: int = 5
    n_per_class: int = 250
    separation: float = 6.0

    def __post_init__(self) -> None:
        require_int("n_per_class", self.n_per_class, 50)
        separation = float(require_number("separation", self.separation, positive=True))
        if separation > 1e150:  # past about 1.4e153 the far probes' squared distances to the RBF centres overflow
            raise ValueError(f"separation must be <= 1e+150, got {separation:g}")
        object.__setattr__(self, "separation", separation)
        object.__setattr__(self, "mode", TrainingMode(self.mode))
        for name, minimum in (("steps", 0), ("seed", 0), ("rbf_grid", 2)):
            require_int(name, getattr(self, name), minimum)
        if self.lambda_ramp_steps is not None:
            require_int("lambda_ramp_steps", self.lambda_ramp_steps, 1)
        require_number("learning_rate", self.learning_rate, positive=True)
        for name in ("lambda_weight", "beta_weight", "sigma_mult"):
            require_number(name, getattr(self, name))

    def lambda_at(self, step: int) -> float:
        """Constant, or the linear ramp min(1, step / ramp_steps)."""
        if self.lambda_ramp_steps is None:
            return self.lambda_weight
        return self.lambda_weight * min(1.0, step / self.lambda_ramp_steps)


@dataclass(frozen=True)
class ToyTrainResult:
    params: ToyModelParams
    featurizer: RbfFeaturizer
    summary: dict = field(default_factory=dict)


# Probes sit at 12x the maximum data norm: comfortably past the "more than
# ten data radii away" mark, evenly spaced on a circle for determinism.
_PROBE_RADIUS_MULT = 12.0
_N_PROBES = 64


def far_probe_points(points: np.ndarray) -> np.ndarray:
    radius = _PROBE_RADIUS_MULT * float(np.linalg.norm(points, axis=1).max())
    angles = np.linspace(0.0, 2.0 * math.pi, _N_PROBES, endpoint=False)
    return radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def predict_alpha(params: ToyModelParams, featurizer: RbfFeaturizer, points) -> np.ndarray:
    """Inference-time concentrations (IB noise scaled by sigma_mult, drawn with seed 0)."""
    feats = featurizer.transform(points)
    return _forward(params, feats, 0, False, losses.LossArrays(feats.shape[0], params.n_classes))[0]


def _mean_vacuity(alpha: np.ndarray) -> float:
    return float((alpha.shape[1] / alpha.sum(axis=1)).mean())


def train_toy(config: ToyTrainConfig) -> ToyTrainResult:
    """Fit the toy evidential head on the two Gaussian blobs the config describes.

    Deterministic given ``config``. Raises :class:`TrainingDiverged`
    if the loss stops being finite or the logits hold a NaN (an update left
    the parameters non-finite), reporting the offending step, and
    ``ValueError`` if only the inference noise scale ``sigma_mult`` makes
    the final loss non-finite.
    """
    pts, y = generate_toy_classification(config.n_per_class, config.separation, config.seed)
    n_classes = int(y.max()) + 1

    featurizer = RbfFeaturizer.for_data(pts, grid=config.rbf_grid)
    feats = featurizer.transform(pts)
    params = init_params(config.mode, n_classes, feats.shape[1], config.sigma_mult)

    batch = ToyBatch.of(params, feats, y)
    root = np.random.SeedSequence(config.seed)
    step_seeds = root.generate_state(max(config.steps, 1), dtype=np.uint64)

    heads = ("weights", "bias", "sigma_weights", "sigma_bias")
    heads = heads if config.mode is TrainingMode.IB_EDL else heads[:2]
    arrays = [getattr(params, h) for h in heads]  # updated in place, step by step
    last_finite_loss = None
    with np.errstate(all="ignore"):  # a step whose loss is not finite raises TrainingDiverged instead
        for step in range(config.steps):
            lam = config.lambda_at(step)
            try:
                grads = loss_gradient(params, batch, lam, config.beta_weight, int(step_seeds[step]))
            except ValueError as exc:  # NaN logits: the last update left the parameters non-finite
                raise TrainingDiverged(step, str(exc), last_finite_loss) from None
            if not math.isfinite(grads.loss.total):
                raise TrainingDiverged(step, f"loss = {grads.loss.total}", last_finite_loss)
            last_finite_loss = grads.loss.total
            for array, head in zip(arrays, heads):
                array -= config.learning_rate * getattr(grads, head)

    final_lambda = config.lambda_at(config.steps - 1) if config.steps else config.lambda_at(0)
    with np.errstate(all="ignore"):  # a non-finite final loss is an error below
        try:
            final_loss = total_loss(params, batch, final_lambda, config.beta_weight, 0, training=False).total
        except ValueError as exc:  # NaN logits after the last update
            raise TrainingDiverged(config.steps, str(exc), last_finite_loss) from None
        if not math.isfinite(final_loss):
            # finite at the training noise scale: the inference scale sigma_mult is at fault
            if math.isfinite(total_loss(params, batch, final_lambda, config.beta_weight, 0).total):
                raise ValueError(f"sigma_mult {config.sigma_mult} is too large: the inference loss is {final_loss}")
            raise TrainingDiverged(config.steps, f"loss = {final_loss}", last_finite_loss)
        alpha_id = predict_alpha(params, featurizer, pts)
        alpha_far = predict_alpha(params, featurizer, far_probe_points(pts))
    summary = {
        "mode": config.mode.value,
        "steps": config.steps,
        "train_accuracy": float((alpha_id.argmax(axis=1) == y).mean()),
        "mean_id_vacuity": _mean_vacuity(alpha_id),
        "mean_far_ood_vacuity": _mean_vacuity(alpha_far),
        "final_loss": final_loss,
        "n_per_class": config.n_per_class,
        "separation": config.separation,
    }
    return ToyTrainResult(params=params, featurizer=featurizer, summary=summary)
