"""Toy evidential classifier: losses, analytic gradients, training runs.

The analytic gradient is checked component-by-component against central
finite differences of ``total_loss`` (the oracle re-evaluates the loss,
it never touches the gradient code). Training checks are behavioural:
accuracy on separated blobs and the vacuity gap between the data region
and far-away probes.
"""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from vacuitylab import (
    LossBreakdown,
    RbfFeaturizer,
    ToyBatch,
    ToyModelParams,
    ToyTrainConfig,
    TrainingDiverged,
    TrainingMode,
    far_probe_points,
    generate_toy_classification,
    init_params,
    loss_gradient,
    predict_alpha,
    total_loss,
    train_toy,
)
from vacuitylab import special, toy
from vacuitylab.cli import main
from vacuitylab.special import log_gamma

from oracles import adjusted_alpha, dirichlet_state, edl_mse_loss, kl_to_uniform

REL_TOL = 1e-5
ABS_FLOOR = 1e-8
FD_STEP = 1e-5


def random_params(rng, mode, k=3, d=4):
    sigma_kwargs = {}
    if mode is TrainingMode.IB_EDL:
        sigma_kwargs = dict(
            sigma_weights=rng.normal(0, 0.5, (k, d)),
            sigma_bias=rng.normal(0, 0.5, k),
        )
    return ToyModelParams(
        weights=rng.normal(0, 1, (k, d)),
        bias=rng.normal(0, 1, k),
        mode=mode,
        **sigma_kwargs,
    )


def random_batch(rng, k=3, d=4, n=5):
    return rng.normal(0, 1, (n, d)), rng.integers(0, k, n)


def fd_gradient(params, features, labels, lam, beta, seed, attr, index):
    """Central finite difference of total_loss wrt one parameter component."""

    def loss_with(value):
        arrays = {
            "weights": params.weights.copy(),
            "bias": params.bias.copy(),
            "sigma_weights": None if params.sigma_weights is None else params.sigma_weights.copy(),
            "sigma_bias": None if params.sigma_bias is None else params.sigma_bias.copy(),
        }
        arrays[attr][index] = value
        perturbed = ToyModelParams(
            weights=arrays["weights"],
            bias=arrays["bias"],
            mode=params.mode,
            sigma_weights=arrays["sigma_weights"],
            sigma_bias=arrays["sigma_bias"],
            sigma_mult=params.sigma_mult,
        )
        return total_loss(perturbed, ToyBatch.of(perturbed, features, labels), lam, beta, seed).total

    base = getattr(params, attr)[index]
    return (loss_with(base + FD_STEP) - loss_with(base - FD_STEP)) / (2 * FD_STEP)


def assert_gradient_matches(params, features, labels, lam, beta, seed):
    grads = loss_gradient(params, ToyBatch.of(params, features, labels), lam, beta, seed)
    pairs = [("weights", grads.weights), ("bias", grads.bias)]
    if params.mode is TrainingMode.IB_EDL:
        pairs += [("sigma_weights", grads.sigma_weights), ("sigma_bias", grads.sigma_bias)]
    for attr, analytic in pairs:
        it = np.nditer(analytic, flags=["multi_index"])
        for a in it:
            numeric = fd_gradient(params, features, labels, lam, beta, seed, attr, it.multi_index)
            err = abs(float(a) - numeric)
            scale = max(abs(float(a)), abs(numeric))
            assert err < max(REL_TOL * scale, ABS_FLOOR), (
                f"{attr}{it.multi_index}: analytic={float(a):.10g} fd={numeric:.10g}"
            )


class TestTotalLoss:
    def test_edl_lambda_zero_is_pure_mse(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, TrainingMode.EDL)
        x, y = random_batch(rng, n=1)
        breakdown = total_loss(params, ToyBatch.of(params, x, y), 0.0, 0.0, 0)
        assert breakdown.total == breakdown.mse_term
        assert breakdown.kl_term >= 0.0
        assert breakdown.ib_info_term == 0.0

    def test_edl_matches_per_example_losses(self):
        """Batched internals agree with the per-example loss functions."""
        rng = np.random.default_rng(2)
        params = random_params(rng, TrainingMode.EDL)
        x, y = random_batch(rng, n=7)
        lam = 0.35
        breakdown = total_loss(params, ToyBatch.of(params, x, y), lam, 0.0, 0)
        mses, kls = [], []
        for xi, yi in zip(x, y):
            logits = params.weights @ xi + params.bias
            alpha = dirichlet_state(np.logaddexp(0.0, logits) + 1.0)
            onehot = np.eye(params.n_classes)[yi]
            mses.append(edl_mse_loss(alpha, onehot))
            kls.append(kl_to_uniform(adjusted_alpha(alpha, onehot)))
        assert breakdown.mse_term == pytest.approx(np.mean(mses), rel=1e-12)
        assert breakdown.kl_term == pytest.approx(np.mean(kls), rel=1e-9)
        assert breakdown.total == pytest.approx(np.mean(mses) + lam * np.mean(kls), rel=1e-9)

    def test_kl_zero_when_only_true_evidence(self):
        # one feature pushing only the true class: alpha_tilde stays at 1
        params = ToyModelParams(
            weights=np.array([[5.0], [-50.0]]), bias=np.array([0.0, -50.0]), mode=TrainingMode.EDL
        )
        x = np.array([[1.0]])
        y = np.array([0])
        breakdown = total_loss(params, ToyBatch.of(params, x, y), 1.0, 0.0, 0)
        assert breakdown.kl_term == pytest.approx(0.0, abs=1e-12)
        assert breakdown.total == pytest.approx(breakdown.mse_term, rel=1e-12)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        params = random_params(rng, TrainingMode.IB_EDL)
        x, y = random_batch(rng)
        first = total_loss(params, ToyBatch.of(params, x, y), 0.0, 0.1, rng_seed=77)
        second = total_loss(params, ToyBatch.of(params, x, y), 0.0, 0.1, rng_seed=77)
        assert first == second  # bitwise: dataclass equality on floats
        third = total_loss(params, ToyBatch.of(params, x, y), 0.0, 0.1, rng_seed=78)
        assert third.total != first.total

    def test_ib_breakdown_weights(self):
        rng = np.random.default_rng(4)
        params = random_params(rng, TrainingMode.IB_EDL)
        x, y = random_batch(rng)
        breakdown = total_loss(params, ToyBatch.of(params, x, y), 123.0, 0.25, 0)
        assert breakdown.lambda_weight == 0.0  # IB mode ignores lambda
        assert breakdown.beta_weight == 0.25
        assert breakdown.total == breakdown.mse_term + 0.25 * breakdown.ib_info_term

    def test_inference_with_zero_sigma_mult_is_seed_free(self):
        rng = np.random.default_rng(5)
        params = random_params(rng, TrainingMode.IB_EDL)
        x, y = random_batch(rng)
        a = total_loss(params, ToyBatch.of(params, x, y), 0.0, 0.1, rng_seed=1, training=False)
        b = total_loss(params, ToyBatch.of(params, x, y), 0.0, 0.1, rng_seed=999, training=False)
        assert a == b

    def test_empty_batch_rejected(self):
        params = init_params(TrainingMode.EDL, 2, 3)
        with pytest.raises(ValueError, match="empty"):
            ToyBatch.of(params, np.zeros((0, 3)), np.zeros(0, dtype=int))


class TestLossGradient:
    def test_edl_random_configs(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            params = random_params(rng, TrainingMode.EDL, k=int(rng.integers(2, 5)))
            x, y = random_batch(rng, k=params.n_classes, d=params.feature_dim, n=4)
            assert_gradient_matches(params, x, y, float(rng.uniform(0, 2)), 0.0, 0)

    def test_ib_random_configs(self):
        rng = np.random.default_rng(43)
        for trial in range(10):
            params = random_params(rng, TrainingMode.IB_EDL, k=int(rng.integers(2, 5)))
            x, y = random_batch(rng, k=params.n_classes, d=params.feature_dim, n=4)
            assert_gradient_matches(params, x, y, 0.0, float(rng.uniform(0, 1)), trial)

    def test_descent_reduces_gradient_norm(self):
        """Plain descent on one example shrinks the gradient (lambda=0)."""
        rng = np.random.default_rng(7)
        params = random_params(rng, TrainingMode.EDL, k=2, d=2)
        x = np.array([[1.0, -0.5]])
        y = np.array([0])
        norms = []
        for _ in range(40):
            g = loss_gradient(params, ToyBatch.of(params, x, y), 0.0, 0.0, 0)
            norms.append(math.hypot(np.linalg.norm(g.weights), np.linalg.norm(g.bias)))
            params = ToyModelParams(
                weights=params.weights - 0.5 * g.weights,
                bias=params.bias - 0.5 * g.bias,
                mode=params.mode,
            )
        assert norms[-1] < norms[0]

    def test_symmetric_data_symmetric_gradient(self):
        """Zero weights + class-swapped data give class-swapped gradients."""
        params = init_params(TrainingMode.EDL, 2, 2)
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([0, 1])
        g = loss_gradient(params, ToyBatch.of(params, x, y), 1.0, 0.0, 0)
        np.testing.assert_allclose(g.weights[0], g.weights[1][::-1], rtol=1e-12)
        np.testing.assert_allclose(g.bias[0], g.bias[1], rtol=1e-12)


@pytest.mark.parametrize("mode", list(TrainingMode))
@pytest.mark.parametrize("k", range(2, 8))
def test_class_major_step_has_row_major_bits(monkeypatch, mode, k):
    """The loss and gradients of a class-major step equal those of the same step on row-major arrays."""
    rng = np.random.default_rng(k)
    params = random_params(rng, mode, k=k, d=6)
    features, labels = random_batch(rng, k=k, d=6, n=40)
    batch = ToyBatch.of(params, features, labels)
    assert batch.y_onehot.flags.f_contiguous
    assert toy._forward(params, batch.x, 5, True)["alpha"].flags.f_contiguous
    class_major = loss_gradient(params, batch, 0.7, 1e-2, 5)

    forward = toy._forward
    monkeypatch.setattr(toy, "_forward", lambda *args: {
        name: np.ascontiguousarray(value) if isinstance(value, np.ndarray) else value
        for name, value in forward(*args).items()
    })
    row_major_batch = ToyBatch(batch.x, np.eye(k)[labels], log_gamma(float(k)))
    row_major = loss_gradient(params, row_major_batch, 0.7, 1e-2, 5)
    assert class_major.loss == row_major.loss
    for head in ("weights", "bias", "sigma_weights", "sigma_bias"):
        got, expected = getattr(class_major, head), getattr(row_major, head)
        assert (got is None and expected is None) or got.tobytes() == expected.tobytes(), head


def test_edl_step_validates_its_special_arguments_once(monkeypatch):
    """The stacked [alpha_tilde | S] array of an EDL step is checked for x > 0 once, not once per function."""
    rng = np.random.default_rng(4)
    params = random_params(rng, TrainingMode.EDL)
    batch = ToyBatch.of(params, *random_batch(rng))
    calls = []
    validate = special._validate_positive

    def counting(*args):
        calls.append(args)
        return validate(*args)

    monkeypatch.setattr(special, "_validate_positive", counting)
    loss_gradient(params, batch, 0.7, 0.0, 5)
    assert len(calls) == 1


class TestRbfFeaturizer:
    def test_feature_range_and_locality(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(0, 1, (100, 2))
        feat = RbfFeaturizer.for_data(pts, grid=4)
        on_data = feat.transform(pts)
        assert on_data.shape == (100, 16)
        assert (on_data > 0).all() and (on_data <= 1).all()
        far = feat.transform(np.array([[1000.0, 1000.0]]))
        assert far.max() < 1e-10


class TestTrainToy:
    def test_blobs_reach_accuracy_and_far_vacuity(self):
        points, labels = generate_toy_classification(250, 6.0, seed=11)
        result = train_toy(ToyTrainConfig(mode=TrainingMode.EDL, steps=500, seed=11), points, labels)
        assert result.summary["train_accuracy"] > 0.95
        assert result.summary["mean_far_ood_vacuity"] > result.summary["mean_id_vacuity"]

    def test_ib_mode_trains_too(self):
        points, labels = generate_toy_classification(100, 8.0, seed=3)
        config = ToyTrainConfig(mode=TrainingMode.IB_EDL, steps=300, beta_weight=1e-3, seed=3)
        result = train_toy(config, points, labels)
        assert result.summary["train_accuracy"] > 0.9
        assert result.summary["mean_far_ood_vacuity"] > result.summary["mean_id_vacuity"]

    def test_zero_steps_keeps_initialization(self):
        points, labels = generate_toy_classification(60, 4.0, seed=0)
        result = train_toy(ToyTrainConfig(steps=0), points, labels)
        assert not result.params.weights.any()
        assert not result.params.bias.any()

    def test_deterministic_given_seed(self):
        points, labels = generate_toy_classification(60, 4.0, seed=5)
        config = ToyTrainConfig(steps=50, seed=5)
        a = train_toy(config, points, labels)
        b = train_toy(config, points, labels)
        np.testing.assert_array_equal(a.params.weights, b.params.weights)
        assert a.summary == b.summary

    def test_one_loss_gradient_call_per_step(self, monkeypatch):
        """perfbench's traced run counts toy steps as calls to ``toy.loss_gradient``, looked up by name."""
        calls = []
        original = toy.loss_gradient

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(toy, "loss_gradient", counting)
        points, labels = generate_toy_classification(60, 4.0, seed=1)
        for mode in TrainingMode:
            calls.clear()
            train_toy(ToyTrainConfig(mode=mode, steps=7, seed=1), points, labels)
            assert len(calls) == 7

    def test_divergence_reports_step(self):
        # lr * beta >> 2 makes the quadratic info term oscillate and blow up
        points, labels = generate_toy_classification(60, 4.0, seed=2)
        config = ToyTrainConfig(
            mode=TrainingMode.IB_EDL, steps=500, learning_rate=1e9, beta_weight=1.0, seed=2
        )
        with pytest.raises(TrainingDiverged) as excinfo:
            train_toy(config, points, labels)
        assert excinfo.value.step >= 0

    def test_divergence_reports_last_finite_loss(self):
        points, labels = generate_toy_classification(60, 4.0, seed=2)
        config = ToyTrainConfig(
            mode=TrainingMode.IB_EDL, steps=500, learning_rate=1e9, beta_weight=1.0, seed=2
        )
        with warnings.catch_warnings(record=True) as caught, pytest.raises(TrainingDiverged) as excinfo:
            warnings.simplefilter("always")
            train_toy(config, points, labels)
        assert excinfo.value.step == 2
        last = excinfo.value.last_finite_loss
        assert math.isfinite(last) and repr(last) in str(excinfo.value)
        # the steps run under np.errstate: the diverging step is reported, not warned about
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert TrainingDiverged(0, "loss = nan").last_finite_loss is None

    @pytest.mark.parametrize("steps", [2, 50])
    def test_nan_logits_are_a_divergence(self, tmp_path, capsys, steps):
        """Step 1's loss is finite but its gradient is not: step 2's NaN logits end training, also on the last step."""
        config = tmp_path / "toy.json"
        config.write_text(json.dumps({"mode": "edl", "steps": steps, "learning_rate": 1e100}), encoding="utf-8")
        assert main(["train-toy", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged at step 2: logits must not contain NaN (last finite loss: ")
        last = float(err.rsplit(": ", 1)[1].rstrip(")\n"))
        assert math.isfinite(last) and last > 0

    def test_non_finite_final_loss_is_refused(self):
        """A last step that diverges, or an inference noise scale too large, leaves no NaN summary."""
        points, labels = generate_toy_classification(60, 4.0, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mode in TrainingMode:
                with pytest.raises(TrainingDiverged) as excinfo:
                    train_toy(ToyTrainConfig(mode=mode, steps=1, learning_rate=1e300, seed=2), points, labels)
                assert excinfo.value.step == 1 and math.isfinite(excinfo.value.last_finite_loss)
            config = ToyTrainConfig(mode=TrainingMode.IB_EDL, steps=3, sigma_mult=1e160, seed=2)
            with pytest.raises(ValueError, match="sigma_mult 1e[+]160 is too large: the inference loss is nan"):
                train_toy(config, points, labels)

    def test_dataset_preconditions(self):
        points, labels = generate_toy_classification(10, 4.0, seed=0)
        with pytest.raises(ValueError, match="50 points"):
            train_toy(ToyTrainConfig(), points, labels)
        with pytest.raises(ValueError, match="2 classes"):
            train_toy(ToyTrainConfig(), np.zeros((60, 2)), np.zeros(60, dtype=int))

    def test_probes_are_far(self):
        points, _ = generate_toy_classification(60, 4.0, seed=1)
        probes = far_probe_points(points)
        radius = np.linalg.norm(points, axis=1).max()
        assert (np.linalg.norm(probes, axis=1) > 10 * radius).all()


class TestParamsValidation:
    def test_sigma_head_only_in_ib_mode(self):
        with pytest.raises(ValueError, match="sigma head"):
            ToyModelParams(
                weights=np.zeros((2, 3)),
                bias=np.zeros(2),
                mode=TrainingMode.EDL,
                sigma_weights=np.zeros((2, 3)),
                sigma_bias=np.zeros(2),
            )
        with pytest.raises(ValueError, match="sigma head"):
            ToyModelParams(weights=np.zeros((2, 3)), bias=np.zeros(2), mode=TrainingMode.IB_EDL)

    def test_lambda_ramp(self):
        config = ToyTrainConfig(lambda_weight=1.0, lambda_ramp_steps=100)
        assert config.lambda_at(0) == 0.0
        assert config.lambda_at(50) == pytest.approx(0.5)
        assert config.lambda_at(100) == 1.0
        assert config.lambda_at(5000) == 1.0
        constant = ToyTrainConfig(lambda_weight=0.7, lambda_ramp_steps=None)
        assert constant.lambda_at(0) == 0.7


# sha256 of the final parameters (weights, bias, then sigma head bytes) and of
# the `train-toy` stdout. The IB-EDL pins date from the two-pass implementation
# that evaluated the loss and the gradient in separate forward passes; the EDL
# pins from the ten-step ``special.gamma_family`` kernel, whose log Gamma, psi
# and psi' differ from the former Lanczos/masked-recurrence values in the last
# bits (trained parameters by at most 2.3e-14 relative)
TRAINING_GOLDEN = {
    ("edl", 11): (
        "a034dd09bf30ab1829db90edb19a70b6d1bc249e948a20856563c454e3214c88",
        "ec15ba089d4945ef71737b8ed3417baa6341f5f8558132bae4604049a8ed5917",
    ),
    ("edl", 23): (
        "0846750882d0c7288c258bce177f47dbe8a413c057a44e2f2983f2dac09e5ef4",
        "08f605cd83561ca05e7cedc9fd59a0e5f79254e4429dcde5697f1d345757a0aa",
    ),
    ("ib-edl", 11): (
        "93dc25dfc435ce7a082900045249c42ca0311a743574cc8e7b5726161404b8c7",
        "aef280f502f10f9f097d5fc839220a77f4036693aebf8265d2c0e056b3c542d3",
    ),
    ("ib-edl", 23): (
        "3e3edb6176404332806210993a30fc12b27cf0ab3a4e94cc3fd0e26cd7d29876",
        "c4380b6f3a848ca04fb39c0842cb0b06bb38376a670fa3db731d7216310dceeb",
    ),
}


@pytest.mark.parametrize("mode, seed", TRAINING_GOLDEN.keys())
def test_training_bits_are_pinned(tmp_path, capsys, mode, seed):
    params_digest, stdout_digest = TRAINING_GOLDEN[(mode, seed)]
    points, labels = generate_toy_classification(250, 6.0, seed=seed)
    result = train_toy(ToyTrainConfig(mode=TrainingMode(mode), steps=500, seed=seed), points, labels)
    p = result.params
    h = hashlib.sha256()
    for array in (p.weights, p.bias, p.sigma_weights, p.sigma_bias):
        if array is not None:
            h.update(np.ascontiguousarray(array).tobytes())
    assert h.hexdigest() == params_digest

    config = tmp_path / "toy.json"
    config.write_text(json.dumps({"mode": mode, "steps": 500, "n_per_class": 250, "seed": seed}))
    capsys.readouterr()
    assert main(["train-toy", "--config", str(config)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_digest
