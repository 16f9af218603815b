"""Toy evidential classifier: losses, analytic gradients, training runs.

The analytic gradient is checked component-by-component against central
finite differences of ``total_loss`` (the oracle re-evaluates the loss,
it never touches the gradient code). Training checks are behavioural:
accuracy on separated blobs and the vacuity gap between the data region
and far-away probes.
"""

import copy
import dataclasses
import hashlib
import inspect
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

from oracles import adjusted_alpha, dirichlet_state, edl_mse_loss, kl_to_uniform, row_major_step

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
            sigma_weights=arrays["sigma_weights"],
            sigma_bias=arrays["sigma_bias"],
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
        params = ToyModelParams(weights=np.array([[5.0], [-50.0]]), bias=np.array([0.0, -50.0]))
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
        assert breakdown.total == breakdown.mse_term + 0.25 * breakdown.ib_info_term

    def test_inference_with_zero_sigma_mult_is_seed_free(self):
        rng = np.random.default_rng(5)
        params = random_params(rng, TrainingMode.IB_EDL)
        x, y = random_batch(rng)
        a = total_loss(params, ToyBatch.of(params, x, y), 0.0, 0.1, rng_seed=1, noise_scale=0.0)
        b = total_loss(params, ToyBatch.of(params, x, y), 0.0, 0.1, rng_seed=999, noise_scale=0.0)
        assert a == b

    def test_empty_batch_rejected(self):
        params = init_params(TrainingMode.EDL, 2, 3)
        with pytest.raises(ValueError, match="empty"):
            ToyBatch.of(params, np.zeros((0, 3)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("labels", [[0.9, 1.7], [0.0, 1.0], np.array([False, True])])
    def test_non_integer_labels_rejected(self, labels):
        """A float or bool label is refused, not truncated or cast: [0.9, 1.7] would read as [0, 1]."""
        params = init_params(TrainingMode.EDL, 2, 3)
        with pytest.raises(ValueError, match="labels must be integers, got dtype (float64|bool)"):
            ToyBatch.of(params, np.zeros((2, 3)), labels)


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


HEADS = ("weights", "bias", "sigma_weights", "sigma_bias")


def step_cases(mode, k):
    """The class-major step and the row-major reference on the benchmark toy's batch size and features.

    Yields both at the training noise scale 1 and at the noise scale 0.7
    (EDL ignores it).
    """
    points, _ = generate_toy_classification(250, 3.0, seed=k)
    features = RbfFeaturizer.for_data(points).transform(points)
    rng = np.random.default_rng(k)
    params = random_params(rng, mode, k=k, d=features.shape[1])
    labels = rng.integers(0, k, len(features))
    batch = ToyBatch.of(params, features, labels)
    assert batch.y_onehot.flags.f_contiguous
    assert toy._forward(params, batch.x, 5, 1.0, batch.work)[0].flags.f_contiguous
    for noise_scale in (1.0, 0.7):
        yield (loss_gradient(params, batch, 0.7, 1e-2, 5, noise_scale),
               row_major_step(params, features, labels, 0.7, 1e-2, 5, noise_scale))


def assert_same_step(got, expected):
    """Equal loss terms and gradient heads, bit for bit."""
    assert got.loss == expected.loss
    for head in HEADS:
        g, e = getattr(got, head), getattr(expected, head)
        assert (g is None and e is None) or g.tobytes() == e.tobytes(), head


@pytest.mark.parametrize("mode", list(TrainingMode))
@pytest.mark.parametrize("k", range(2, 8))
def test_class_major_step_has_row_major_bits(mode, k):
    """Below K = 8 the loss terms and every gradient head equal the row-major reference step's bit for bit."""
    for got, expected in step_cases(mode, k):
        assert_same_step(got, expected)


@pytest.mark.parametrize("mode", list(TrainingMode))
@pytest.mark.parametrize("k", range(8, 13))
def test_class_major_step_is_near_row_major_from_eight_classes(mode, k):
    """From K = 8 on a row-major row sum is pairwise: the step agrees with the reference within 1e-12."""
    for got, expected in step_cases(mode, k):
        for term in ("mse_term", "kl_term", "ib_info_term", "total"):
            assert getattr(got.loss, term) == pytest.approx(getattr(expected.loss, term), rel=1e-12, abs=0.0)
        for head in HEADS:
            g, e = getattr(got, head), getattr(expected, head)
            assert (g is None) == (e is None), head
            if e is not None:
                assert np.abs(g - e).max() <= 1e-12 * np.abs(e).max(), head


@pytest.mark.parametrize("mode", list(TrainingMode))
def test_work_arrays_do_not_leak_between_calls(mode):
    """A batch's work arrays are rewritten by every call; what an earlier call returned stays as it was."""
    rng = np.random.default_rng(9)
    first, second = random_params(rng, mode, d=6), random_params(rng, mode, d=6)
    features, labels = random_batch(rng, d=6, n=30)
    batch = ToyBatch.of(first, features, labels)
    grads = loss_gradient(first, batch, 0.7, 1e-2, 5)
    kept = copy.deepcopy(grads)
    assert loss_gradient(second, batch, 0.7, 1e-2, 6).loss != grads.loss
    assert_same_step(grads, kept)
    # a loss-only evaluation between two steps changes neither the first step nor the next
    total_loss(second, batch, 0.7, 1e-2, 6, noise_scale=0.0)
    assert_same_step(loss_gradient(first, batch, 0.7, 1e-2, 5), kept)
    assert_same_step(grads, kept)


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
        result = train_toy(ToyTrainConfig(mode=TrainingMode.EDL, steps=500, seed=11, n_per_class=250, separation=6.0))
        assert result.summary["train_accuracy"] > 0.95
        assert result.summary["mean_far_ood_vacuity"] > result.summary["mean_id_vacuity"]

    def test_ib_mode_trains_too(self):
        config = ToyTrainConfig(
            mode=TrainingMode.IB_EDL, steps=300, beta_weight=1e-3, seed=3, n_per_class=100, separation=8.0
        )
        result = train_toy(config)
        assert result.summary["train_accuracy"] > 0.9
        assert result.summary["mean_far_ood_vacuity"] > result.summary["mean_id_vacuity"]

    def test_zero_steps_keeps_initialization(self):
        result = train_toy(ToyTrainConfig(steps=0, n_per_class=60, separation=4.0))
        assert not result.params.weights.any()
        assert not result.params.bias.any()

    def test_deterministic_given_seed(self):
        config = ToyTrainConfig(steps=50, seed=5, n_per_class=60, separation=4.0)
        a = train_toy(config)
        b = train_toy(config)
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
        for mode in TrainingMode:
            calls.clear()
            train_toy(ToyTrainConfig(mode=mode, steps=7, seed=1, n_per_class=60, separation=4.0))
            assert len(calls) == 7

    def test_divergence_reports_step(self):
        # lr * beta >> 2 makes the quadratic info term oscillate and blow up
        config = ToyTrainConfig(
            mode=TrainingMode.IB_EDL, steps=500, learning_rate=1e9, beta_weight=1.0, seed=2,
            n_per_class=60, separation=4.0,
        )
        with pytest.raises(TrainingDiverged) as excinfo:
            train_toy(config)
        assert excinfo.value.step >= 0

    def test_divergence_reports_last_finite_loss(self):
        config = ToyTrainConfig(
            mode=TrainingMode.IB_EDL, steps=500, learning_rate=1e9, beta_weight=1.0, seed=2,
            n_per_class=60, separation=4.0,
        )
        with warnings.catch_warnings(record=True) as caught, pytest.raises(TrainingDiverged) as excinfo:
            warnings.simplefilter("always")
            train_toy(config)
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
        blobs = dict(n_per_class=60, separation=4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mode in TrainingMode:
                with pytest.raises(TrainingDiverged) as excinfo:
                    train_toy(ToyTrainConfig(mode=mode, steps=1, learning_rate=1e300, seed=2, **blobs))
                assert excinfo.value.step == 1 and math.isfinite(excinfo.value.last_finite_loss)
            config = ToyTrainConfig(mode=TrainingMode.IB_EDL, steps=3, sigma_mult=1e160, seed=2, **blobs)
            with pytest.raises(ValueError, match="sigma_mult 1e[+]160 is too large: the inference loss is nan"):
                train_toy(config)

    def test_configured_noise_scale_reaches_the_summary(self):
        """The summary's ID vacuity is read at the config's sigma_mult, not at 0 as in every golden run."""
        config = ToyTrainConfig(mode=TrainingMode.IB_EDL, steps=5, sigma_mult=0.5, seed=3, n_per_class=60, separation=4.0)
        result = train_toy(config)
        points, _ = generate_toy_classification(60, 4.0, 3)

        def mean_vacuity(noise_scale):
            alpha = predict_alpha(result.params, result.featurizer, points, noise_scale)
            return float((alpha.shape[1] / alpha.sum(axis=1)).mean())

        assert result.summary["mean_id_vacuity"] == mean_vacuity(0.5)
        assert result.summary["mean_id_vacuity"] != mean_vacuity(0.0)

    def test_config_is_the_only_parameter(self):
        """The config holds the whole run, blobs included: there are no points or labels to pass."""
        assert list(inspect.signature(train_toy).parameters) == ["config"]

    def test_probes_are_far(self):
        points, _ = generate_toy_classification(60, 4.0, seed=1)
        probes = far_probe_points(points)
        radius = np.linalg.norm(points, axis=1).max()
        assert (np.linalg.norm(probes, axis=1) > 10 * radius).all()


class TestParamsValidation:
    @pytest.mark.parametrize(
        "half", [{"sigma_weights": np.zeros((2, 3))}, {"sigma_bias": np.zeros(2)}], ids=["weights-only", "bias-only"]
    )
    def test_half_sigma_head_rejected(self, half):
        with pytest.raises(ValueError, match="^a sigma head needs both sigma_weights and sigma_bias$"):
            ToyModelParams(weights=np.zeros((2, 3)), bias=np.zeros(2), **half)

    def test_mode_follows_the_heads(self):
        """A model is IB-EDL exactly when it has a sigma head."""
        for mode in TrainingMode:
            assert init_params(mode, 2, 3).mode is mode
        assert ToyModelParams(np.zeros((2, 3)), np.zeros(2)).mode is TrainingMode.EDL
        assert ToyModelParams(np.zeros((2, 3)), np.zeros(2), np.zeros((2, 3)), np.zeros(2)).mode is TrainingMode.IB_EDL
        assert [f.name for f in dataclasses.fields(ToyModelParams)] == list(HEADS)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"bias": np.zeros(3)}, r"weights must be \(K, d\) with a matching \(K,\) bias"),
            ({"weights": np.zeros(2)}, r"weights must be \(K, d\) with a matching \(K,\) bias"),
            (
                {"sigma_weights": np.zeros((2, 2)), "sigma_bias": np.zeros(2)},
                "sigma head must match the mean head's shapes",
            ),
        ],
        ids=["bias-length", "flat-weights", "sigma-shape"],
    )
    def test_malformed_params_rejected(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ToyModelParams(**{"weights": np.zeros((2, 3)), "bias": np.zeros(2), **fields})

    @pytest.mark.parametrize("evaluate", [total_loss, loss_gradient], ids=["loss", "step"])
    def test_negative_noise_scale_rejected(self, evaluate):
        """The IB noise scale is an argument of the loss and the step, and a negative one is refused there."""
        rng = np.random.default_rng(4)
        params = random_params(rng, TrainingMode.IB_EDL)
        x, y = random_batch(rng)
        with pytest.raises(ValueError, match="^noise_scale must be >= 0, got -0.5$"):
            evaluate(params, ToyBatch.of(params, x, y), 0.0, 0.1, 0, noise_scale=-0.5)

    @pytest.mark.parametrize(
        "features, labels, message",
        [
            (np.zeros((2, 4)), [0, 1], r"features must be \(n, 3\)"),
            (np.zeros(3), [0], r"features must be \(n, 3\)"),
            (np.zeros((2, 3)), [0, 1, 1], "labels must be a vector matching the batch size"),
            (np.zeros((2, 3)), [0, 2], "labels out of range"),
            (np.zeros((2, 3)), [-1, 0], "labels out of range"),
        ],
        ids=["feature-width", "flat-features", "label-length", "label-too-large", "negative-label"],
    )
    def test_malformed_batch_rejected(self, features, labels, message):
        params = init_params(TrainingMode.EDL, 2, 3)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ToyBatch.of(params, features, labels)

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
    result = train_toy(
        ToyTrainConfig(mode=TrainingMode(mode), steps=500, seed=seed, n_per_class=250, separation=6.0)
    )
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
