"""Special-function accuracy against tabulated high-precision values.

Reference values were computed once with mpmath at 30 decimal digits and
frozen here; the contract is 10 significant digits over [0.5, 1e4]. Arrays
are also checked against the naive shift-one-step-at-a-time references and
scipy.special at 1e-13 relative, and for bits that do not depend on the
array around an entry.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as scipy_special

from vacuitylab.special import digamma, gamma_family, log_gamma

from oracles import digamma_trigamma_masked

EULER_GAMMA = 0.57721566490153286061

LOG_GAMMA_TABLE = [
    (0.5, 0.57236494292470008707),
    (1.0, 0.0),
    (1.5, -0.12078223763524522235),
    (2.0, 0.0),
    (3.7, 1.4280723266653879219),
    (10.0, 12.801827480081469611),
    (42.5, 115.90007047041453012),
    (123.456, 469.60554712992946873),
    (2048.0, 13564.326353384676747),
    (10000.0, 82099.717496442377273),
]

DIGAMMA_TABLE = [
    (0.5, -1.9635100260214234794),
    (1.0, -0.57721566490153286061),
    (1.5, 0.036489973978576520559),
    (2.0, 0.42278433509846713939),
    (3.7, 1.1671535393615113859),
    (10.0, 2.2517525890667211076),
    (42.5, 3.7376932365000936171),
    (123.456, 4.8118293238289853873),
    (2048.0, 7.6243748256661839522),
    (10000.0, 9.2102903711428494036),
]


def sig_digits_ok(actual: float, expected: float, digits: int = 10) -> bool:
    if expected == 0.0:
        return abs(actual) < 10.0**-digits
    return abs(actual - expected) <= abs(expected) * 10.0 ** (-digits)


class TestLogGamma:
    def test_factorial_identity(self):
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-12)

    @pytest.mark.parametrize("x,expected", LOG_GAMMA_TABLE)
    def test_tabulated(self, x, expected):
        assert sig_digits_ok(log_gamma(x), expected)

    def test_recurrence(self):
        """log G(x+1) = log G(x) + log x across the working range."""
        for x in np.linspace(0.5, 50.0, 200):
            lhs = log_gamma(x + 1.0)
            rhs = log_gamma(x) + math.log(x)
            assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_array_input(self):
        xs = np.array([0.5, 2.0, 10.0])
        out = log_gamma(xs)
        assert out.shape == (3,)
        assert out[2] == pytest.approx(12.801827480081469611, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            log_gamma(bad)


class TestDigamma:
    def test_known_constants(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-12)
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, rel=1e-12)

    @pytest.mark.parametrize("x,expected", DIGAMMA_TABLE)
    def test_tabulated(self, x, expected):
        assert sig_digits_ok(digamma(x), expected)

    def test_recurrence(self):
        """psi(x+1) = psi(x) + 1/x."""
        for x in np.linspace(0.5, 50.0, 200):
            assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, abs=1e-11)

    def test_matches_log_gamma_derivative(self):
        """psi is the derivative of log-gamma (central differences, h=1e-6)."""
        h = 1e-6
        for x in [0.7, 1.3, 2.5, 7.0, 25.0, 300.0]:
            numeric = (log_gamma(x + h) - log_gamma(x - h)) / (2 * h)
            assert digamma(x) == pytest.approx(numeric, rel=1e-7)

    @pytest.mark.parametrize("bad", [0.0, -2.0, float("nan")])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            digamma(bad)


class TestTrigamma:
    def test_known_value(self):
        # psi'(1) = pi^2 / 6
        assert gamma_family(1.0)[2] == pytest.approx(math.pi**2 / 6.0, rel=1e-12)

    def test_recurrence(self):
        """psi'(x+1) = psi'(x) - 1/x^2."""
        for x in np.linspace(0.5, 50.0, 200):
            assert gamma_family(x + 1.0)[2] == pytest.approx(gamma_family(x)[2] - 1.0 / x**2, rel=1e-10)

    def test_matches_digamma_derivative(self):
        h = 1e-6
        for x in [0.7, 1.3, 2.5, 7.0, 25.0]:
            numeric = (digamma(x + h) - digamma(x - h)) / (2 * h)
            assert gamma_family(x)[2] == pytest.approx(numeric, rel=1e-7)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gamma_family(-0.5)[2]


def _reference_shifted(x, term):
    """The separate per-function recurrence: shift each x below 10 up by one, adding term(x)."""
    arr = np.atleast_1d(np.asarray(x, dtype=float)).copy()
    acc = np.zeros_like(arr)
    low = arr < 10.0
    while low.any():
        acc[low] += term(arr[low])
        arr[low] += 1.0
        low = arr < 10.0
    return acc, arr


def reference_digamma(x):
    acc, arr = _reference_shifted(x, lambda a: -(1.0 / a))
    u = 1.0 / (arr * arr)
    series = u * (
        1.0 / 12.0
        - u * (1.0 / 120.0 - u * (1.0 / 252.0 - u * (1.0 / 240.0 - u * (1.0 / 132.0 - u * 691.0 / 32760.0))))
    )
    return acc + np.log(arr) - 0.5 / arr - series


def reference_trigamma(x):
    acc, arr = _reference_shifted(x, lambda a: 1.0 / (a * a))
    u = 1.0 / (arr * arr)
    return acc + (
        1.0 / arr
        + 0.5 * u
        + u / arr * (1.0 / 6.0 - u * (1.0 / 30.0 - u * (1.0 / 42.0 - u * (1.0 / 30.0 - u * 5.0 / 66.0))))
    )


POSITIVE = st.floats(1e-3, 1e4, allow_nan=False, allow_infinity=False)
BELOW_CUTOFF = st.floats(1e-3, 10.0, exclude_max=True)
ABOVE_CUTOFF = st.floats(10.0, 1e4)


@st.composite
def special_arguments(draw):
    """A scalar, or a 1-D or 2-D array, some of them mixing values on both sides of the cutoff."""
    if draw(st.booleans()):
        return draw(POSITIVE)
    shape = draw(st.sampled_from([(1,), (7,), (3, 4), (5, 1), (1, 6)]))
    n = int(np.prod(shape))
    values = draw(st.lists(POSITIVE, min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        values[0] = draw(BELOW_CUTOFF)
        values[-1] = draw(ABOVE_CUTOFF)
    return np.array(values).reshape(shape)


def as_bytes(value) -> bytes:
    return np.atleast_1d(np.asarray(value, dtype=float)).tobytes()


def assert_close(actual, expected):
    """|a - b| <= 1e-13 max(1, |b|) entrywise, with infinities required to be equal."""
    actual, expected = np.broadcast_arrays(np.asarray(actual, dtype=float), np.asarray(expected, dtype=float))
    infinite = np.isinf(expected)
    assert (actual[infinite] == expected[infinite]).all(), (actual, expected)
    a, b = actual[~infinite], expected[~infinite]
    assert (np.abs(a - b) <= 1e-13 * np.maximum(1.0, np.abs(b))).all(), (actual, expected)


@settings(max_examples=300, deadline=None)
@given(special_arguments())
def test_shared_pass_matches_separate_recurrences(x):
    psi, psi1 = gamma_family(x)[1:]
    assert np.shape(psi) == np.shape(psi1) == np.shape(x)
    assert isinstance(psi, float) == np.isscalar(x)
    assert as_bytes(psi) == as_bytes(digamma(x))
    assert as_bytes(psi1) == as_bytes(gamma_family(x)[2])
    assert_close(psi, reference_digamma(x).reshape(np.shape(x)))
    assert_close(psi1, reference_trigamma(x).reshape(np.shape(x)))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(1, 30), st.sampled_from("CF"), st.data())
def test_stacked_evaluation_equals_column_evaluations(k, n, order, data):
    """[alpha_tilde | S] as one (n, K+1) array gives each column's own bits, and each entry its own.

    Every entry of a C- or F-ordered array gets the bits of the same value
    passed alone, as a scalar and as a (1,) array, for all three outputs.
    """
    values = data.draw(st.lists(POSITIVE, min_size=n * k, max_size=n * k))
    alpha_tilde = np.array(values).reshape(n, k)
    totals = alpha_tilde.sum(axis=1)
    stacked = np.asarray(np.concatenate([alpha_tilde, totals[:, None]], axis=1), order=order)
    psi, psi1 = gamma_family(stacked)[1:]
    assert psi[:, :k].tobytes() == digamma(alpha_tilde).tobytes()
    assert psi1[:, :k].tobytes() == gamma_family(alpha_tilde)[2].tobytes()
    assert np.ascontiguousarray(psi[:, k]).tobytes() == digamma(totals).tobytes()
    assert np.ascontiguousarray(psi1[:, k]).tobytes() == gamma_family(totals)[2].tobytes()
    lg = log_gamma(stacked)
    assert lg[:, :k].tobytes() == log_gamma(alpha_tilde).tobytes()
    assert np.ascontiguousarray(lg[:, k]).tobytes() == log_gamma(totals).tobytes()

    family = gamma_family(stacked)
    for out in family:
        assert out.shape == stacked.shape
        assert out.flags.f_contiguous if order == "F" else out.flags.c_contiguous
    for index, value in np.ndenumerate(stacked):
        alone, single = gamma_family(float(value)), gamma_family(np.array([value]))
        for out, scalar, one in zip(family, alone, single):
            assert as_bytes(out[index]) == as_bytes(scalar) == as_bytes(one[0]), (index, value)


# the extremes of the domain, the cutoff and the values on either side of it
EDGE_ARGUMENTS = [1e-300, 0.5, 1.0, float(np.nextafter(10.0, 0.0)), 10.0, 1e4, 1e300, float("inf")]


def test_counted_recurrence_matches_masked_oracle_on_edges():
    """The fixed ten-step shift agrees with the masked loop and scipy at the edges of the domain."""
    with np.errstate(over="ignore", divide="ignore"):
        for x in [np.array(EDGE_ARGUMENTS), *(np.array([v]) for v in EDGE_ARGUMENTS)]:
            lg, psi, psi1 = gamma_family(x)
            expected_psi, expected_psi1 = digamma_trigamma_masked(x)
            assert_close(psi, expected_psi)
            assert_close(psi1, expected_psi1)
            assert_close(lg, scipy_special.gammaln(x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gamma_family(float("inf")) == (math.inf, math.inf, 0.0)
        assert log_gamma(np.array([math.inf, 2.0]))[0] == math.inf


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("seed", range(5))
def test_counted_recurrence_matches_masked_oracle_on_random_arrays(seed, order):
    rng = np.random.default_rng(seed)
    x = 10.0 ** rng.uniform(-6.0, 5.0, (60, 5))
    x[rng.random(x.shape) < 0.2] = 1.0  # the true-class entries of a toy step sit exactly at 1
    x = np.asarray(x, order=order)
    lg, psi, psi1 = gamma_family(x)
    expected_psi, expected_psi1 = digamma_trigamma_masked(x)
    assert_close(psi, expected_psi)
    assert_close(psi1, expected_psi1)
    assert_close(psi, reference_digamma(x).reshape(x.shape))
    assert_close(psi1, reference_trigamma(x).reshape(x.shape))
    assert_close(lg, scipy_special.gammaln(x))
    assert_close(psi, scipy_special.digamma(x))
    assert_close(psi1, scipy_special.polygamma(1, x))
