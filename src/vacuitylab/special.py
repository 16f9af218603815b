"""Special functions needed by the Dirichlet KL machinery.

``log_gamma`` uses the Lanczos approximation (g = 7, 9 coefficients);
``digamma_trigamma`` shifts the argument above 10 with the ascending
recurrence, then evaluates both asymptotic (Bernoulli-number) series;
``digamma`` and ``trigamma`` are its one-output forms. The recurrence is
counted, not tested per step: adding 1.0 is monotone in floating point,
so the smallest entry needs the most steps, and that count is taken once
from it. Each step still shifts only the entries below the cutoff, so
every entry gets the same bits as a loop that tested each one.
All three are accurate to at least 10 significant digits on [0.5, 1e4]
and accept scalars or arrays of positive reals.
"""

from __future__ import annotations

import math

import numpy as np

_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# Series cutoff: recurrence shifts x to >= 10 where the truncated
# asymptotic series is below 1e-14 relative.
_ASYMPTOTIC_CUTOFF = 10.0


def _validate_positive(x: np.ndarray, name: str) -> None:
    if x.size == 0:
        return
    if np.isnan(x).any() or (x <= 0).any():
        raise ValueError(f"{name} requires x > 0, got {x[np.isnan(x) | (x <= 0)][:4]}")


def log_gamma(x):
    """Natural log of the gamma function for x > 0.

    Lanczos approximation; the x < 0.5 range is handled through the
    recurrence log Gamma(x) = log Gamma(x + 1) - log x.
    """
    arr = np.asarray(x, dtype=float)
    _validate_positive(arr, "log_gamma")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)

    shift = arr < 0.5
    shifted = bool(shift.any())
    if shifted:
        log_shift = np.where(shift, np.log(np.where(shift, arr, 1.0)), 0.0)
        arr = np.where(shift, arr + 1.0, arr)
    z = arr - 1.0

    acc = np.full_like(z, _LANCZOS_COEF[0])
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    out = _HALF_LOG_TWO_PI + (z + 0.5) * np.log(t) - t + np.log(acc)
    if shifted:
        out -= log_shift
    return float(out[0]) if scalar else out


def digamma_trigamma(x):
    """psi(x) and psi'(x) for x > 0 from one shared argument shift.

    Each recurrence step takes 1/x off psi and adds 1/x^2 to psi' for
    the entries still below the cutoff; the array keeps its memory order.
    """
    arr = np.asarray(x, dtype=float)
    _validate_positive(arr, "digamma_trigamma")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).astype(float)

    psi = np.zeros_like(arr)
    psi1 = np.zeros_like(arr)
    steps, smallest = 0, float(arr.min()) if arr.size else _ASYMPTOTIC_CUTOFF
    while smallest < _ASYMPTOTIC_CUTOFF:
        smallest += 1.0
        steps += 1
    for _ in range(steps):
        # 1.0 or 0.0 over x gives the bits of a masked 1/x; a float mask
        # also spares the three uses below a bool-to-float cast each
        low = (arr < _ASYMPTOTIC_CUTOFF).astype(float)
        psi -= low / arr
        psi1 += low / (arr * arr)
        arr += low

    u = 1.0 / (arr * arr)
    # psi(x) ~ ln x - 1/(2x) - 1/(12x^2) + 1/(120x^4) - 1/(252x^6)
    #          + 1/(240x^8) - 1/(132x^10) + 691/(32760x^12)
    psi_series = u * (
        1.0 / 12.0
        - u * (1.0 / 120.0 - u * (1.0 / 252.0 - u * (1.0 / 240.0 - u * (1.0 / 132.0 - u * 691.0 / 32760.0))))
    )
    psi = psi + np.log(arr) - 0.5 / arr - psi_series
    # psi'(x) ~ 1/x + 1/(2x^2) + 1/(6x^3) - 1/(30x^5) + 1/(42x^7)
    #           - 1/(30x^9) + 5/(66x^11)
    psi1 += (
        1.0 / arr
        + 0.5 * u
        + u / arr * (1.0 / 6.0 - u * (1.0 / 30.0 - u * (1.0 / 42.0 - u * (1.0 / 30.0 - u * 5.0 / 66.0))))
    )
    return (float(psi[0]), float(psi1[0])) if scalar else (psi, psi1)


def digamma(x):
    """Logarithmic derivative of the gamma function for x > 0."""
    return digamma_trigamma(x)[0]


def trigamma(x):
    """First derivative of digamma for x > 0 (used by KL gradients)."""
    return digamma_trigamma(x)[1]
