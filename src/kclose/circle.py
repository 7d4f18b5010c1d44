"""Boundary functions on a uniform circle grid: Fourier analysis, norms,
decreasing rearrangements and the level-truncation split.

Conventions
-----------
A function is stored by its samples at the N points exp(2*pi*1j*k/N),
k = 0..N-1, with N a power of two, N >= 8.  The grid carries the uniform
probability weight 1/N.  Fourier coefficients are indexed by the integer
frequencies -N/2 .. N/2-1 and normalised so that

    coeff[j] = (1/N) * sum_k samples[k] * exp(-2*pi*1j*j*k/N).

Coefficient arrays are kept in FFT order (index j holds frequency j for
0 <= j < N/2, index N-j holds frequency -j); ``frequencies`` gives the
integer frequency of each slot.  "Analytic" always means: the coefficients
at strictly negative frequencies vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import VectorNorm

__all__ = [
    "CircleFunction",
    "Rearrangement",
    "frequencies",
    "fourier_coeffs",
    "from_coeffs",
    "riesz_project",
    "hilbert_transform",
    "lp_norm",
    "inner",
    "analyticity_residual",
    "rearrange",
    "truncate_at_level",
]


def _check_grid_size(n: int) -> None:
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 8, got {n}")


class CircleFunction:
    """Immutable complex samples on the N-point circle grid.

    The samples are read-only, so a function keeps what is computed from them
    alone: its Fourier coefficients (``_coeffs``) and its square-root
    factorization (``_sqrt``, filled by ``factorize.sqrt_factor``).
    """

    __slots__ = ("samples", "_coeffs", "_sqrt")

    def __init__(self, samples):
        samples = np.array(samples, dtype=np.complex128)
        if samples.ndim != 1:
            raise ValueError("samples must be a one-dimensional array")
        _check_grid_size(samples.size)
        if not np.isfinite(samples).all():
            raise ValueError("samples must be finite")
        samples.setflags(write=False)
        self.samples = samples
        self._coeffs = None
        self._sqrt = None

    @property
    def n(self) -> int:
        return self.samples.size

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, n: int) -> "CircleFunction":
        return cls(np.full(n, value, dtype=np.complex128))

    @classmethod
    def harmonic(cls, freq: int, n: int) -> "CircleFunction":
        """The character exp(i*freq*t) sampled on the grid."""
        _check_grid_size(n)
        if not -n // 2 <= freq < n // 2:
            raise ValueError(f"frequency {freq} not representable on a {n}-grid")
        k = np.arange(n)
        return cls(np.exp(2j * np.pi * freq * k / n))

    # -- serialisation ------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": int(self.n),
            "re": self.samples.real.tolist(),
            "im": self.samples.imag.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CircleFunction":
        n = int(obj["n"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
        if re.size != n or im.size != n:
            raise ValueError("re/im length does not match n")
        return cls(re + 1j * im)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CircleFunction(n={self.n})"


@dataclass(frozen=True)
class Rearrangement:
    """Decreasing rearrangement of |f| as a step function on [0, 1].

    ``values`` is non-increasing; step k has width ``weight`` = 1/N.
    The distribution function it induces agrees with that of |f| on the
    grid measure.
    """

    values: np.ndarray
    weight: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)

    @property
    def total_mass(self) -> float:
        return self.weight * self.values.size


def frequencies(n: int) -> np.ndarray:
    """Integer frequency held by each FFT-order coefficient slot."""
    return np.fft.fftfreq(n, d=1.0 / n).astype(int)


def fourier_coeffs(f: CircleFunction) -> np.ndarray:
    """Coefficients in FFT order, cached on the function object."""
    if f._coeffs is None:
        f._coeffs = np.fft.fft(f.samples) / f.n
        f._coeffs.setflags(write=False)
    return f._coeffs


def from_coeffs(coeffs: np.ndarray) -> CircleFunction:
    """Inverse of :func:`fourier_coeffs` (coefficients in FFT order)."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    g = CircleFunction(np.fft.ifft(coeffs * coeffs.size))
    g._coeffs = coeffs.copy()
    g._coeffs.setflags(write=False)
    return g


def riesz_project(f: CircleFunction) -> CircleFunction:
    """Keep the coefficients at frequencies >= 0, zero the rest.

    Orthogonal projection for the grid inner product; idempotent.
    """
    c = fourier_coeffs(f).copy()
    c[frequencies(f.n) < 0] = 0.0
    return from_coeffs(c)


def hilbert_transform(f: CircleFunction) -> CircleFunction:
    """Fourier multiplier -1j*sign(j); real inputs give real outputs.

    Equal to -1j*(2*riesz_project(f) - f - f_hat(0)); its boundedness on L^p,
    1 < p < inf, is the analytic input of the proof that (H^1, H^inf) is
    K-closed in (L^1, L^inf).
    """
    c = fourier_coeffs(f) * (-1j * np.sign(frequencies(f.n)))
    return from_coeffs(c)


def lp_norm(f: CircleFunction, p: float) -> float:
    """L^p norm against the uniform probability weight; p = inf is the max."""
    return VectorNorm(p, 1.0 / f.n).value(f.samples)


def inner(f: CircleFunction, g: CircleFunction) -> complex:
    """Grid inner product (1/N) * sum f * conj(g)."""
    if f.n != g.n:
        raise ValueError("grid sizes differ")
    return complex(np.vdot(g.samples, f.samples) / f.n)


def _negative_frequency_mass(coeffs: np.ndarray) -> float:
    """Largest modulus among the negative-frequency entries of ``coeffs``,
    coefficients in FFT order along axis 0 (scalar or matrix-valued); those
    are the slots from (n + 1) // 2 on, Nyquist included for even n."""
    neg = np.abs(coeffs[(coeffs.shape[0] + 1) // 2 :])
    return float(neg.max()) if neg.size else 0.0


def analyticity_residual(f: CircleFunction) -> float:
    """Largest modulus among the negative-frequency coefficients."""
    return _negative_frequency_mass(fourier_coeffs(f))


def rearrange(f: CircleFunction) -> Rearrangement:
    """Sort |samples| in non-increasing order; ties keep original order."""
    a = np.abs(f.samples)
    order = np.argsort(-a, kind="stable")
    return Rearrangement(values=a[order], weight=1.0 / f.n)


def _partial_integral(values: np.ndarray, weight: float, t: float) -> float:
    """integral_0^t of the step function with the given steps, exactly."""
    if t <= 0:
        return 0.0
    total = weight * values.size
    if t >= total:
        return float(weight * values.sum())
    s = t / weight
    full = int(np.floor(s))
    out = weight * values[:full].sum()
    frac = t - full * weight
    if frac > 0 and full < values.size:
        out += frac * values[full]
    return float(out)


def truncate_at_level(f: CircleFunction, level: float):
    """Split f = (f - h) + h where h keeps the phase of f and |h| = min(|f|, level).

    Returns ``(tall, flat)`` with ``tall = f - h`` supported where |f| exceeds
    the level and ``flat = h`` bounded by the level.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    a = np.abs(f.samples)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(a > 0, np.minimum(a, level) / np.where(a > 0, a, 1.0), 0.0)
    flat = CircleFunction(f.samples * scale)
    tall = CircleFunction(f.samples - flat.samples)
    return tall, flat
