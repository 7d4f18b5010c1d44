"""Inner-outer structure on the discrete circle.

A grid function with no negative frequencies is a polynomial in z = e^{it}
of degree < N/2, so its zeros inside the disc are computable and the
classical factorizations become finite algebra:

* ``outer_function`` builds exp(analytic completion of log w) -- positive at
  the origin, modulus w on the grid up to a reported residual;
* ``sqrt_factor`` writes f = B * F^2 with B a Blaschke product and F outer,
  the square-trick substitute for a square root without branch cuts;
* ``holder_factor`` splits f into an H^r / H^s product whose norms multiply
  to the H^p norm exactly.

Pointwise exponentials and products re-introduce a little spectral leakage
past the Nyquist slot; every result carries the sup-norm reconstruction
residual so callers can see exactly how much.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import circle
from .circle import CircleFunction
from .kfunctional import require_member

__all__ = [
    "BoundaryZeroWarning",
    "BlaschkeProduct",
    "OuterFunction",
    "SqrtFactorization",
    "HolderFactorization",
    "outer_function",
    "inner_outer",
    "sqrt_factor",
    "holder_factor",
]

COEFF_TRIM = 1e-13
# zeros this close to the unit circle are treated as outer, so every
# Blaschke zero stays strictly inside the disc
ZERO_MARGIN = 1e-8


class BoundaryZeroWarning(UserWarning):
    """A polynomial zero sits (numerically) on the unit circle."""


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product, normalised so each factor is positive at 0.

    ``zeros`` lie strictly inside the disc; ``rotation`` is a unimodular
    constant absorbing the phase left over after normalisation.
    """

    zeros: np.ndarray
    rotation: complex = 1.0 + 0.0j

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.zeros, dtype=np.complex128))
        if z.size and np.abs(z).max() > 1.0 - ZERO_MARGIN:
            raise ValueError("Blaschke zeros must stay a margin inside the disc")
        object.__setattr__(self, "zeros", z)
        r = complex(self.rotation)
        if abs(abs(r) - 1.0) > 1e-8:
            raise ValueError("rotation must be unimodular")
        object.__setattr__(self, "rotation", r / abs(r))

    @property
    def degree(self) -> int:
        return self.zeros.size

    def __call__(self, z):
        z = np.asarray(z, dtype=np.complex128)
        out = np.full(z.shape, self.rotation, dtype=np.complex128)
        for a in self.zeros:
            if a == 0:
                out = out * z
            else:
                out = out * (abs(a) / a) * (a - z) / (1.0 - np.conj(a) * z)
        return out

    def boundary(self, n: int) -> CircleFunction:
        z = np.exp(2j * np.pi * np.arange(n) / n)
        return CircleFunction(self(z))


@dataclass(frozen=True)
class OuterFunction:
    """Boundary values of an outer function, positive at the origin.

    ``logmod`` holds log w on the grid.  ``modulus_residual`` is
    sup | |O| - w | against the requested modulus; ``analyticity_residual``
    is the largest negative-frequency coefficient of the sampled boundary
    values (the exponential leaks a little past Nyquist).
    """

    boundary: CircleFunction
    logmod: CircleFunction
    value_at_zero: float
    modulus_residual: float
    analyticity_residual: float

    @property
    def n(self) -> int:
        return self.boundary.n


def _analytic_completion(u: np.ndarray) -> np.ndarray:
    """h with Re h = u (up to the dropped Nyquist mode) and freq(h) >= 0."""
    n = u.size
    c = np.fft.fft(u) / n
    comp = np.zeros(n, dtype=np.complex128)
    freqs = circle.frequencies(n)
    comp[freqs == 0] = c[freqs == 0]
    pos = freqs > 0
    comp[pos] = 2.0 * c[pos]
    return np.fft.ifft(comp) * n


def outer_function(w) -> OuterFunction:
    """Outer function with boundary modulus w; every sample must be > 0.

    Callers holding a modulus that may vanish must regularize first (clip at
    a floor), mirroring how every factorization here floors |f|.
    """
    raw = w.samples if isinstance(w, CircleFunction) else np.asarray(w)
    if np.iscomplexobj(raw) and raw.size and np.abs(raw.imag).max() > 0:
        raise ValueError("weight must be real-valued (pass the modulus, not the function)")
    mod = np.asarray(raw.real if np.iscomplexobj(raw) else raw, dtype=float)
    circle._check_grid_size(mod.size)
    if mod.ndim != 1:
        raise ValueError(f"weight must be one-dimensional, got shape {mod.shape}")
    if mod.min() <= 0.0:
        raise ValueError("vanishing modulus: outer_function needs min w > 0")
    logw = np.log(mod)
    h = _analytic_completion(logw)
    samples = np.exp(h)
    out = CircleFunction(samples)
    return OuterFunction(
        boundary=out,
        logmod=CircleFunction(logw),
        value_at_zero=float(np.exp(np.mean(logw))),
        modulus_residual=float(np.abs(np.abs(samples) - mod).max()),
        analyticity_residual=circle.analyticity_residual(out),
    )


def _polynomial_zeros(f: CircleFunction) -> np.ndarray:
    """Zeros inside the disc of the analytic polynomial carried by f."""
    coeffs = circle.fourier_coeffs(f)
    freqs = circle.frequencies(f.n)
    order = np.argsort(freqs)
    c = coeffs[order][freqs[order] >= 0]
    top = np.abs(c).max()
    keep = np.nonzero(np.abs(c) > COEFF_TRIM * top)[0]
    c = c[keep[0] : keep[-1] + 1]
    origin = np.zeros(keep[0], dtype=np.complex128)  # deflated zeros at z = 0
    if c.size <= 1:
        return origin
    roots = np.concatenate([origin, np.roots(c[::-1])])
    mods = np.abs(roots)
    on_circle = (mods >= 1.0 - ZERO_MARGIN) & (mods <= 1.0 + ZERO_MARGIN)
    if np.any(on_circle):
        warnings.warn(
            f"{int(on_circle.sum())} zero(s) within {ZERO_MARGIN:.1e} of the unit "
            "circle; they are treated as outer and will show up in the residual",
            BoundaryZeroWarning,
            stacklevel=4,
        )
    return roots[mods < 1.0 - ZERO_MARGIN]


@dataclass(frozen=True)
class SqrtFactorization:
    """f = blaschke * outer^2, with the sup-norm relative residual."""

    blaschke: BlaschkeProduct
    outer: OuterFunction
    residual: float
    eps_zero: float

    def reconstruct(self) -> CircleFunction:
        b = self.blaschke.boundary(self.outer.n)
        return CircleFunction(b.samples * self.outer.boundary.samples**2)


def _inner_outer_preamble(f: CircleFunction, name: str):
    """Check f is analytic and nonzero; return its Blaschke zeros, their
    unrotated boundary samples, max(|f|, eps_zero) and the floor
    eps_zero = 1e-12 * max|f|."""
    if not np.any(f.samples):
        raise ValueError(f"{name} expects a function that is not identically zero")
    require_member("hardy", f.samples, f"{name} input")
    eps_zero = 1e-12 * float(np.abs(f.samples).max())
    zeros = _polynomial_zeros(f)
    blaschke = BlaschkeProduct(zeros).boundary(f.n).samples
    return zeros, blaschke, np.maximum(np.abs(f.samples), eps_zero), eps_zero


def _fit_rotation(f: CircleFunction, approx: np.ndarray) -> complex:
    c = np.vdot(approx, f.samples)
    return c / abs(c) if abs(c) > 0 else 1.0 + 0.0j


def _relative_residual(f: CircleFunction, approx: np.ndarray) -> float:
    return float(np.abs(f.samples - approx).max() / np.abs(f.samples).max())


def sqrt_factor(f: CircleFunction) -> SqrtFactorization:
    """Square-free form f = B * F^2: Blaschke carries the zeros, F is outer.

    |F|^2 = max(|f|, eps_zero) on the grid, eps_zero = 1e-12 * max|f|, so F
    is bounded away from zero and dividing by it is stable; the price is the
    reported residual when f itself nearly vanishes somewhere.
    """
    zeros, b, mod, eps_zero = _inner_outer_preamble(f, "sqrt_factor")
    out = outer_function(np.sqrt(mod))
    approx = b * out.boundary.samples**2
    rot = _fit_rotation(f, approx)
    return SqrtFactorization(blaschke=BlaschkeProduct(zeros, rotation=rot), outer=out,
                             residual=_relative_residual(f, rot * approx), eps_zero=eps_zero)


@dataclass(frozen=True)
class HolderFactorization:
    """f = g * h with |g| = |f|^{p/r}, |h| = |f|^{p/s} and 1/p = 1/r + 1/s.

    The norm identity ||g||_r * ||h||_s = ||f||_p then holds by arithmetic,
    not by optimisation; ``residual`` is the sup-norm error of g*h against f.
    """

    g: CircleFunction
    h: CircleFunction
    residual: float
    norms: dict = field(default_factory=dict)


def holder_factor(f: CircleFunction, p: float, r: float, s: float) -> HolderFactorization:
    """Split an H^p function into H^r * H^s along a conjugate-exponent pair."""
    for name, val in (("p", p), ("r", r), ("s", s)):
        if not val >= 1 or val == np.inf:
            raise ValueError(f"{name} must be finite and >= 1, got {val}")
    if abs(1.0 / p - (1.0 / r + 1.0 / s)) > 1e-12:
        raise ValueError(f"need 1/p = 1/r + 1/s, got 1/{p} vs 1/{r} + 1/{s}")
    _, b, mod, _ = _inner_outer_preamble(f, "holder_factor")
    out_g = outer_function(mod ** (p / r))
    h = outer_function(mod ** (p / s)).boundary
    g0 = b * out_g.boundary.samples
    rot = _fit_rotation(f, g0 * h.samples)
    g = CircleFunction(rot * g0)
    residual = _relative_residual(f, g.samples * h.samples)
    norms = {
        "g_r": circle.lp_norm(g, r),
        "h_s": circle.lp_norm(h, s),
        "f_p": circle.lp_norm(f, p),
    }
    return HolderFactorization(g=g, h=h, residual=residual, norms=norms)


def inner_outer(f: CircleFunction):
    """f = B * O with B Blaschke and O outer; returns (B, O, residual)."""
    zeros, b, mod, _ = _inner_outer_preamble(f, "inner_outer")
    out = outer_function(mod)
    approx = b * out.boundary.samples
    rot = _fit_rotation(f, approx)
    return BlaschkeProduct(zeros, rotation=rot), out, _relative_residual(f, rot * approx)
