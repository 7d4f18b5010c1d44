"""Weak-type embedding identities, checked at desk scale.

The map sending F to the family (n^{-1/q} F)_{n >= 1} lands in weak-L^q
over the product of the circle with a counting measure, and its weak-type
quasi-norm recovers the strong L^q mass of F exactly in the limit.  The
matrix analogue replaces samples by singular values and weak-L^q by the
weak Schatten ideal.  Both computations truncate the n-sum at ``n_max``
and report an explicit tail bound instead of hiding the cutoff.

Both read the weak quasi-norm off one sorted pool, every v_k n^{-1/q} over
the nonzero moduli (or singular values) v_k and n <= n_max: the supremum
over thresholds t sits at a pool element p, counted with #{pool >= p}
(Bennett and Sharpley, *Interpolation of Operators*, 1988, ch. 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import CircleFunction
from .kfunctional import _square_array

__all__ = ["EmbedResult", "kq_embed", "kq_embed_matrix"]


@dataclass
class EmbedResult:
    """Truncated weak-type value against its strong-norm target.

    value <= target always; residual = target - value >= 0 up to rounding;
    tail_bound caps what the discarded n > n_max terms could contribute at
    the reported argmax threshold.
    """

    value: float
    target: float
    residual: float
    tail_bound: float
    argmax_t: float
    q: float
    n_max: int


def _checked(payload: np.ndarray, q: float, n_max: int) -> np.ndarray:
    if not 1.0 < q < np.inf:
        raise ValueError(f"q must lie in (1, inf), got {q}")
    if isinstance(n_max, bool) or not isinstance(n_max, (int, np.integer)) or n_max < 1:
        raise ValueError(f"n_max must be an integer >= 1, got {n_max!r}")
    if not np.isfinite(payload).all():
        raise ValueError("payload must be finite")
    return payload


def _pool(v: np.ndarray, q: float, n_max: int) -> np.ndarray:
    """Every v_k * n^{-1/q} for n = 1..n_max, sorted ascending."""
    pool = np.outer(v, np.arange(1, n_max + 1, dtype=float) ** (-1.0 / q)).ravel()
    pool.sort()
    return pool


def kq_embed(f, q: float, n_max: int = 10_000) -> EmbedResult:
    """sup_t of sum_{n<=n_max} t^q m{n^{-1/q}|F| > t} versus integral |F|^q.

    With w the measure of one sample, the sum at threshold t is
    t^q * w * #{pool > t}; it grows like t^q between pool elements, so the
    supremum is the largest p^q * w * #{pool >= p} over pool elements p.
    In the ascending pool the first copy of a repeated value carries the
    largest count, and among equal values the smallest threshold is kept.
    """
    f = f.samples if isinstance(f, CircleFunction) else np.asarray(f, dtype=np.complex128)
    values = _checked(np.abs(f).ravel(), q, n_max)
    w = 1.0 / max(values.size, 1)
    target = float(np.sum(w * values**q))
    vmax = float(values.max(initial=0.0))
    if vmax == 0.0:
        return EmbedResult(0.0, target, 0.0, 0.0, 0.0, q, n_max)
    pool = _pool(values[values > 0.0], q, n_max)
    s = pool**q
    s *= w
    s *= np.arange(pool.size, 0, -1, dtype=float)
    i = int(np.argmax(s))
    value, t = float(s[i]), float(pool[i])
    tail = t**q * w * values.size * max(0.0, (vmax / t) ** q - n_max)
    return EmbedResult(
        value=value,
        target=target,
        residual=target - value,
        tail_bound=tail,
        argmax_t=t,
        q=q,
        n_max=n_max,
    )


def kq_embed_matrix(x, q: float, n_max: int = 10_000) -> EmbedResult:
    """Weak Schatten quasi-norm of {n^{-1/q} a_k(x)} versus the C_q norm.

    The pool of all n^{-1/q}-scaled singular values is read in decreasing
    order and the weak quasi-norm sup_k k^{1/q} s_k* evaluated directly;
    among equal values the largest s_k* is kept.  The target is the
    Schatten q-norm of x.
    """
    sv = np.linalg.svd(_checked(_square_array(x), q, n_max), compute_uv=False)
    sv = sv[sv > 0.0]
    target = float(np.sum(sv**q) ** (1.0 / q))
    if sv.size == 0:
        return EmbedResult(0.0, 0.0, 0.0, 0.0, 0.0, q, n_max)
    pool = _pool(sv, q, n_max)[::-1]
    ranks = np.arange(1, pool.size + 1, dtype=float)
    vals = ranks ** (1.0 / q) * pool
    i = int(np.argmax(vals))
    value = float(vals[i])
    s_at = float(pool[i])
    # untruncated n > n_max could push the rank at level s_at up by `extra`
    extra = float(np.sum(np.maximum(0.0, np.floor((sv / s_at) ** q) - n_max)))
    tail = float(((ranks[i] + extra) ** (1.0 / q) - ranks[i] ** (1.0 / q)) * s_at)
    return EmbedResult(
        value=value,
        target=target,
        residual=target - value,
        tail_bound=tail,
        argmax_t=s_at,
        q=q,
        n_max=n_max,
    )
