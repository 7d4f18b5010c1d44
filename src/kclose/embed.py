"""Weak-type embedding identities, checked at desk scale.

The map sending F to the family (n^{-1/q} F)_{n >= 1} lands in weak-L^q
over the product of the circle with a counting measure, and its weak-type
quasi-norm recovers the strong L^q mass of F exactly in the limit.  The
matrix analogue replaces samples by singular values and weak-L^q by the
weak Schatten ideal.  Both computations truncate the n-sum at ``n_max``
and report an explicit tail bound instead of hiding the cutoff.

The supremum over thresholds t is attained in the left limit at the
breakpoints t = n^{-1/q} * (distinct sample values); the code enumerates
exactly those and counts level sets with >= instead of >, which evaluates
the limit from the left.
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


def _values_and_weights(f) -> tuple[np.ndarray, np.ndarray, float]:
    if isinstance(f, CircleFunction):
        v = np.abs(f.samples)
        return v, np.full(v.size, 1.0 / v.size), float(v.max(initial=0.0))
    v = np.abs(np.asarray(f, dtype=np.complex128)).ravel()
    return v, np.full(v.size, 1.0 / max(v.size, 1)), float(v.max(initial=0.0))


# candidate thresholds per vectorised block, so the (block, samples)
# temporaries stay small whatever n_max is
_CHUNK = 5_000


def kq_embed(f, q: float, n_max: int = 10_000) -> EmbedResult:
    """sup_t of sum_{n<=n_max} t^q m{n^{-1/q}|F| > t} versus integral |F|^q.

    Candidate thresholds are v * n^{-1/q} over distinct sample values v;
    between consecutive breakpoints the sum is a fixed count times t^q, so
    the supremum sits at a breakpoint's left limit.
    """
    if not 1.0 < q < np.inf:
        raise ValueError(f"q must lie in (1, inf), got {q}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    values, weights, vmax = _values_and_weights(f)
    w = float(weights[0]) if weights.size else 0.0
    target = float(np.sum(weights * values**q))
    if vmax == 0.0:
        return EmbedResult(0.0, target, 0.0, 0.0, 0.0, q, n_max)
    distinct = np.unique(values[values > 0.0])
    scale = np.arange(1, n_max + 1, dtype=float) ** (-1.0 / q)
    cands = np.unique(np.outer(distinct, scale).ravel())
    best_val, best_t = 0.0, 0.0
    # S(t) = t^q * w * sum_k min(n_max, #{n : n^{-1/q} v_k >= t}); the count
    # is floor((v_k/t)^q) with a nudge so exact breakpoints land inclusively
    for start in range(0, cands.size, _CHUNK):
        block = cands[start : start + _CHUNK]
        ratio = (values[None, :] / block[:, None]) ** q
        counts = np.floor(ratio * (1.0 + 1e-9) + 1e-12)
        s = block**q * w * np.minimum(counts, n_max).sum(axis=1)
        i = int(np.argmax(s))
        if s[i] > best_val:
            best_val, best_t = float(s[i]), float(block[i])
    tail = best_t**q * w * values.size * max(0.0, (vmax / best_t) ** q - n_max)
    return EmbedResult(
        value=best_val,
        target=target,
        residual=target - best_val,
        tail_bound=tail,
        argmax_t=best_t,
        q=q,
        n_max=n_max,
    )


def kq_embed_matrix(x, q: float, n_max: int = 10_000) -> EmbedResult:
    """Weak Schatten quasi-norm of {n^{-1/q} a_k(x)} versus the C_q norm.

    The multiset of all n^{-1/q}-scaled singular values is sorted and the
    weak quasi-norm sup_k (k+1)^{1/q} s_k evaluated directly; the target is
    the Schatten q-norm of x.
    """
    if not 1.0 < q < np.inf:
        raise ValueError(f"q must lie in (1, inf), got {q}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    sv = np.linalg.svd(_square_array(x), compute_uv=False)
    sv = sv[sv > 0.0]
    target = float(np.sum(sv**q) ** (1.0 / q))
    if sv.size == 0:
        return EmbedResult(0.0, 0.0, 0.0, 0.0, 0.0, q, n_max)
    ns = np.arange(1, n_max + 1, dtype=float) ** (-1.0 / q)
    pool = np.sort(np.outer(sv, ns).ravel())[::-1]
    ranks = np.arange(1, pool.size + 1, dtype=float)
    vals = ranks ** (1.0 / q) * pool
    i = int(np.argmax(vals))
    value = float(vals[i])
    s_at = float(pool[i])
    # untruncated n > n_max could push the rank at level s_at up by `extra`
    extra = float(np.sum(np.maximum(0.0, np.floor((sv / s_at) ** q) - n_max)))
    tail = ((ranks[i] + extra) ** (1.0 / q) - ranks[i] ** (1.0 / q)) * s_at
    return EmbedResult(
        value=value,
        target=target,
        residual=target - value,
        tail_bound=tail,
        argmax_t=s_at,
        q=q,
        n_max=n_max,
    )
