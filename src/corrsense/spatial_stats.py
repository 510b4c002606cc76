"""Spatial-statistics primitives.

Empirical correlation of sampled reading windows, the power-exponential
correlation kernel, and the cluster radius/count bounds induced by a
correlation threshold. Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from .errors import DegenerateWindowError, LengthMismatchError

ArrayLike = Union[float, Sequence[float], np.ndarray]


@dataclass(frozen=True)
class CorrelationParams:
    """Kernel parameters: range theta1 (m), smoothness theta2, threshold tau.

    The kernel is exp(-(d/theta1)**theta2); tau is the minimum kernel value
    at which two readings count as strongly correlated. Natural log is used
    wherever the kernel is inverted.
    """

    theta1: float
    theta2: float
    tau: float

    def __post_init__(self):
        if not 0 < self.theta1 < math.inf:
            raise ValueError(f"theta1 must be positive and finite, got {self.theta1}")
        if not 0 < self.theta2 <= 2:
            raise ValueError(f"theta2 must be in (0, 2], got {self.theta2}")
        if not 0 < self.tau < 1:
            raise ValueError(f"tau must be in (0, 1), got {self.tau}")


@dataclass(frozen=True)
class EmpiricalStats:
    """Sample moments of a pair of reading windows."""

    mean_a: float
    mean_b: float
    var_a: float
    var_b: float
    covariance: float
    pearson: float


def _scaled(x: np.ndarray) -> Tuple[np.ndarray, int]:
    """x / 2**e, with e the binary exponent of max |x|: exact, and the
    moments of the result stay inside the float range."""
    e = math.frexp(float(np.abs(x).max()))[1]
    return np.ldexp(x, -e), e


def empirical_correlation(a: Sequence[float], b: Sequence[float]) -> EmpiricalStats:
    """Sample mean/variance/covariance and Pearson coefficient of two windows.

    Variances and covariance use the n-1 denominator; the coefficient is
    covariance / sqrt(var_a * var_b), so |pearson| <= 1. Each window is
    first scaled by a power of two near its largest magnitude, which is
    exact, so any finite window gets its Pearson coefficient; var_a, var_b
    and covariance read inf or 0 where they fall outside the float range.
    """
    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    if xa.ndim != 1 or xb.ndim != 1 or xa.size < 2 or xb.size < 2:
        raise ValueError("reading windows need at least 2 samples each")
    if xa.size != xb.size:
        raise LengthMismatchError(f"window lengths differ: {xa.size} vs {xb.size}")
    if not (np.isfinite(xa).all() and np.isfinite(xb).all()):
        raise DegenerateWindowError("non-finite reading in window")
    n = xa.size
    (sa, ea), (sb, eb) = _scaled(xa), _scaled(xb)
    mean_a = float(sa.mean())
    mean_b = float(sb.mean())
    da = sa - mean_a
    db = sb - mean_b
    if not (da.any() and db.any()):
        raise DegenerateWindowError("constant window: correlation undefined")
    var_a = float(da @ da) / (n - 1)
    var_b = float(db @ db) / (n - 1)
    cov = float(da @ db) / (n - 1)
    with np.errstate(over="ignore"):  # beyond the float range reads inf
        moments = np.ldexp([mean_a, mean_b, var_a, var_b, cov],
                           [ea, eb, 2 * ea, 2 * eb, ea + eb]).tolist()
    return EmpiricalStats(*moments, pearson=cov / math.sqrt(var_a * var_b))


def kernel(d: ArrayLike, params: CorrelationParams) -> Union[float, np.ndarray]:
    """Power-exponential correlation at distance d: exp(-(d/theta1)**theta2).

    Equals 1 at d = 0 and decreases strictly to 0. Accepts scalars or arrays.
    """
    dist = np.asarray(d, dtype=float)
    if not np.all(dist >= 0):  # also refuses NaN
        raise ValueError("distance must be nonnegative")
    out = np.exp(-((dist / params.theta1) ** params.theta2))
    return float(out) if np.isscalar(d) or dist.ndim == 0 else out


def is_strongly_correlated(d: float, params: CorrelationParams) -> bool:
    """True iff readings at distance d correlate at least tau (boundary counts)."""
    return kernel(d, params) >= params.tau


def max_cluster_radius(params: CorrelationParams) -> float:
    """Largest distance still strongly correlated: theta1 * ln(1/tau)**(1/theta2).

    A radius beyond the float range reads inf.
    """
    try:
        return params.theta1 * math.log(1.0 / params.tau) ** (1.0 / params.theta2)
    except OverflowError:
        return math.inf


def cluster_count_bound(field_side: float, params: CorrelationParams) -> int:
    """Square-packing count of radius-bounded clusters in a W x W field.

    With k = floor(W / 2r) and r the maximum cluster radius, the count is
    k**2 + (k+1)**2: k aligned rows plus the offset rows covering the gaps.
    Non-decreasing in tau, non-increasing in theta1. A radius so small that
    W / 2r leaves the float range (0 included) is refused.
    """
    if not 0 < field_side < math.inf:
        raise ValueError(f"field side must be positive and finite, "
                         f"got {field_side}")
    diameter = 2.0 * max_cluster_radius(params)
    if diameter == 0 or field_side / diameter == math.inf:
        raise ValueError(f"cluster radius {diameter / 2:g} is too small to "
                         f"count clusters in a field side of {field_side:g}")
    k = math.floor(field_side / diameter)
    return k * k + (k + 1) * (k + 1)
