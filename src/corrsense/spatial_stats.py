"""Spatial-statistics primitives.

Empirical correlation of sampled reading windows, the power-exponential
correlation kernel, and the cluster radius/count bounds induced by a
correlation threshold. Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

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


def empirical_correlation(a: Sequence[float], b: Sequence[float]) -> EmpiricalStats:
    """Sample mean/variance/covariance and Pearson coefficient of two windows.

    Variances and covariance use the n-1 denominator; the coefficient is
    covariance / sqrt(var_a * var_b), so |pearson| <= 1.
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
    mean_a = float(xa.mean())
    mean_b = float(xb.mean())
    da = xa - mean_a
    db = xb - mean_b
    var_a = float(da @ da) / (n - 1)
    var_b = float(db @ db) / (n - 1)
    if var_a <= 0.0 or var_b <= 0.0:
        raise DegenerateWindowError("constant window: correlation undefined")
    cov = float(da @ db) / (n - 1)
    return EmpiricalStats(
        mean_a=mean_a,
        mean_b=mean_b,
        var_a=var_a,
        var_b=var_b,
        covariance=cov,
        pearson=cov / math.sqrt(var_a * var_b),
    )


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
    """Largest distance still strongly correlated: theta1 * ln(1/tau)**(1/theta2)."""
    return params.theta1 * math.log(1.0 / params.tau) ** (1.0 / params.theta2)


def cluster_count_bound(field_side: float, params: CorrelationParams) -> int:
    """Square-packing count of radius-bounded clusters in a W x W field.

    With k = floor(W / 2r) and r the maximum cluster radius, the count is
    k**2 + (k+1)**2: k aligned rows plus the offset rows covering the gaps.
    Non-decreasing in tau, non-increasing in theta1.
    """
    if not 0 < field_side < math.inf:
        raise ValueError(f"field side must be positive and finite, "
                         f"got {field_side}")
    k = math.floor(field_side / (2.0 * max_cluster_radius(params)))
    return k * k + (k + 1) * (k + 1)
