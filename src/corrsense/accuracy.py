"""Cluster data-accuracy estimation.

A cluster of m nodes (m-1 members plus the head) senses one tracing point
whose readings are jointly Gaussian with covariance sigma_s2 * K(distance),
K the power-exponential kernel. Members forward noisy, power-scaled
observations to the head; the head senses directly. The head shrinks each
observation by its MMSE factor (beta for members, beta_ch for itself) and
averages. Accuracy is reported as d_a = 1 - distortion / sigma_s2, where
distortion is the mean squared error of the averaged estimate against the
tracing-point value.

Two routes compute d_a: a closed form obtained by expanding the estimator's
first and second moments under the kernel covariance, and a seeded
Monte-Carlo estimate that simulates the full observation chain. Both read
the joint distance matrix of a ClusterGeometry's coordinates. The closed
form is evaluated for many clusters of one size at once, from stacked
coordinates, in blocks of bounded memory. In normalized units
(sigma_s2 = 1) it is

    d_a = (2/m) * [beta * sum_i K(d_Si) + beta_ch * K(d_SC)]
        - (1/m^2) * [beta^2 * sum_{i != j} K(d_ij) + (m-1) * beta
                     + 2 * beta * beta_ch * sum_i K(d_Ci) + beta_ch]

using beta^2 * (sigma_s2 + noise) = beta * sigma_s2 for the diagonal terms.
d_a is at most 1 and may go negative for estimators worse than zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .clustering import (ClusterAssignment, ClusterGeometry, cluster_geometry,
                         point_distances)
from .deployment import Deployment, TracingPoint, _index_by_id
from .errors import MissingTracingPointError, NotPositiveDefiniteError
from .spatial_stats import CorrelationParams, kernel

CHOLESKY_JITTER = 1e-10  # relative to sigma_s2, added once on factorization failure
_MC_CHUNK = 1 << 14  # Monte Carlo draws per chunk; bounds memory for any sample count
_PAIR_BLOCK = 1 << 15  # joint distances per block of the batched closed form


@dataclass(frozen=True)
class NoiseModel:
    """Variances of the observation chain and the encoding power constraint.

    sigma_n2 / sigma_nt2 apply to member observation and transmission noise,
    sigma_nch2 to the head's own observation. The power constraint only
    scales the transmitted amplitude and cancels in the MMSE ratio.
    """

    sigma_s2: float = 1.0
    sigma_n2: float = 0.0
    sigma_nt2: float = 0.0
    sigma_nch2: float = 0.0
    power: float = 1.0

    def __post_init__(self):
        for name in ("sigma_s2", "sigma_n2", "sigma_nt2", "sigma_nch2", "power"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.sigma_s2 > 0:
            raise ValueError("sigma_s2 must be positive")
        if min(self.sigma_n2, self.sigma_nt2, self.sigma_nch2) < 0:
            raise ValueError("noise variances must be nonnegative")
        if not self.power > 0:
            raise ValueError("power must be positive")

    @property
    def alpha(self) -> float:
        """Transmit scaling sqrt(P / (sigma_s2 + sigma_n2 + sigma_nt2))."""
        return math.sqrt(self.power / (self.sigma_s2 + self.sigma_n2 + self.sigma_nt2))

    @classmethod
    def noiseless(cls, sigma_s2: float = 1.0) -> "NoiseModel":
        return cls(sigma_s2=sigma_s2)

    @classmethod
    def default_profile(cls) -> "NoiseModel":
        """House profile used to reproduce the published experiments."""
        return cls(sigma_s2=1.0, sigma_n2=0.06, sigma_nt2=0.06, sigma_nch2=0.06,
                   power=1.0)

    @classmethod
    def from_betas(cls, beta: float, beta_ch: float, sigma_s2: float = 1.0,
                   power: float = 1.0) -> "NoiseModel":
        """Noise model whose shrinkage factors equal the given betas.

        The member noise budget sigma_s2 * (1/beta - 1) is split evenly
        between observation and transmission noise.
        """
        if not (0 < beta <= 1 and 0 < beta_ch <= 1):
            raise ValueError("betas must lie in (0, 1]")
        member_noise = sigma_s2 * (1.0 / beta - 1.0)
        return cls(sigma_s2=sigma_s2, sigma_n2=member_noise / 2.0,
                   sigma_nt2=member_noise / 2.0,
                   sigma_nch2=sigma_s2 * (1.0 / beta_ch - 1.0), power=power)


@dataclass(frozen=True)
class BetaFactors:
    """MMSE shrinkage: beta for member observations, beta_ch for the head's."""

    beta: float
    beta_ch: float

    def __post_init__(self):
        if not (0 < self.beta <= 1 and 0 < self.beta_ch <= 1):
            raise ValueError("beta factors must lie in (0, 1]")


def beta_factors(noise: NoiseModel) -> BetaFactors:
    """Shrinkage factors implied by the noise model; both equal 1 iff noiseless."""
    return BetaFactors(
        beta=noise.sigma_s2 / (noise.sigma_s2 + noise.sigma_n2 + noise.sigma_nt2),
        beta_ch=noise.sigma_s2 / (noise.sigma_s2 + noise.sigma_nch2),
    )


@dataclass(frozen=True)
class ReadingSample:
    """One batch of simulated readings; every field has a trailing draw axis.

    Member arrays are (m-1, n); tracing-point and head arrays are (n,).
    x = s + observation noise, y = x + transmission noise, z = alpha * y.
    """

    s: np.ndarray
    s_members: np.ndarray
    s_head: np.ndarray
    noise_members: np.ndarray
    tnoise_members: np.ndarray
    noise_head: np.ndarray
    x_members: np.ndarray
    y_members: np.ndarray
    z_members: np.ndarray
    x_head: np.ndarray

    @property
    def m(self) -> int:
        return self.s_members.shape[0] + 1


@dataclass(frozen=True)
class EstimateSet:
    """Per-node MMSE estimates and their cluster average, per draw."""

    s_hat_members: np.ndarray  # (m-1, n)
    s_hat_head: np.ndarray     # (n,)
    s_hat: np.ndarray          # (n,)


@dataclass(frozen=True)
class AccuracyReport:
    """Distortion and normalized accuracy of one cluster, by either method."""

    head_id: int
    m: int
    method: str  # "closed_form" or "monte_carlo"
    d_a: float
    distortion: float
    sigma_s2: float = 1.0
    mc_samples: Optional[int] = None
    mc_std_error: Optional[float] = None


def _cholesky_with_jitter(cov: np.ndarray, sigma_s2: float) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    jittered = cov + CHOLESKY_JITTER * sigma_s2 * np.eye(cov.shape[0])
    try:
        return np.linalg.cholesky(jittered)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "kernel covariance is not positive definite (degenerate geometry?)"
        ) from exc


def simulate_reading(geometry: ClusterGeometry, noise: NoiseModel,
                     params: CorrelationParams, rng: np.random.Generator,
                     n: int = 1) -> ReadingSample:
    """Draw n joint readings of the cluster and push them through the channel.

    The tracing-point value, member phenomena, and head phenomenon are
    jointly zero-mean Gaussian with covariance sigma_s2 * K(distance); all
    noises are independent Gaussians per the noise model. The factorization
    is blocked: the node block is Cholesky-factored (with one diagonal
    jitter retry on rank deficiency), then the tracing-point value is drawn
    from its conditional given the nodes, which keeps a node sitting on the
    tracing point bit-identical to it.
    """
    return _draw_reading(_factor_covariance(geometry, noise, params), noise,
                         rng, n)


def _factor_covariance(geometry: ClusterGeometry, noise: NoiseModel,
                       params: CorrelationParams
                       ) -> Tuple[np.ndarray, np.ndarray, float]:
    """(chol, w, sd) of the reading covariance: the node block's Cholesky
    factor, the regression weights of the tracing point on the nodes, and
    the tracing point's conditional standard deviation."""
    joint = geometry.joint_distances()
    node_cov = noise.sigma_s2 * kernel(joint[1:, 1:], params)
    tracing_cov = noise.sigma_s2 * kernel(joint[0, 1:], params)
    chol = _cholesky_with_jitter(node_cov, noise.sigma_s2)
    w = np.linalg.solve(chol.T, np.linalg.solve(chol, tracing_cov))
    cond_var = max(noise.sigma_s2 - float(tracing_cov @ w), 0.0)
    return chol, w, math.sqrt(cond_var)


def _draw_reading(factor: Tuple[np.ndarray, np.ndarray, float],
                  noise: NoiseModel, rng: np.random.Generator,
                  n: int) -> ReadingSample:
    """simulate_reading's draws, given _factor_covariance's factor."""
    chol, w, cond_sd = factor
    k = chol.shape[0] - 1
    nodes = chol @ rng.standard_normal((k + 1, n))
    s = w @ nodes + cond_sd * rng.standard_normal(n)
    s_members, s_head = nodes[:k], nodes[k]
    noise_members = rng.normal(0.0, math.sqrt(noise.sigma_n2), (k, n))
    tnoise_members = rng.normal(0.0, math.sqrt(noise.sigma_nt2), (k, n))
    noise_head = rng.normal(0.0, math.sqrt(noise.sigma_nch2), n)
    x_members = s_members + noise_members
    y_members = x_members + tnoise_members
    return ReadingSample(
        s=s, s_members=s_members, s_head=s_head,
        noise_members=noise_members, tnoise_members=tnoise_members,
        noise_head=noise_head, x_members=x_members, y_members=y_members,
        z_members=noise.alpha * y_members, x_head=s_head + noise_head,
    )


def estimate(sample: ReadingSample, betas: BetaFactors,
             noise: NoiseModel) -> EstimateSet:
    """Decode the received samples into the cluster's average MMSE estimate.

    Members are decoded from the power-scaled channel output, so the
    transmit scaling cancels and estimates stay in signal units.
    """
    s_hat_members = (betas.beta / noise.alpha) * sample.z_members
    s_hat_head = betas.beta_ch * sample.x_head
    s_hat = (s_hat_members.sum(axis=0) + s_hat_head) / sample.m
    return EstimateSet(s_hat_members=s_hat_members, s_hat_head=s_hat_head,
                       s_hat=s_hat)


def closed_form_accuracy(geometry: ClusterGeometry, betas: BetaFactors,
                         params: CorrelationParams,
                         sigma_s2: float = 1.0) -> AccuracyReport:
    """Exact normalized accuracy of the averaged estimator (see module doc)."""
    d_a = float(_closed_form_batch(geometry.points[None], betas,
                                   [params])[0, 0])  # a batch of one cluster
    return AccuracyReport(head_id=geometry.head_id, m=geometry.m,
                          method="closed_form", d_a=d_a,
                          distortion=sigma_s2 * (1.0 - d_a), sigma_s2=sigma_s2)


def _block_clusters(m: int) -> int:
    """Clusters of size m in one block of the batched closed form."""
    return max(1, _PAIR_BLOCK // (m + 1) ** 2)


def _closed_form_batch(points: np.ndarray, betas: BetaFactors,
                       params: Sequence[CorrelationParams]) -> np.ndarray:
    """The module-doc formula for n clusters of one size m, as (n, len(params)).

    `points` is (n, m+1, 2), each cluster in ClusterGeometry's joint order:
    tracing point, members, head. The joint distance matrices are computed
    a block of whole clusters at a time, each block holding at most
    _PAIR_BLOCK distances (one cluster if its matrix alone is larger), so
    memory does not grow with n.
    """
    n, m = points.shape[0], points.shape[1] - 1
    beta, beta_ch = betas.beta, betas.beta_ch
    step = _block_clusters(m)
    d_a = np.empty((n, len(params)))
    for lo in range(0, n, step):
        block = points[lo:lo + step]
        d = point_distances(block[:, :, None], block[:, None])
        for j, p in enumerate(params):
            cross = (2.0 / m) * (beta * kernel(d[:, 0, 1:-1], p).sum(axis=-1)
                                 + beta_ch * kernel(d[:, 0, -1], p))
            # off-diagonal pairs only; K(0) = 1
            pair_sum = kernel(d[:, 1:-1, 1:-1], p).sum(axis=(-2, -1)) - (m - 1)
            k_c = kernel(d[:, 1:-1, -1], p).sum(axis=-1)
            second = (beta ** 2 * pair_sum + (m - 1) * beta
                      + 2.0 * beta * beta_ch * k_c + beta_ch) / m ** 2
            d_a[lo:lo + step, j] = cross - second
    return d_a


def _closed_form_by_size(geometries: Iterable[ClusterGeometry],
                         betas: BetaFactors,
                         params: CorrelationParams) -> np.ndarray:
    """d_a of each geometry, in input order, scored in batches of one size.

    Coordinates wait per size m until they fill one _closed_form_batch
    block, which is then scored; what is left is scored at the end. Only
    the coordinates are held, so memory is bounded by one block per size,
    not by the number of geometries.
    """
    d_a: List[float] = []
    pending: Dict[int, Tuple[List[int], List[np.ndarray]]] = {}

    def score(m: int) -> None:
        slots, points = pending.pop(m)
        for slot, value in zip(slots, _closed_form_batch(
                np.stack(points), betas, [params])[:, 0]):
            d_a[slot] = value

    for geometry in geometries:
        m = geometry.m
        slots, points = pending.setdefault(m, ([], []))
        slots.append(len(d_a))
        points.append(geometry.points)
        d_a.append(math.nan)
        if len(points) == _block_clusters(m):
            score(m)
    for m in list(pending):
        score(m)
    return np.array(d_a)


def _fold_moments(total: Tuple[int, float, float],
                  x: np.ndarray) -> Tuple[int, float, float]:
    """Merge the (count, mean, M2) of `x` into a running total.

    The chunk's moments are taken in two passes and merged with the
    pairwise update of Chan, Golub & LeVeque (1979), which stays accurate
    when the spread is small against the mean, unlike E[x^2] - E[x]^2.
    """
    n_a, mean_a, m2_a = total
    n_b = x.size
    mean_b = float(x.mean())
    m2_b = float(np.square(x - mean_b).sum())
    n = n_a + n_b
    delta = mean_b - mean_a
    return (n, mean_a + delta * (n_b / n),
            m2_a + m2_b + delta * delta * (n_a * n_b / n))


def monte_carlo_accuracy(geometry: ClusterGeometry, betas: BetaFactors,
                         noise: NoiseModel, params: CorrelationParams,
                         samples: int, seed: int) -> AccuracyReport:
    """Estimate distortion by simulating the full chain `samples` times.

    The covariance is factored once; draws come in chunks of _MC_CHUNK,
    chunk i seeded from (seed, i), so the result depends only on
    (seed, samples) and memory does not grow with `samples`.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    factor = _factor_covariance(geometry, noise, params)
    moments = (0, 0.0, 0.0)
    for i, start in enumerate(range(0, samples, _MC_CHUNK)):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        sample = _draw_reading(factor, noise, rng,
                               min(_MC_CHUNK, samples - start))
        err2 = np.square(sample.s - estimate(sample, betas, noise).s_hat)
        moments = _fold_moments(moments, err2)
    _, distortion, m2 = moments
    std_error = math.sqrt(m2 / samples ** 2)
    return AccuracyReport(
        head_id=geometry.head_id, m=geometry.m, method="monte_carlo",
        d_a=1.0 - distortion / noise.sigma_s2, distortion=distortion,
        sigma_s2=noise.sigma_s2, mc_samples=samples,
        mc_std_error=std_error / noise.sigma_s2,
    )


def accuracy_for_assignment(assignment: ClusterAssignment,
                            deployment: Deployment,
                            tracing_points: Sequence[TracingPoint],
                            betas: BetaFactors,
                            params: CorrelationParams,
                            method: str = "closed_form",
                            noise: Optional[NoiseModel] = None,
                            samples: int = 100_000,
                            seed: int = 0) -> List[AccuracyReport]:
    """One report per cluster (head-id order), each against its tracing point.

    Both methods report distortion in units of `noise.sigma_s2`; without a
    noise model the closed form takes sigma_s2 = 1. A tracing-point id
    given twice raises DuplicateNodeError.
    """
    by_id = _index_by_id(tracing_points, "tracing point")
    sigma_s2 = 1.0 if noise is None else noise.sigma_s2
    reports = []
    for cluster in sorted(assignment.clusters, key=lambda c: c.head_id):
        if cluster.head_id not in by_id:
            raise MissingTracingPointError(f"no tracing point for head "
                                           f"CH{cluster.head_id}")
        geometry = cluster_geometry(cluster, deployment, by_id[cluster.head_id])
        if method == "closed_form":
            reports.append(closed_form_accuracy(geometry, betas, params,
                                                sigma_s2))
        elif method == "monte_carlo":
            if noise is None:
                raise ValueError("monte_carlo needs a noise model")
            reports.append(monte_carlo_accuracy(
                geometry, betas, noise, params, samples=samples,
                seed=seed + cluster.head_id))
        else:
            raise ValueError(f"unknown method {method!r}")
    return reports


def reports_to_csv(reports: Sequence[AccuracyReport]) -> str:
    lines = ["head_id,m,method,d_a,distortion,std_err,samples"]
    for r in reports:
        std_err = "" if r.mc_std_error is None else f"{r.mc_std_error:.6f}"
        samples = "" if r.mc_samples is None else str(r.mc_samples)
        lines.append(f"{r.head_id},{r.m},{r.method},{r.d_a:.6f},"
                     f"{r.distortion:.6f},{std_err},{samples}")
    return "\n".join(lines) + "\n"


def _model_record(params: CorrelationParams, noise: NoiseModel) -> dict:
    """Kernel parameters and noise model, as every JSON output records them."""
    return {"params": {**asdict(params), "kernel": "power_exponential",
                       "log_base": "e"},
            "noise": asdict(noise)}


def reports_to_json(reports: Sequence[AccuracyReport],
                    params: CorrelationParams, noise: NoiseModel,
                    seed: int) -> str:
    payload = {**_model_record(params, noise), "seed": seed,
               "reports": [asdict(r) for r in reports]}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
