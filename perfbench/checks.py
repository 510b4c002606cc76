"""Output checks for the benchmark workloads, independent of corrsense's code.

The accuracy oracle is the quadratic form E[(S - S_hat)^2] written out from
the noise variances and the kernel covariance; it shares no code with
corrsense's closed form. Numbers in a CSV must equal the oracle rendered
with the same format, allowing only a last-digit flip when the oracle sits
within float noise of a rounding boundary, so a single corrupted byte
anywhere in a checked CSV is caught.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import List, Sequence, Tuple, Union

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 7  # corrsense's default experiment seed

# default noise profile: signal variance 1, every noise variance 0.06
SIGMA_S2 = 1.0
MEMBER_NOISE = 0.06 + 0.06  # observation + transmission
HEAD_NOISE = 0.06
MC_MAX_SE = 4.0  # allowed |MC - exact| in standard errors
_BATCH_ELEMENTS = 50_000  # oracle arrays stay under 1 MB, so checks do not set peak RSS

Field = Union[str, float]


# -- oracle ------------------------------------------------------------------

def oracle_d_a(clusters: Sequence[tuple], theta1s: Sequence[float],
               theta2: float = 1.0) -> np.ndarray:
    """Normalized accuracy of each cluster's averaged MMSE estimate.

    `clusters` holds (tracing xy, head xy, member xy array) triples; the
    result has one row per cluster and one column per theta1. With nodes
    (members..., head) and the estimate w . x, x = s + noise,
    distortion = sigma_s2 - 2 w.c + w' (Sigma + N) w. Clusters are padded
    to a common size with zero weights and evaluated in small batches.
    """
    out = np.empty((len(clusters), len(theta1s)))
    size = 1 + max((len(c[2]) for c in clusters), default=0)
    step = max(1, _BATCH_ELEMENTS // (size * size))
    for lo in range(0, len(clusters), step):
        out[lo:lo + step] = _oracle_batch(clusters[lo:lo + step], size, theta1s, theta2)
    return out


def _oracle_batch(clusters, size, theta1s, theta2):
    n = len(clusters)
    beta = SIGMA_S2 / (SIGMA_S2 + MEMBER_NOISE)
    beta_ch = SIGMA_S2 / (SIGMA_S2 + HEAD_NOISE)
    pts = np.zeros((n, size, 2))
    w = np.zeros((n, size))
    noise = np.zeros((n, size))
    tracing = np.empty((n, 2))
    for i, (tp, head, members) in enumerate(clusters):
        k = len(members)
        pts[i, :k] = np.asarray(members, float).reshape(-1, 2)
        pts[i, -1] = head
        w[i, :k], w[i, -1] = beta / (k + 1), beta_ch / (k + 1)
        noise[i, :k], noise[i, -1] = MEMBER_NOISE, HEAD_NOISE
        tracing[i] = tp
    to_tracing = np.hypot(*np.moveaxis(pts - tracing[:, None, :], -1, 0))
    diff = pts[:, :, None, :] - pts[:, None, :, :]
    pair = np.hypot(diff[..., 0], diff[..., 1])
    noise_term = (w * w * noise).sum(axis=1)
    out = np.empty((n, len(theta1s)))
    for j, theta1 in enumerate(theta1s):
        quad = np.einsum("ni,nij,nj->n", w, SIGMA_S2 * np.exp(-((pair / theta1) ** theta2)), w)
        cross = (w * SIGMA_S2 * np.exp(-((to_tracing / theta1) ** theta2))).sum(axis=1)
        out[:, j] = 1.0 - (SIGMA_S2 - 2.0 * cross + quad + noise_term) / SIGMA_S2
    return out


def nearest_heads(normals: np.ndarray, heads: np.ndarray, chunk: int = 200) -> np.ndarray:
    """Index of each normal's nearest head; ties go to the lower index."""
    out = np.empty(len(normals), dtype=np.int64)
    for i in range(0, len(normals), chunk):
        part = normals[i:i + chunk]
        d = np.hypot(part[:, None, 0] - heads[None, :, 0],
                     part[:, None, 1] - heads[None, :, 1])
        out[i:i + chunk] = np.argmin(d, axis=1)
    return out


# -- CSV comparison ----------------------------------------------------------

def _renders(text: str, value: float, fmt: str) -> bool:
    slack = 1e-12 * max(1.0, abs(value))
    return any(text == format(v, fmt) for v in (value, value + slack, value - slack))


def compare_lines(name: str, text: str, expected: Sequence[Union[str, Tuple[Field, ...]]],
                  fmt: str = ".6f") -> List[str]:
    """Failures of `text` against expected lines.

    A str line must match exactly; a tuple is a comma-separated row whose
    str fields match exactly and whose float fields must render as `fmt`.
    """
    lines = text.split("\n")
    if lines[-1] != "":
        return [f"{name}: output does not end with a newline"]
    lines = lines[:-1]
    if len(lines) != len(expected):
        return [f"{name}: {len(lines)} lines, expected {len(expected)}"]
    failures = []
    for i, (line, exp) in enumerate(zip(lines, expected)):
        if isinstance(exp, str):
            ok = line == exp
        else:
            fields = line.split(",")
            ok = len(fields) == len(exp) and all(
                got == want if isinstance(want, str) else _renders(got, want, fmt)
                for got, want in zip(fields, exp))
        if not ok:
            failures.append(f"{name}: line {i + 1} {line!r} does not match {exp!r}")
    return failures


def check_reference(name: str, text: str) -> List[str]:
    """Byte comparison against the output recorded at the reference seed."""
    ref = (REFERENCE_DIR / name).read_text()
    if text == ref:
        return []
    lines, ref_lines = text.split("\n"), ref.split("\n")
    for i, (a, b) in enumerate(zip(lines, ref_lines)):
        if a != b:
            return [f"{name}: differs from reference at line {i + 1}: {a!r} != {b!r}"]
    return [f"{name}: differs from reference in length "
            f"({len(text)} vs {len(ref)} bytes)"]


def reference_with_seed(name: str, seed: int) -> List[str]:
    """Reference lines of an experiment CSV with its seed echo replaced."""
    lines = (REFERENCE_DIR / name).read_text().split("\n")[:-1]
    echo = f"# seed={REFERENCE_SEED} "
    return [l.replace(echo, f"# seed={seed} ", 1) if l.startswith(echo) else l
            for l in lines]


def check_mc_estimate(head_id: int, d_a: float, std_err: float, exact: float) -> List[str]:
    """An MC estimate must lie within MC_MAX_SE standard errors of the exact value."""
    if not (std_err > 0 and math.isfinite(d_a)):
        return [f"CH{head_id}: invalid estimate d_a={d_a} std_err={std_err}"]
    z = abs(d_a - exact) / std_err
    if z > MC_MAX_SE:
        return [f"CH{head_id}: Monte Carlo d_a={d_a:.6f} is {z:.1f} SE from "
                f"exact {exact:.6f} (limit {MC_MAX_SE:g})"]
    return []
