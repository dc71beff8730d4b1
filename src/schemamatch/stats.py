"""Correlation, similarity, FDR, and rank statistics used across the toolkit."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc


def pearson(x, y) -> float:
    """Sample Pearson correlation. Zero-variance input yields 0.0 (degenerate)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("pearson expects two equal-length 1-D arrays")
    if x.size < 3:
        raise ValueError("pearson needs at least 3 observations")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        return 0.0
    r = float(xc @ yc) / denom
    return max(-1.0, min(1.0, r))


def cosine(u, v) -> float:
    """Cosine similarity. A zero vector yields 0.0 (degenerate)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("cosine expects two equal-length 1-D arrays")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    c = float(u @ v) / (nu * nv)
    return max(-1.0, min(1.0, c))


def pearson_pvalue(r: float, n: int) -> float:
    """Two-sided p-value for a sample correlation r at sample size n, via the exact
    t transform: p = I_x(df/2, 1/2) with x = df/(df + t^2), df = n - 2."""
    if n < 4:
        raise ValueError("pearson_pvalue needs n >= 4")
    r = float(r)
    if not math.isfinite(r):
        raise ValueError("r must be finite")
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return 0.0
    df = n - 2
    t2 = r * r * df / (1.0 - r * r)
    x = df / (df + t2)
    return float(betainc(df / 2.0, 0.5, x))


def by_stepdown(pvalues, q: float = 0.05) -> np.ndarray:
    """Benjamini-Yekutieli step-down acceptance mask (original order).

    With m p-values sorted ascending, accept hypotheses 1..i* where i* is the
    largest i such that p_(i) <= i * q / (m * c(m)) and c(m) = sum_{j<=m} 1/j.
    Valid under arbitrary dependence among the tests.
    """
    p = np.asarray(pvalues, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("pvalues must be 1-D")
    if not 0 < q < 1:
        raise ValueError("q must be in (0, 1)")
    m = p.size
    mask = np.zeros(m, dtype=bool)
    if m == 0:
        return mask
    if np.any(~np.isfinite(p)) or np.any(p < 0) or np.any(p > 1):
        raise ValueError("p-values must lie in [0, 1]")
    order = np.argsort(p, kind="stable")
    c_m = float(np.sum(1.0 / np.arange(1, m + 1)))
    thresholds = np.arange(1, m + 1) * q / (m * c_m)
    passing = np.nonzero(p[order] <= thresholds)[0]
    if passing.size:
        k = passing.max() + 1  # accept everything up to the largest passing index
        mask[order[:k]] = True
    return mask


def discretize(x: np.ndarray, bins: int) -> np.ndarray:
    """Integer codes for MI: binary columns keep their natural levels, continuous
    columns get quantile bins (tied quantiles collapse)."""
    if bins < 2:
        raise ValueError("bins must be >= 2")
    uniq = np.unique(x)
    if uniq.size <= 2:
        codes = np.searchsorted(uniq, x)
    else:
        qs = np.quantile(x, np.linspace(0.0, 1.0, bins + 1)[1:-1])
        edges = np.unique(qs)
        codes = np.searchsorted(edges, x, side="left")
    _, codes = np.unique(codes, return_inverse=True)
    return codes


def mutual_information_codes(cx: np.ndarray, cy: np.ndarray) -> float:
    """Plug-in mutual information (natural log) of two equal-length code
    vectors from discretize."""
    kx = int(cx.max()) + 1
    ky = int(cy.max()) + 1
    if kx < 2 or ky < 2:
        return 0.0  # constant column carries no information
    joint = np.bincount(cx * ky + cy, minlength=kx * ky).astype(np.float64)
    joint = joint.reshape(kx, ky) / cx.size
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    nz = joint > 0
    outer = np.outer(px, py)
    mi = float(np.sum(joint[nz] * np.log(joint[nz] / outer[nz])))
    return max(0.0, mi)


def entropy_codes(codes: np.ndarray) -> float:
    """Plug-in entropy (natural log) of a code vector from discretize."""
    p = np.bincount(codes).astype(np.float64) / codes.size
    p = p[p > 0]
    return max(0.0, float(-np.sum(p * np.log(p))))


def mutual_information(x, y, bins: int = 8) -> float:
    """Plug-in mutual information (natural log) on quantile-binned values."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("mutual_information expects two equal-length 1-D arrays")
    return mutual_information_codes(discretize(x, bins), discretize(y, bins))


def entropy(x, bins: int = 8) -> float:
    """Plug-in entropy (natural log) of the discretized column."""
    return entropy_codes(discretize(np.asarray(x, dtype=np.float64), bins))


def wilcoxon_ranksum(a, b) -> tuple[float, float]:
    """Two-sided Wilcoxon rank-sum test via the normal approximation.

    Returns (U, p): U is the Mann-Whitney statistic for the first sample
    (pairwise wins plus half-ties); p uses midranks, the tie-corrected
    variance, and a continuity correction.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size == 0 or b.size == 0:
        raise ValueError("wilcoxon_ranksum expects two non-empty 1-D arrays")
    na, nb = a.size, b.size
    pooled = np.concatenate([a, b])
    n = na + nb
    order = np.argsort(pooled, kind="mergesort")
    ranks = np.empty(n, dtype=np.float64)
    sorted_vals = pooled[order]
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # midrank
        i = j + 1
    r_a = float(ranks[:na].sum())
    u = r_a - na * (na + 1) / 2.0
    mu = na * nb / 2.0
    # tie correction on the variance
    _, counts = np.unique(sorted_vals, return_counts=True)
    tie_term = float(np.sum(counts.astype(np.float64) ** 3 - counts)) / (n * (n - 1))
    var = na * nb / 12.0 * ((n + 1) - tie_term)
    if var <= 0:
        return u, 1.0
    diff = u - mu
    cc = 0.5 * math.copysign(1.0, diff) if diff != 0 else 0.0
    z = (diff - cc) / math.sqrt(var)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return u, min(1.0, max(0.0, p))


@dataclass
class SimilarityMatrix:
    """Dense feature-by-feature similarity with labeled axes.

    `degenerate[i, j]` marks entries whose statistic was undefined (zero
    variance or zero vector) and recorded as 0.
    """

    row_label: str
    col_label: str
    row_features: list[str]
    col_features: list[str]
    values: np.ndarray
    mode: str = "pearson"
    degenerate: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.row_features), len(self.col_features)):
            raise ValueError("values shape does not match feature lists")
        if np.any(~np.isfinite(self.values)):
            raise ValueError("similarity values must be finite")
        if self.degenerate is None:
            self.degenerate = np.zeros(self.values.shape, dtype=bool)
        elif self.degenerate.shape != self.values.shape:
            raise ValueError("degenerate mask shape mismatch")

    def submatrix(self, row_names, col_names) -> "SimilarityMatrix":
        ri = [self.row_features.index(r) for r in row_names]
        ci = [self.col_features.index(c) for c in col_names]
        return SimilarityMatrix(
            row_label=self.row_label,
            col_label=self.col_label,
            row_features=list(row_names),
            col_features=list(col_names),
            values=self.values[np.ix_(ri, ci)],
            mode=self.mode,
            degenerate=self.degenerate[np.ix_(ri, ci)],
        )

    def transposed(self) -> "SimilarityMatrix":
        return SimilarityMatrix(
            row_label=self.col_label,
            col_label=self.row_label,
            row_features=list(self.col_features),
            col_features=list(self.row_features),
            values=self.values.T.copy(),
            mode=self.mode,
            degenerate=self.degenerate.T.copy(),
        )

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"{self.row_label}\\{self.col_label}"] + self.col_features)
            for i, rname in enumerate(self.row_features):
                writer.writerow([rname] + [f"{v:.10g}" for v in self.values[i]])


def pearson_matrix(x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column-by-column Pearson correlations between two row-aligned matrices.

    Returns (values, degenerate_mask); degenerate columns give 0 rows/cols.
    """
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if x.shape[0] != z.shape[0]:
        raise ValueError("row counts differ")
    if x.shape[0] < 3:
        raise ValueError("need at least 3 rows")
    xc = x - x.mean(axis=0)
    zc = z - z.mean(axis=0)
    xs = np.sqrt((xc * xc).sum(axis=0))
    zs = np.sqrt((zc * zc).sum(axis=0))
    bad_x = xs == 0
    bad_z = zs == 0
    xs_safe = np.where(bad_x, 1.0, xs)
    zs_safe = np.where(bad_z, 1.0, zs)
    corr = (xc / xs_safe).T @ (zc / zs_safe)
    corr = np.clip(corr, -1.0, 1.0)
    degen = np.zeros(corr.shape, dtype=bool)
    degen[bad_x, :] = True
    degen[:, bad_z] = True
    corr[degen] = 0.0
    return corr, degen
