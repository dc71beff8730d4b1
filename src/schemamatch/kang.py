"""Dependency-graph matching baseline: within-database mutual-information
matrices compared across databases under a feature assignment, optimized by
random-restart hill climbing over pairwise swaps. Unequal feature counts are
padded with knock-off columns (within-column shuffles of real data)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stats import discretize, entropy_codes, mutual_information_codes


@dataclass(frozen=True)
class KangConfig:
    metric: str = "euclidean"  # "euclidean" (minimize) | "normal" (maximize)
    alpha: float = 2.0
    iterations: int = 3000
    seed: int = 0
    bins: int = 8

    def __post_init__(self):
        if self.bins < 2:
            raise ValueError("bins must be >= 2")
        if self.metric not in ("euclidean", "normal"):
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")


@dataclass
class KangResult:
    """assignment[i] = B-column matched to A-column i (padded indexing);
    positions >= n_real_a are knock-offs, columns >= n_real_b likewise."""

    assignment: np.ndarray
    n_real_a: int
    n_real_b: int
    pair_scores: np.ndarray  # per-position summed similarity contribution


def _mi_fill(out: np.ndarray, codes: list, start: int) -> None:
    """Write the entropy diagonal and each pair's mutual information (lower
    index first, mirrored) into every row and column of `out` from `start` on."""
    for j in range(start, len(codes)):
        out[j, j] = entropy_codes(codes[j])
        for i in range(j):
            out[i, j] = out[j, i] = mutual_information_codes(codes[i], codes[j])


def mi_matrix(values: np.ndarray, bins: int = 8) -> np.ndarray:
    """Symmetric pairwise mutual information; the diagonal holds entropies."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("values must be 2-D")
    codes = [discretize(col, bins) for col in values.T]  # bin each column once
    out = np.zeros((len(codes), len(codes)))
    _mi_fill(out, codes, 0)
    return out


def _knockoff_pad(side: str, mi: np.ndarray, data, width: int, rng, bins: int) -> np.ndarray:
    """Extend database `side` ("a" or "b") to `width` columns with shuffled
    copies of randomly chosen real columns and return the enlarged MI matrix;
    a side already `width` wide is returned as is, without drawing from rng.

    `mi` must be `mi_matrix(data, bins)` (as `run_kang` computes it): it is
    copied into the real block, and only the knock-off rows and columns are
    computed, so the result equals `mi_matrix` of the padded table.
    """
    p = mi.shape[0]
    if p == width:
        return mi
    if data is None:
        raise ValueError(f"padding {side.upper()} with knock-offs requires data_{side}")
    values = np.asarray(data, dtype=np.float64)
    if values.shape[1] != p:
        raise ValueError(f"data_{side} width does not match mi_{side}")
    n = values.shape[0]
    sources = rng.integers(0, p, size=width - p)
    codes = [discretize(col, bins) for col in values.T]
    codes += [discretize(values[rng.permutation(n), src], bins) for src in sources]
    out = np.zeros((width, width))
    out[:p, :p] = mi
    _mi_fill(out, codes, p)
    return out


def _pair_terms(mi_a: np.ndarray, mi_b: np.ndarray, pi: np.ndarray,
                i: int, cfg: KangConfig) -> np.ndarray:
    """Similarity terms between position i and every other position under pi."""
    diffs = mi_a[i, :] - mi_b[pi[i], pi]
    if cfg.metric == "euclidean":
        terms = -(diffs * diffs)
    else:
        terms = np.exp(-(diffs * diffs) / cfg.alpha)
    terms[i] = 0.0
    return terms


def _objective(mi_a: np.ndarray, mi_b: np.ndarray, pi: np.ndarray,
               cfg: KangConfig) -> float:
    """Total similarity over unordered pairs; higher is better for both metrics."""
    perm = mi_b[np.ix_(pi, pi)]
    diffs = mi_a - perm
    iu = np.triu_indices(mi_a.shape[0], k=1)
    d2 = diffs[iu] ** 2
    if cfg.metric == "euclidean":
        return float(-np.sum(d2))
    return float(np.sum(np.exp(-d2 / cfg.alpha)))


def kang_match(
    mi_a: np.ndarray,
    mi_b: np.ndarray,
    known_pairs=(),
    cfg: KangConfig | None = None,
    *,
    data_a: np.ndarray | None = None,
    data_b: np.ndarray | None = None,
) -> KangResult:
    """Search for the assignment of B columns to A columns that best aligns the
    two MI matrices. known_pairs (index pairs) are fixed and never swapped.

    Runs max(1, iterations // 500) random restarts of `iterations` proposed
    pairwise swaps each, keeping the best objective seen. With unequal sizes
    the smaller side is padded with knock-offs, which requires that side's data.
    """
    cfg = cfg or KangConfig()
    mi_a = np.asarray(mi_a, dtype=np.float64)
    mi_b = np.asarray(mi_b, dtype=np.float64)
    if mi_a.ndim != 2 or mi_a.shape[0] != mi_a.shape[1]:
        raise ValueError("mi_a must be square")
    if mi_b.ndim != 2 or mi_b.shape[0] != mi_b.shape[1]:
        raise ValueError("mi_b must be square")
    n_real_a = mi_a.shape[0]
    n_real_b = mi_b.shape[0]
    rng = np.random.default_rng(cfg.seed)

    p = max(n_real_a, n_real_b)
    mi_a = _knockoff_pad("a", mi_a, data_a, p, rng, cfg.bins)
    mi_b = _knockoff_pad("b", mi_b, data_b, p, rng, cfg.bins)

    fixed_a = set()
    fixed_b = set()
    base = -np.ones(p, dtype=np.int64)
    for ia, ib in known_pairs:
        ia, ib = int(ia), int(ib)
        if not (0 <= ia < n_real_a and 0 <= ib < n_real_b):
            raise ValueError(f"known pair ({ia}, {ib}) out of range")
        if ia in fixed_a or ib in fixed_b:
            raise ValueError("a feature appears in two known pairs")
        fixed_a.add(ia)
        fixed_b.add(ib)
        base[ia] = ib
    free_pos = np.array([i for i in range(p) if i not in fixed_a], dtype=np.int64)
    free_cols = np.array([j for j in range(p) if j not in fixed_b], dtype=np.int64)

    restarts = max(1, cfg.iterations // 500)
    best_pi = None
    best_obj = -np.inf
    for _ in range(restarts):
        pi = base.copy()
        pi[free_pos] = free_cols[rng.permutation(len(free_cols))]
        obj = _objective(mi_a, mi_b, pi, cfg)
        if len(free_pos) >= 2:
            for _ in range(cfg.iterations):
                i, j = free_pos[rng.choice(len(free_pos), size=2, replace=False)]
                ti = _pair_terms(mi_a, mi_b, pi, i, cfg)
                tj = _pair_terms(mi_a, mi_b, pi, j, cfg)
                before = ti.sum() + tj.sum() - ti[j]
                pi[i], pi[j] = pi[j], pi[i]
                ti = _pair_terms(mi_a, mi_b, pi, i, cfg)
                tj = _pair_terms(mi_a, mi_b, pi, j, cfg)
                after = ti.sum() + tj.sum() - ti[j]
                if after > before + 1e-15:
                    obj += after - before
                else:
                    pi[i], pi[j] = pi[j], pi[i]  # revert
        if obj > best_obj:
            best_obj = obj
            best_pi = pi.copy()

    scores = np.array([_pair_terms(mi_a, mi_b, best_pi, i, cfg).sum() for i in range(p)])
    return KangResult(
        assignment=best_pi,
        n_real_a=n_real_a,
        n_real_b=n_real_b,
        pair_scores=scores,
    )
