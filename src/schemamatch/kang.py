"""Dependency-graph matching baseline: within-database mutual-information
matrices compared across databases under a feature assignment, optimized by
random-restart hill climbing over pairwise swaps. Unequal feature counts are
padded with knock-off columns (within-column shuffles of real data)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stats import discretize, entropy_codes, mutual_information_pairs

SWAP_BLOCK = 64  # swap proposals scored per vectorized pass


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
    positions >= mi_a's width are knock-offs, columns >= mi_b's width likewise."""

    assignment: np.ndarray
    pair_scores: np.ndarray  # per-position summed similarity contribution


def _mi_fill(out: np.ndarray, codes: list, start: int) -> None:
    """Write the entropy diagonal and each pair's mutual information (lower
    index first, mirrored) into every row and column of `out` from `start` on."""
    for j in range(start, len(codes)):
        out[j, j] = entropy_codes(codes[j])
    pairs = [(i, j) for j in range(start, len(codes)) for i in range(j)]
    if pairs:
        rows, cols = np.array(pairs).T
        out[rows, cols] = out[cols, rows] = mutual_information_pairs(codes, pairs)


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
    # binning commutes with a row shuffle, so a knock-off's codes are its source's, shuffled
    codes += [codes[src][rng.permutation(n)] for src in sources]
    out = np.zeros((width, width))
    out[:p, :p] = mi
    _mi_fill(out, codes, p)
    return out


def _pair_matrix(mi_a: np.ndarray, mi_b: np.ndarray, pi: np.ndarray,
                 cfg: KangConfig) -> np.ndarray:
    """Similarity term of every position pair (k, l) under pi; zero diagonal."""
    d2 = (mi_a - mi_b[np.ix_(pi, pi)]) ** 2
    terms = -d2 if cfg.metric == "euclidean" else np.exp(-d2 / cfg.alpha)
    np.fill_diagonal(terms, 0.0)
    return terms


def _objective(mi_a: np.ndarray, mi_b: np.ndarray, pi: np.ndarray,
               cfg: KangConfig) -> float:
    """Total similarity over unordered pairs; higher is better for both metrics."""
    terms = _pair_matrix(mi_a, mi_b, pi, cfg)
    return float(np.sum(terms[np.triu_indices(len(pi), k=1)]))


def _swap_gains(mi_a: np.ndarray, bp: np.ndarray, pos_i: np.ndarray, pos_j: np.ndarray,
                cfg: KangConfig) -> np.ndarray:
    """Objective gain of each proposal t, swapping the B columns at positions
    pos_i[t] and pos_j[t], where bp = mi_b[np.ix_(pi, pi)] under the current pi.
    Only the pairs (i, k) and (j, k) with k outside {i, j} change, so rows i and
    j of both symmetric matrices give a gain in O(p) (Taillard 1991). Each gain
    sums its own row, so it does not depend on the other proposals scored with it."""
    a_i, a_j, b_i, b_j = mi_a[pos_i], mi_a[pos_j], bp[pos_i], bp[pos_j]
    if cfg.metric == "euclidean":
        # the squares cancel: -2 * sum over k outside {i, j} of (a_ik - a_jk)(b_ik - b_jk)
        terms = -2.0 * ((a_i - a_j) * (b_i - b_j))
    else:
        # the two pairings the swap makes, then the two it breaks
        e = np.exp(-np.square([a_i - b_j, a_j - b_i, a_i - b_i, a_j - b_j]) / cfg.alpha)
        terms = e[0] + e[1] - e[2] - e[3]
    rows = np.arange(len(pos_i))
    terms[rows, pos_i] = terms[rows, pos_j] = 0.0
    return terms.sum(axis=1)


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

    Runs max(1, iterations // 500) random restarts. Each starts from a random
    permutation of the free columns, then draws all `iterations` proposals at
    once: ordered pairs of distinct free positions, uniform over the m(m - 1)
    choices. Proposals are scored SWAP_BLOCK at a time by `_swap_gains`, from
    rows of a cached mi_b[np.ix_(pi, pi)]; the first to raise the objective by
    more than 1e-15 is made, and scoring resumes at the proposal after it, so
    each proposal is scored against the assignment it would change. The best
    restart wins. With fewer than two free positions nothing is drawn. Both
    matrices must be symmetric (`mi_matrix` output is), since the gain and the
    objective read one triangle. With unequal sizes the smaller side is padded
    with knock-offs, which requires that side's data.
    """
    cfg = cfg or KangConfig()
    mi_a = np.asarray(mi_a, dtype=np.float64)
    mi_b = np.asarray(mi_b, dtype=np.float64)
    for side, mi in (("mi_a", mi_a), ("mi_b", mi_b)):
        if mi.ndim != 2 or mi.shape[0] != mi.shape[1]:
            raise ValueError(f"{side} must be square")
        if not np.array_equal(mi, mi.T):
            raise ValueError(f"{side} must be symmetric")
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
    m = len(free_pos)

    restarts = max(1, cfg.iterations // 500)
    best_pi = None
    best_obj = -np.inf
    for _ in range(restarts):
        pi = base.copy()
        pi[free_pos] = free_cols[rng.permutation(m)]
        obj = _objective(mi_a, mi_b, pi, cfg)
        if m >= 2:
            first = rng.integers(0, m, size=cfg.iterations)
            second = rng.integers(0, m - 1, size=cfg.iterations)
            second += second >= first  # skip `first`: distinct and uniform
            bp = mi_b[np.ix_(pi, pi)]
            pos_i, pos_j = free_pos[first], free_pos[second]
            start = 0
            while start < cfg.iterations:
                stop = start + SWAP_BLOCK
                gains = _swap_gains(mi_a, bp, pos_i[start:stop], pos_j[start:stop], cfg)
                passed = np.flatnonzero(gains > 1e-15)  # NaN never passes
                if passed.size:
                    t = start + int(passed[0])
                    i, j = int(pos_i[t]), int(pos_j[t])
                    obj += float(gains[passed[0]])
                    pi[i], pi[j] = pi[j], pi[i]
                    bp[[i, j]] = bp[[j, i]]
                    bp[:, [i, j]] = bp[:, [j, i]]
                    stop = t + 1  # bp changed: score again from the next proposal
                start = stop
        if obj > best_obj:
            best_obj = obj
            best_pi = pi

    return KangResult(best_pi, _pair_matrix(mi_a, mi_b, best_pi, cfg).sum(axis=1))
