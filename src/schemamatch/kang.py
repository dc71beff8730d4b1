"""Dependency-graph matching baseline: within-database mutual-information
matrices compared across databases under a feature assignment, optimized by
random-restart hill climbing over pairwise swaps. Unequal feature counts are
padded with knock-off columns (within-column shuffles of real data)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stats import discretize, entropy_codes, mutual_information_pairs

SCREEN_BLOCK = 64  # swap proposals scored per vectorized pass of the screen
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


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


def _swap_gain(mi_a: np.ndarray, bp: np.ndarray, i: int, j: int,
               cfg: KangConfig) -> float:
    """Objective gain from swapping the B columns at positions i and j, where
    bp = mi_b[np.ix_(pi, pi)] under the current pi. Only the pairs (i, k) and
    (j, k) with k outside {i, j} change, so rows i and j of both symmetric
    matrices give the gain in O(p) (Taillard 1991)."""
    a_i, a_j, b_i, b_j = mi_a[i], mi_a[j], bp[i], bp[j]
    if cfg.metric == "euclidean":
        # the squares cancel: -2 * sum over k outside {i, j} of (a_ik - a_jk)(b_ik - b_jk)
        da = a_i - a_j
        db = b_i - b_j
        return -2.0 * float(da @ db - da[i] * db[i] - da[j] * db[j])
    # the two pairings the swap makes, then the two it breaks
    e = np.exp(-np.square([a_i - b_j, a_j - b_i, a_i - b_i, a_j - b_j]) / cfg.alpha)
    terms = e[0] + e[1] - e[2] - e[3]
    terms[i] = terms[j] = 0.0
    return float(terms.sum())


def _screen(mi_a: np.ndarray, bp: np.ndarray, pos_i: np.ndarray, pos_j: np.ndarray,
            cfg: KangConfig) -> tuple[np.ndarray, np.ndarray]:
    """Score a block of proposals (pos_i[t], pos_j[t]) against one bp at once.

    Returns each gain as `_swap_gain` computes it but summed in another order,
    and a margin of four times a bound on its distance from `_swap_gain`'s
    float result. The two sums add the same float terms, so each is within
    gamma_n * M of the exact sum (Higham 2002, section 3.1), where M sums the
    magnitudes added: at most 4 * sum_k |da_k db_k| for a Euclidean gain (-2
    times the full dot less two of its terms), and all four exps of every
    normal-metric term. n = p + 16 also covers exps a few ulps apart.
    """
    rows = np.arange(len(pos_i))
    a_i, a_j, b_i, b_j = mi_a[pos_i], mi_a[pos_j], bp[pos_i], bp[pos_j]
    if cfg.metric == "euclidean":
        terms = (a_i - a_j) * (b_i - b_j)
        magnitude = 4.0 * np.abs(terms).sum(axis=1)
        scale = -2.0
    else:
        e = np.exp(-np.square([a_i - b_j, a_j - b_i, a_i - b_i, a_j - b_j]) / cfg.alpha)
        magnitude = e.sum(axis=(0, 2))
        terms = e[0] + e[1] - e[2] - e[3]
        scale = 1.0
    terms[rows, pos_i] = terms[rows, pos_j] = 0.0
    n = mi_a.shape[0] + 16
    gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    return scale * terms.sum(axis=1), 4.0 * 2.0 * gamma * magnitude


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
    choices. A proposal is scored by `_swap_gain` in O(p) from rows of a cached
    mi_b[np.ix_(pi, pi)] and kept only if it raises the objective by more than
    1e-15; the best restart wins. `_screen` scores SCREEN_BLOCK proposals at a
    time, and only those its error margin cannot rule out go through
    `_swap_gain`, in order, so the accepted swaps are those of a plain loop.
    With fewer than two free positions nothing is drawn. Both matrices must be
    symmetric (`mi_matrix` output is), since the gain and the objective read
    one triangle. With unequal sizes the smaller side is padded with
    knock-offs, which requires that side's data.
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
                stop = start + SCREEN_BLOCK
                value, margin = _screen(mi_a, bp, pos_i[start:stop], pos_j[start:stop], cfg)
                # at or below 1e-15 - margin a proposal cannot pass _swap_gain's
                # test; _swap_gain decides every other one, NaN included
                survivors = start + np.flatnonzero(~(value <= 1e-15 - margin))
                start = stop
                for t in survivors.tolist():
                    i, j = int(pos_i[t]), int(pos_j[t])
                    gain = _swap_gain(mi_a, bp, i, j, cfg)
                    if gain > 1e-15:
                        obj += gain
                        pi[i], pi[j] = pi[j], pi[i]
                        bp[[i, j]] = bp[[j, i]]
                        bp[:, [i, j]] = bp[:, [j, i]]
                        start = t + 1  # bp changed: score again from the next proposal
                        break
        if obj > best_obj:
            best_obj = obj
            best_pi = pi

    return KangResult(
        assignment=best_pi,
        n_real_a=n_real_a,
        n_real_b=n_real_b,
        pair_scores=_pair_matrix(mi_a, mi_b, best_pi, cfg).sum(axis=1),
    )
