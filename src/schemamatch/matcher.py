"""Stable matching of feature proposals and hold-out false-discovery filtering."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .stats import SimilarityMatrix, by_stepdown, pearson, pearson_pvalue


@dataclass(frozen=True)
class MatchProposal:
    """One proposed feature pair. `feature_a` always names the row side of the
    similarity matrix that produced it. rank_of_choice is 1-based from the
    applicant's preference list; the default 0 marks a proposal that did not
    come from one."""

    feature_a: str
    feature_b: str
    similarity: float
    holdout_stat: float = math.nan
    p_value: float = math.nan
    accepted: bool = False
    rank_of_choice: int = 0


def _stable_match(keys: np.ndarray) -> dict[int, tuple[int, int]]:
    """Applicant-proposing deferred acceptance on an (applicants x reviewers)
    key array. Both sides prefer the higher key, then the lower index.
    Returns {applicant: (reviewer, rank_of_choice)}.
    """
    n_app, n_rev = keys.shape
    pref = np.argsort(-keys, axis=1, kind="stable")
    next_choice = [0] * n_app
    held: dict[int, int] = {}  # reviewer -> applicant
    free = list(range(n_app - 1, -1, -1))
    while free:
        i = free.pop()
        while next_choice[i] < n_rev:
            j = int(pref[i, next_choice[i]])
            next_choice[i] += 1
            cur = held.get(j)
            if cur is None:
                held[j] = i
                break
            if (keys[i, j], -i) > (keys[cur, j], -cur):
                held[j] = i
                free.append(cur)
                break
        # applicants that exhaust their list stay unmatched
    return {i: (j, next_choice[i]) for j, i in held.items()}  # next_choice counts the match


def gale_shapley(sim: SimilarityMatrix, direction: str = "auto") -> list[MatchProposal]:
    """Stable one-to-one matching over a similarity matrix. Degenerate entries
    rank last on both sides.

    direction: "auto" lets the smaller side apply (ties: rows apply),
    "rows_apply" or "cols_apply" force it. Output is ordered by row-feature
    index; unmatched features are omitted. Proposals come back unaccepted;
    run holdout_filter (or mark explicitly) before treating them as matches.
    """
    if direction not in ("auto", "rows_apply", "cols_apply"):
        raise ValueError(f"unknown direction {direction!r}")
    keys = np.where(sim.degenerate, -np.inf, sim.values)
    n_rows, n_cols = keys.shape
    if direction == "rows_apply" or (direction == "auto" and n_rows <= n_cols):
        pairs = [(i, j, rank) for i, (j, rank) in _stable_match(keys).items()]
    else:
        pairs = [(i, j, rank) for j, (i, rank) in _stable_match(keys.T).items()]
    pairs.sort()
    return [
        MatchProposal(
            feature_a=sim.row_features[i],
            feature_b=sim.col_features[j],
            similarity=float(sim.values[i, j]),
            rank_of_choice=rank,
        )
        for i, j, rank in pairs
    ]


def holdout_filter(
    proposals: list[MatchProposal],
    a_values: np.ndarray,
    a_features,
    b_values: np.ndarray,
    b_features,
    q: float = 0.05,
) -> list[MatchProposal]:
    """Score each proposal with Pearson r between held-out columns, then accept
    via Benjamini-Yekutieli at level q.

    `a_values`/`b_values` are row-aligned hold-out matrices (same rows); for the
    network stage `b_values` is the translated hold-out block, for the
    fingerprint stage the linear fingerprint translation.
    """
    a_values = np.asarray(a_values, dtype=np.float64)
    b_values = np.asarray(b_values, dtype=np.float64)
    if a_values.shape[0] != b_values.shape[0]:
        raise ValueError("hold-out row counts differ")
    if a_values.shape[0] < 4:
        raise ValueError("need at least 4 hold-out rows for p-values")
    a_index = {name: i for i, name in enumerate(a_features)}
    b_index = {name: j for j, name in enumerate(b_features)}
    n = a_values.shape[0]

    stats = []
    for p in proposals:
        if p.feature_a not in a_index:
            raise ValueError(f"proposal feature {p.feature_a!r} missing from hold-out A")
        if p.feature_b not in b_index:
            raise ValueError(f"proposal feature {p.feature_b!r} missing from hold-out B")
        r = pearson(a_values[:, a_index[p.feature_a]], b_values[:, b_index[p.feature_b]])
        stats.append((r, pearson_pvalue(r, n)))
    mask = by_stepdown(np.array([pv for _, pv in stats]), q)
    return [
        replace(p, holdout_stat=r, p_value=pv, accepted=bool(ok))
        for p, (r, pv), ok in zip(proposals, stats, mask)
    ]


def proposals_to_csv(proposals: list[MatchProposal], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["feature_a", "feature_b", "similarity", "holdout_stat",
             "p_value", "accepted", "rank_of_choice"]
        )
        for p in proposals:
            writer.writerow(
                [
                    p.feature_a,
                    p.feature_b,
                    f"{p.similarity:.10g}",
                    "" if math.isnan(p.holdout_stat) else f"{p.holdout_stat:.10g}",
                    "" if math.isnan(p.p_value) else f"{p.p_value:.10g}",
                    "1" if p.accepted else "0",
                    str(p.rank_of_choice),
                ]
            )


def proposals_from_csv(path) -> list[MatchProposal]:
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            out.append(
                MatchProposal(
                    feature_a=row["feature_a"],
                    feature_b=row["feature_b"],
                    similarity=float(row["similarity"]),
                    holdout_stat=float(row["holdout_stat"]) if row["holdout_stat"] else math.nan,
                    p_value=float(row["p_value"]) if row["p_value"] else math.nan,
                    accepted=row["accepted"] == "1",
                    rank_of_choice=int(row["rank_of_choice"]),
                )
            )
    return out
