"""Stable matching of feature proposals and hold-out false-discovery filtering."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import get_type_hints

import numpy as np

from .stats import SimilarityMatrix, by_stepdown, pearson_pvalues, pearson_rows


@dataclass(frozen=True)
class MatchProposal:
    """One proposed feature pair: `feature_a` is database A's feature and
    `feature_b` database B's; gale_shapley puts the similarity matrix's row
    feature in `feature_a`. rank_of_choice is 1-based from the applicant's
    preference list; the default 0 marks a proposal that did not come from
    one."""

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

    Preference lists are built lazily: every first choice comes from one
    argmax (the first maximum heads the stable descending order), and an
    applicant's full row is sorted only once it is first rejected.
    """
    n_app, n_rev = keys.shape
    if n_rev == 0:
        return {}
    first = np.argmax(keys, axis=1).tolist()
    pref: dict[int, np.ndarray] = {}  # applicant -> sorted row, once rejected
    next_choice = [0] * n_app
    held: dict[int, int] = {}  # reviewer -> applicant
    free = list(range(n_app - 1, -1, -1))
    while free:
        i = free.pop()
        while next_choice[i] < n_rev:
            if next_choice[i] == 0:
                j = first[i]
            else:
                if i not in pref:
                    pref[i] = np.argsort(-keys[i], kind="stable")
                j = int(pref[i][next_choice[i]])
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


def gale_shapley(sim: SimilarityMatrix) -> list[MatchProposal]:
    """Stable one-to-one matching over a similarity matrix. Degenerate entries
    rank last on both sides. The smaller side applies (ties: rows apply).

    Output is ordered by row-feature index; unmatched features are omitted.
    Proposals come back unaccepted; run holdout_filter (or mark explicitly)
    before treating them as matches.
    """
    keys = np.where(sim.degenerate, -np.inf, sim.values)
    n_rows, n_cols = keys.shape
    if n_rows <= n_cols:
        matched = _stable_match(keys)
    else:
        matched = {i: (j, rank) for j, (i, rank) in _stable_match(keys.T).items()}
    return [MatchProposal(sim.row_features[i], sim.col_features[j], float(sim.values[i, j]),
                          rank_of_choice=rank)
            for i, (j, rank) in sorted(matched.items())]


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

    q bounds the expected share of accepted pairs whose hold-out correlation is
    truly zero, not the share of wrong matches: a wrong partner is usually
    correlated too (0.068 of KMF's accepted pairs on criterion 1's grid at 0.05).

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
    ia, ib = [], []
    for p in proposals:
        if p.feature_a not in a_index:
            raise ValueError(f"proposal feature {p.feature_a!r} missing from hold-out A")
        if p.feature_b not in b_index:
            raise ValueError(f"proposal feature {p.feature_b!r} missing from hold-out B")
        ia.append(a_index[p.feature_a])
        ib.append(b_index[p.feature_b])

    r = pearson_rows(a_values[:, ia].T, b_values[:, ib].T)
    pv = pearson_pvalues(r, n)
    mask = by_stepdown(pv, q)
    return [replace(p, holdout_stat=rt, p_value=pt, accepted=ok)
            for p, rt, pt, ok in zip(proposals, r.tolist(), pv.tolist(), mask.tolist())]


def _parse_bool(s: str) -> bool:
    if s not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {s!r}")
    return s == "1"


# (format, parse) of a proposals.csv cell by field type; a NaN float is an empty cell
_CELLS = {str: (str, str), int: (str, int),
          bool: (lambda v: "1" if v else "0", _parse_bool),
          float: (lambda v: "" if math.isnan(v) else f"{v:.10g}",
                  lambda s: float(s) if s else math.nan)}
# one column per MatchProposal field, in field order
_COLUMNS = {name: _CELLS[tp] for name, tp in get_type_hints(MatchProposal).items()}


def proposals_to_csv(proposals: list[MatchProposal], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_COLUMNS)
        for p in proposals:
            writer.writerow([fmt(getattr(p, name)) for name, (fmt, _) in _COLUMNS.items()])


def proposals_from_csv(path) -> list[MatchProposal]:
    """Read proposals_to_csv's output. The header must name every
    MatchProposal field exactly once, in any order. A row with another cell
    count, or a cell its field cannot hold, is an error naming its line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [name for name in _COLUMNS if name not in header]
        unknown = sorted(set(header) - set(_COLUMNS))
        repeated = sorted({c for c in header if header.count(c) > 1})
        if missing or unknown or repeated:
            raise ValueError(f"{path}: proposals header: missing {missing}, "
                             f"unknown {unknown}, repeated {repeated}")
        proposals = []
        for row in filter(None, reader):  # blank lines hold no proposal
            where = f"{path}: line {reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where} has {len(row)} cells, the header has {len(header)}")
            fields = {}
            for name, cell in zip(header, row):
                try:
                    fields[name] = _COLUMNS[name][1](cell)
                except ValueError as exc:
                    raise ValueError(f"{where}, column {name!r}: {exc}") from None
            proposals.append(MatchProposal(**fields))
        return proposals
