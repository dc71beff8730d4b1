"""Stable matching and hold-out FDR filtering, checked against brute-force
enumeration of all stable matchings on small instances."""

import itertools
import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from scipy.special import betainc

from schemamatch.matcher import (
    MatchProposal,
    _stable_match,
    gale_shapley,
    holdout_filter,
    proposals_from_csv,
    proposals_to_csv,
)
from schemamatch.stats import SimilarityMatrix, by_stepdown, pearson, pearson_pvalue


def sim_matrix(values, degenerate=None):
    values = np.asarray(values, dtype=np.float64)
    rows = [f"a{i}" for i in range(values.shape[0])]
    cols = [f"b{j}" for j in range(values.shape[1])]
    if degenerate is None:
        degenerate = np.zeros(values.shape, bool)
    return SimilarityMatrix(row_features=rows, col_features=cols, values=values,
                            degenerate=degenerate)


# ------------------------------------------------------- brute-force oracle

def all_stable_matchings(values):
    """Every stable matching of a full (n_a x n_b) similarity matrix, by
    enumerating all maximal injective assignments and testing for blocking
    pairs directly. Ties break toward the lower index, mirroring a strict
    preference order, so stability is checked on the tie-broken preferences."""
    n_a, n_b = values.shape
    # strict preference keys: similarity, then lower index wins
    def a_pref(i, j):
        return (values[i, j], -j)

    def b_pref(j, i):
        return (values[i, j], -i)

    stable = []
    small, large = (n_a, n_b) if n_a <= n_b else (n_b, n_a)
    for combo in itertools.permutations(range(large), small):
        # pairs (i, j) with the smaller side fully matched
        if n_a <= n_b:
            pairs = list(enumerate(combo))
        else:
            pairs = [(i, j) for j, i in enumerate(combo)]
        match_a = {i: j for i, j in pairs}
        match_b = {j: i for i, j in pairs}
        blocked = False
        for i in range(n_a):
            for j in range(n_b):
                if match_a.get(i) == j:
                    continue
                a_gain = i not in match_a or a_pref(i, j) > a_pref(i, match_a[i])
                b_gain = j not in match_b or b_pref(j, i) > b_pref(j, match_b[j])
                if a_gain and b_gain:
                    blocked = True
                    break
            if blocked:
                break
        if not blocked:
            stable.append(dict(pairs))
    return stable


def _oracle_markets(rng, mask_rng):
    """Random markets as (sim, oracle keys): tie-free, rounded to one decimal
    so entries tie, and with about 20 % of cells flagged degenerate, which
    the oracle ranks as -inf."""
    for _ in range(200):
        shape = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        values = rng.random(shape)
        yield sim_matrix(values), values
        tied = np.round(values, 1)
        yield sim_matrix(tied), tied
        degen = mask_rng.random(shape) < 0.2
        yield sim_matrix(values, degen), np.where(degen, -np.inf, values)


def test_stable_and_applicant_optimal_vs_enumeration():
    markets = _oracle_markets(np.random.default_rng(40), np.random.default_rng(44))
    for trial, (sim, values) in enumerate(markets):
        n_a, n_b = values.shape
        got = {p.feature_a: p.feature_b for p in gale_shapley(sim)}
        got_idx = {int(a[1:]): int(b[1:]) for a, b in got.items()}
        stable = all_stable_matchings(values)
        assert stable, f"oracle found no stable matching at trial {trial}"
        assert got_idx in stable, f"unstable output at trial {trial}"
        # applicant-optimality: each applicant gets its best partner over all
        # stable matchings (applicants = the smaller side, rows on ties)
        if n_a <= n_b:
            for m in stable:
                for i, j in got_idx.items():
                    alt = m[i]
                    assert (values[i, j], -j) >= (values[i, alt], -alt)
        else:
            got_inv = {j: i for i, j in got_idx.items()}
            for m in stable:
                m_inv = {j: i for i, j in m.items()}
                for j, i in got_inv.items():
                    alt = m_inv[j]
                    assert (values[i, j], -i) >= (values[alt, j], -alt)


def test_output_is_full_matching_of_smaller_side():
    rng = np.random.default_rng(41)
    values = rng.random((3, 5))
    props = gale_shapley(sim_matrix(values))
    assert len(props) == 3
    assert len({p.feature_a for p in props}) == 3
    assert len({p.feature_b for p in props}) == 3
    # ordered by row feature
    assert [p.feature_a for p in props] == ["a0", "a1", "a2"]
    for p in props:
        assert not p.accepted
        assert p.rank_of_choice >= 1


def test_deterministic_under_repeats():
    rng = np.random.default_rng(42)
    values = rng.random((5, 5))
    sim = sim_matrix(values)
    assert gale_shapley(sim) == gale_shapley(sim)


def test_rank_of_choice_counts_proposals():
    # a0 and a1 both prefer b0; b0 prefers a0, so a1 settles for b1 on its
    # second proposal
    values = np.array([[0.9, 0.1], [0.8, 0.7]])
    props = gale_shapley(sim_matrix(values))  # a square market: the rows apply
    ranks = {p.feature_a: p.rank_of_choice for p in props}
    assert ranks == {"a0": 1, "a1": 2}
    pairs = {p.feature_a: p.feature_b for p in props}
    assert pairs == {"a0": "b0", "a1": "b1"}


def test_the_smaller_side_applies():
    # rank_of_choice counts down the applicant's list. On this tall market the
    # columns apply, and b1 wins a1 on its second proposal; had the rows
    # applied, a1 would have won b1 on its first. Transposed, the rows apply.
    values = np.array([[0.9, 0.8], [0.1, 0.7], [0.2, 0.3]])
    want = [("a0", "b0", 1), ("a1", "b1", 2)]
    for market in (values, values.T):
        props = gale_shapley(sim_matrix(market))
        assert [(p.feature_a, p.feature_b, p.rank_of_choice) for p in props] == want


def test_degenerate_entries_rank_last():
    values = np.array([[0.0, 0.2], [0.0, 0.9]])
    degen = np.array([[True, False], [True, False]])
    sim = SimilarityMatrix(row_features=["a0", "a1"], col_features=["b0", "b1"],
                           values=values, degenerate=degen)
    props = gale_shapley(sim)
    pairs = {p.feature_a: p.feature_b for p in props}
    # a1 wins b1 (0.9 > 0.2); a0 falls back to the degenerate b0
    assert pairs == {"a0": "b0", "a1": "b1"}


# ------------------------------------------------------- reference kernels
# Plain references: every preference list sorted up front, and each proposal
# scored alone with a scalar Pearson r and p-value. The kernels must return
# the same bits.

def _reference_stable_match(keys):
    n_app, n_rev = keys.shape
    pref = np.argsort(-keys, axis=1, kind="stable")
    next_choice = [0] * n_app
    held = {}
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
    return {i: (j, next_choice[i]) for j, i in held.items()}


def _keys(sim):
    return np.where(sim.degenerate, -np.inf, sim.values)


def _reference_gale_shapley(sim):
    keys = _keys(sim)
    n_rows, n_cols = keys.shape
    if n_rows <= n_cols:
        pairs = [(i, j, rank) for i, (j, rank) in _reference_stable_match(keys).items()]
    else:
        pairs = [(i, j, rank) for j, (i, rank) in _reference_stable_match(keys.T).items()]
    pairs.sort()
    return [MatchProposal(sim.row_features[i], sim.col_features[j],
                          float(sim.values[i, j]), rank_of_choice=rank)
            for i, j, rank in pairs]


def _reference_pearson(x, y):
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        return 0.0
    return max(-1.0, min(1.0, float(xc @ yc) / denom))


def _reference_pvalue(r, n):
    if abs(r) == 1.0:
        return 0.0
    df = n - 2
    t2 = r * r * df / (1.0 - r * r)
    return float(betainc(df / 2.0, 0.5, df / (df + t2)))


def _reference_holdout_filter(proposals, a_values, a_features, b_values, b_features, q):
    a_index = {name: i for i, name in enumerate(a_features)}
    b_index = {name: j for j, name in enumerate(b_features)}
    n = a_values.shape[0]
    stats = []
    for p in proposals:
        r = _reference_pearson(a_values[:, a_index[p.feature_a]],
                               b_values[:, b_index[p.feature_b]])
        stats.append((r, _reference_pvalue(r, n)))
    mask = by_stepdown(np.array([pv for _, pv in stats]), q)
    return [replace(p, holdout_stat=r, p_value=pv, accepted=bool(ok))
            for p, (r, pv), ok in zip(proposals, stats, mask)]


def _bits(proposals):
    """Every field, with floats as hex so -0.0 and 0.0 differ."""
    return [tuple(v.hex() if isinstance(v, float) else (type(v), v) for v in astuple(p))
            for p in proposals]


def _tied_market(rng, shape):
    """One-decimal values (so entries tie), zeros split between 0.0 and -0.0,
    and about 20 % of cells degenerate."""
    values = np.round(rng.standard_normal(shape), 1)
    zeros = values == 0.0
    values[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, -0.0, 0.0)
    return sim_matrix(values, rng.random(shape) < 0.2)


# "auto" is gale_shapley, which lets the smaller side apply; "rows_apply" and
# "cols_apply" run its kernel with that side of the market applying, so that
# the kernel is checked in both orientations on every shape
APPLICANTS = ["rows_apply", "cols_apply", "auto"]


def _ranks_equal_to_reference(sim, applicants):
    """Check a matching against the reference, bit for bit, and return the
    rank_of_choice of each matched pair."""
    if applicants == "auto":
        got = gale_shapley(sim)
        assert _bits(got) == _bits(_reference_gale_shapley(sim))
        return [p.rank_of_choice for p in got]
    keys = _keys(sim) if applicants == "rows_apply" else _keys(sim).T
    got = _stable_match(keys)
    assert got == _reference_stable_match(keys)
    return [rank for _, rank in got.values()]


@pytest.mark.parametrize("shape", [(200, 200), (240, 200), (200, 240)])
@pytest.mark.parametrize("applicants", APPLICANTS)
def test_gale_shapley_equals_reference_on_tied_markets(shape, applicants):
    rng = np.random.default_rng(60 + shape[0] + shape[1])
    sim = _tied_market(rng, shape)
    assert np.signbit(sim.values[sim.values == 0.0]).any()
    assert len(_ranks_equal_to_reference(sim, applicants)) == min(shape)


@pytest.mark.parametrize("applicants", APPLICANTS)
def test_gale_shapley_equals_reference_when_all_agree(applicants):
    # every applicant ranks the reviewers alike and every reviewer the
    # applicants alike, so nearly every applicant is rejected and sorted
    idx = np.arange(600.0)
    sim = sim_matrix(np.add.outer(idx, idx))
    assert sum(_ranks_equal_to_reference(sim, applicants)) > 600 * 300


@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0)])
@pytest.mark.parametrize("applicants", APPLICANTS)
def test_gale_shapley_empty_side(shape, applicants):
    sim = sim_matrix(np.zeros(shape))
    assert _ranks_equal_to_reference(sim, applicants) == []
    assert _reference_gale_shapley(sim) == []


# ------------------------------------------------------- hold-out filter

def _holdout_case(seed=50, n=200):
    """Hold-out matrices where a0<->b0 and a1<->b1 correlate strongly and
    a2<->b2 is pure noise."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, 3))
    b = np.empty((n, 3))
    b[:, 0] = a[:, 0] + 0.1 * rng.standard_normal(n)
    b[:, 1] = -a[:, 1] + 0.1 * rng.standard_normal(n)
    b[:, 2] = rng.standard_normal(n)
    props = [
        MatchProposal("a0", "b0", similarity=0.9, rank_of_choice=1),
        MatchProposal("a1", "b1", similarity=0.8, rank_of_choice=1),
        MatchProposal("a2", "b2", similarity=0.7, rank_of_choice=2),
    ]
    names_a = ["a0", "a1", "a2"]
    names_b = ["b0", "b1", "b2"]
    return props, a, names_a, b, names_b


def test_holdout_filter_accepts_correlated_pairs():
    props, a, na, b, nb = _holdout_case()
    out = holdout_filter(props, a, na, b, nb, q=0.05)
    assert [p.feature_a for p in out] == ["a0", "a1", "a2"]  # order preserved
    assert out[0].accepted and out[1].accepted
    assert not out[2].accepted
    assert out[0].holdout_stat == pytest.approx(pearson(a[:, 0], b[:, 0]), abs=1e-12)
    assert out[1].holdout_stat < 0  # sign kept, BY works on two-sided p
    n = a.shape[0]
    for p, orig in zip(out, props):
        assert p.p_value == pytest.approx(
            pearson_pvalue(pearson(a[:, int(orig.feature_a[1])],
                                   b[:, int(orig.feature_b[1])]), n), abs=1e-12)
    # acceptance equals BY on the reported p-values
    mask = by_stepdown(np.array([p.p_value for p in out]), q=0.05)
    assert [p.accepted for p in out] == mask.tolist()


def test_holdout_filter_validation():
    props, a, na, b, nb = _holdout_case()
    with pytest.raises(ValueError, match="row counts differ"):
        holdout_filter(props, a, na, b[:-1], nb)
    with pytest.raises(ValueError, match="at least 4"):
        holdout_filter(props, a[:3], na, b[:3], nb)
    bad = [MatchProposal("zz", "b0", similarity=0.1, rank_of_choice=1)]
    with pytest.raises(ValueError, match="missing from hold-out A"):
        holdout_filter(bad, a, na, b, nb)
    bad = [MatchProposal("a0", "zz", similarity=0.1, rank_of_choice=1)]
    with pytest.raises(ValueError, match="missing from hold-out B"):
        holdout_filter(bad, a, na, b, nb)


def test_holdout_filter_empty_and_null_data():
    _, a, na, b, nb = _holdout_case()
    assert holdout_filter([], a, na, b, nb) == []
    # independent columns: nothing should pass at q=0.05 (high probability,
    # fixed seed)
    rng = np.random.default_rng(51)
    a = rng.standard_normal((300, 3))
    b = rng.standard_normal((300, 3))
    props = [MatchProposal(f"a{i}", f"b{i}", similarity=0.1, rank_of_choice=1)
             for i in range(3)]
    out = holdout_filter(props, a, ["a0", "a1", "a2"], b, ["b0", "b1", "b2"])
    assert not any(p.accepted for p in out)


def test_holdout_filter_equals_reference():
    rng = np.random.default_rng(61)
    n = 40
    a = rng.standard_normal((n, 12))
    b = rng.standard_normal((n, 12))
    b[:, :4] += 0.8 * a[:, :4]
    a[:, 5] = 3.0  # zero variance: r = 0, p = 1
    a[:, 6] = np.arange(n, dtype=np.float64)
    b[:, 6] = 2.0 * a[:, 6] + 1.0  # exact +1: p = 0
    b[:, 7] = -a[:, 6]  # exact -1: p = 0
    names_a = [f"a{i}" for i in range(12)]
    names_b = [f"b{j}" for j in range(12)]
    pairs = [(0, 0), (1, 1), (2, 2), (3, 3), (4, 9), (5, 5), (6, 6), (6, 7),
             (8, 8), (9, 4), (10, 11), (11, 10)]
    props = [MatchProposal(f"a{i}", f"b{j}", similarity=0.1 * i, rank_of_choice=1 + i % 3)
             for i, j in pairs]
    got = holdout_filter(props, a, names_a, b, names_b, q=0.1)
    assert _bits(got) == _bits(_reference_holdout_filter(props, a, names_a, b, names_b, 0.1))
    by_pair = {(p.feature_a, p.feature_b): p for p in got}
    assert (by_pair["a5", "b5"].holdout_stat, by_pair["a5", "b5"].p_value) == (0.0, 1.0)
    assert (by_pair["a6", "b6"].holdout_stat, by_pair["a6", "b6"].p_value) == (1.0, 0.0)
    assert (by_pair["a6", "b7"].holdout_stat, by_pair["a6", "b7"].p_value) == (-1.0, 0.0)


# ------------------------------------------------------- CSV round trip

# what proposals_to_csv writes for test_proposals_csv_round_trip's proposals: every
# MatchProposal field in declaration order, floats as .10g, NaN as an empty cell, 1/0 bools
PROPOSALS_CSV = (
    "feature_a,feature_b,similarity,holdout_stat,p_value,accepted,rank_of_choice\r\n"
    "x,y,0.123456789,-0.5,0.001,1,1\r\n"
    "u,v,-1,,,0,0\r\n"
)


def _fields_repr(proposals):
    """Each proposal's field values as reprs, so that NaN equals NaN."""
    return [tuple(map(repr, astuple(p))) for p in proposals]


def test_proposals_csv_round_trip(tmp_path):
    props = [
        MatchProposal("x", "y", similarity=0.123456789, holdout_stat=-0.5,
                      p_value=0.001, accepted=True, rank_of_choice=1),
        MatchProposal("u", "v", similarity=-1.0),
    ]
    path = tmp_path / "p.csv"
    proposals_to_csv(props, path)
    assert path.read_bytes() == PROPOSALS_CSV.encode()
    back = proposals_from_csv(path)
    assert _fields_repr(back) == _fields_repr(props)
    assert back[0].feature_a == "x" and back[0].accepted
    assert back[0].similarity == pytest.approx(0.123456789, abs=1e-9)
    assert back[0].holdout_stat == pytest.approx(-0.5)
    assert back[1].similarity == -1.0
    assert math.isnan(back[1].holdout_stat) and math.isnan(back[1].p_value)
    assert not back[1].accepted and back[1].rank_of_choice == 0


def test_proposals_from_csv_reads_columns_in_any_order(tmp_path):
    header, *rows = [line.split(",") for line in PROPOSALS_CSV.splitlines()]
    order = [6, 0, 5, 2, 4, 1, 3]
    path = tmp_path / "p.csv"
    path.write_text("\n".join(",".join(r[i] for i in order) for r in [header, *rows]) + "\n")
    want = tmp_path / "want.csv"
    want.write_text(PROPOSALS_CSV)
    assert _fields_repr(proposals_from_csv(path)) == _fields_repr(proposals_from_csv(want))
    proposals_to_csv(proposals_from_csv(path), path)
    assert path.read_bytes() == PROPOSALS_CSV.encode()


@pytest.mark.parametrize("header, missing, unknown", [
    ("feature_a,feature_b,similarity,holdout_stat,accepted,rank_of_choice", ["p_value"], []),
    ("feature_a,feature_b,similarity,holdout_stat,p_value,accepted,rank_of_choice,note",
     [], ["note"]),
    ("feature_a,feature_b,similarity,holdout,p_value,accepted,rank_of_choice",
     ["holdout_stat"], ["holdout"]),
    ("", list(PROPOSALS_CSV.split("\r\n")[0].split(",")), []),
])
def test_proposals_from_csv_checks_the_header(tmp_path, header, missing, unknown):
    path = tmp_path / "p.csv"
    path.write_text(header + "\n" if header else "")
    with pytest.raises(ValueError) as err:
        proposals_from_csv(path)
    assert str(err.value).startswith(f"{path}: proposals header: ")
    assert f"missing {missing}, unknown {unknown}" in str(err.value)


def test_proposals_from_csv_rejects_a_repeated_column(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(PROPOSALS_CSV.replace("rank_of_choice", "rank_of_choice,accepted", 1))
    with pytest.raises(ValueError, match=r"repeated \['accepted'\]"):
        proposals_from_csv(path)
