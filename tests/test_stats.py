"""Statistics layer: frozen closed-form oracles, independent reimplementations,
and property tests."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st_
from hypothesis.extra import numpy as hnp
from scipy import stats as sps

from helpers import reference_discretize, reference_mi_codes

from schemamatch.stats import (
    SimilarityMatrix,
    by_stepdown,
    cosine,
    cosine_matrix,
    discretize,
    entropy,
    mutual_information,
    mutual_information_codes,
    mutual_information_pairs,
    pearson,
    pearson_matrix,
    pearson_pvalue,
    wilcoxon_ranksum,
)

# ---------------------------------------------------------------- pearson

def test_pearson_hand_value():
    # x_bar = y_bar = 3, sum xy = 53, so cov = 1.6 and both sds are sqrt(2)
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    y = np.array([2.0, 1.0, 4.0, 3.0, 5.0])
    assert pearson(x, y) == pytest.approx(0.8, abs=1e-12)


def test_pearson_perfect_and_sign():
    x = np.array([0.3, 1.7, 2.1, 5.5])
    assert pearson(x, 2.0 * x + 1.0) == pytest.approx(1.0, abs=1e-12)
    assert pearson(x, -0.5 * x + 3.0) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_zero_variance_degenerate():
    x = np.ones(10)
    y = np.arange(10.0)
    assert pearson(x, y) == 0.0
    assert pearson(y, x) == 0.0


def test_pearson_input_validation():
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0, 2.0])  # too few observations
    with pytest.raises(ValueError):
        pearson([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        pearson(np.ones((3, 2)), np.ones((3, 2)))


@given(
    hnp.arrays(np.float64, st_.integers(3, 40),
               elements=st_.floats(-100.0, 100.0, allow_nan=False)),
    st_.floats(0.1, 100.0),
    st_.floats(-50.0, 50.0),
)
def test_pearson_affine_invariance(x, a, b):
    assume(float(np.std(x)) > 0.01)
    rng = np.random.default_rng(7)
    y = rng.standard_normal(x.size)
    r1 = pearson(x, y)
    r2 = pearson(a * x + b, y)
    assert abs(r1) <= 1.0
    assert r2 == pytest.approx(r1, abs=1e-9)


def test_pearson_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(50)
        y = rng.standard_normal(50) + 0.5 * x
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)


# ---------------------------------------------------------------- cosine

def test_cosine_hand_values():
    assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-15)
    assert cosine([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.0, abs=1e-12)
    assert cosine([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(-1.0, abs=1e-12)
    # (1,1) vs (1,0): cos = 1/sqrt(2)
    assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_cosine_zero_vector_degenerate():
    assert cosine(np.zeros(4), np.ones(4)) == 0.0


@given(
    hnp.arrays(np.float64, 6, elements=st_.floats(-100, 100, allow_nan=False)),
    hnp.arrays(np.float64, 6, elements=st_.floats(-100, 100, allow_nan=False)),
)
def test_cosine_bounded_and_symmetric(u, v):
    c = cosine(u, v)
    assert -1.0 <= c <= 1.0
    assert cosine(v, u) == pytest.approx(c, abs=1e-12)


def test_cosine_independent_formula():
    rng = np.random.default_rng(11)
    for _ in range(30):
        u = rng.standard_normal(9)
        v = rng.standard_normal(9)
        direct = math.fsum(a * b for a, b in zip(u, v)) / (
            math.sqrt(math.fsum(a * a for a in u)) * math.sqrt(math.fsum(b * b for b in v))
        )
        assert cosine(u, v) == pytest.approx(direct, abs=1e-12)


# ---------------------------------------------------------------- p-values

# frozen against the Student-t survival function: p = 2 * sf(|r| sqrt((n-2)/(1-r^2)), n-2)
PVALUE_ORACLES = [
    (0.5, 30, 0.004899933667068085),
    (0.1, 10, 0.78342440625),
    (0.3, 25, 0.1451130813736451),
    (0.7, 12, 0.011257326210937498),
    (0.9, 8, 0.002316249999999999),
    (0.2, 100, 0.04603628646005433),
    (0.05, 1000, 0.11407259555107681),
    (0.95, 5, 0.013320011010141245),
]


@pytest.mark.parametrize("r,n,expected", PVALUE_ORACLES)
def test_pearson_pvalue_frozen_oracles(r, n, expected):
    assert pearson_pvalue(r, n) == pytest.approx(expected, abs=1e-12)
    assert pearson_pvalue(-r, n) == pytest.approx(expected, abs=1e-12)


def test_pearson_pvalue_against_t_distribution():
    rng = np.random.default_rng(5)
    for _ in range(50):
        r = float(rng.uniform(-0.99, 0.99))
        n = int(rng.integers(4, 500))
        t = abs(r) * math.sqrt((n - 2) / (1.0 - r * r))
        expected = 2.0 * float(sps.t.sf(t, n - 2))
        assert pearson_pvalue(r, n) == pytest.approx(expected, abs=1e-10)


def test_pearson_pvalue_edges():
    assert pearson_pvalue(1.0, 10) == 0.0
    assert pearson_pvalue(-1.0, 10) == 0.0
    assert pearson_pvalue(0.0, 10) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        pearson_pvalue(0.5, 3)
    with pytest.raises(ValueError):
        pearson_pvalue(math.nan, 10)


def test_pearson_pvalue_monotone():
    # stronger correlation and larger samples both shrink the p-value
    ps = [pearson_pvalue(r, 30) for r in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(a > b for a, b in zip(ps, ps[1:]))
    pn = [pearson_pvalue(0.3, n) for n in (5, 10, 50, 200)]
    assert all(a > b for a, b in zip(pn, pn[1:]))


# ---------------------------------------------------------------- BY step-down

def by_oracle(pvalues, q):
    """Direct threshold evaluation of the step-down rule, written independently:
    scan sorted p-values for the largest index meeting its threshold."""
    m = len(pvalues)
    c_m = sum(1.0 / j for j in range(1, m + 1))
    order = sorted(range(m), key=lambda i: pvalues[i])
    k_star = 0
    for rank0, idx in enumerate(order):
        if pvalues[idx] <= (rank0 + 1) * q / (m * c_m):
            k_star = rank0 + 1
    mask = [False] * m
    for idx in order[:k_star]:
        mask[idx] = True
    return np.array(mask)


def test_by_stepdown_hand_case():
    # m=4, c=25/12: thresholds 0.006, 0.012, 0.018, 0.024
    mask = by_stepdown(np.array([0.001, 0.01, 0.03, 0.2]), q=0.05)
    assert mask.tolist() == [True, True, False, False]


def test_by_stepdown_accepts_below_later_threshold():
    # step-down keeps everything up to the LARGEST passing rank, including
    # earlier p-values that miss their own threshold
    mask = by_stepdown(np.array([0.0119, 0.0001, 0.5]), q=0.05)
    # m=3, c=11/6: thresholds 0.00909, 0.01818, 0.0272; p_(2)=0.0119 passes
    assert mask.tolist() == [True, True, False]


def test_by_stepdown_random_vectors_match_oracle():
    rng = np.random.default_rng(17)
    for _ in range(500):
        m = int(rng.integers(1, 40))
        # mix tiny and large p-values so the boundary gets exercised
        p = rng.beta(0.3, 3.0, size=m)
        q = float(rng.uniform(0.01, 0.3))
        got = by_stepdown(p, q=q)
        want = by_oracle(p.tolist(), q)
        assert got.tolist() == want.tolist()


def test_by_stepdown_edge_inputs():
    assert by_stepdown(np.array([])).size == 0
    assert by_stepdown(np.array([1e-12])).tolist() == [True]
    assert by_stepdown(np.array([0.9, 0.95, 0.99])).tolist() == [False] * 3
    with pytest.raises(ValueError):
        by_stepdown(np.array([[0.1]]))
    with pytest.raises(ValueError):
        by_stepdown(np.array([0.1]), q=0.0)
    with pytest.raises(ValueError):
        by_stepdown(np.array([0.1]), q=1.0)
    with pytest.raises(ValueError):
        by_stepdown(np.array([-0.1]))
    with pytest.raises(ValueError):
        by_stepdown(np.array([math.nan]))


@given(hnp.arrays(np.float64, st_.integers(1, 25),
                  elements=st_.floats(0.0, 1.0, allow_nan=False)),
       st_.floats(0.01, 0.5))
def test_by_stepdown_property_matches_oracle(p, q):
    got = by_stepdown(p, q=q)
    assert got.tolist() == by_oracle(p.tolist(), q).tolist()


# ---------------------------------------------------------------- MI / entropy

def test_mutual_information_identical_binary():
    x = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    assert mutual_information(x, x) == pytest.approx(math.log(2), abs=1e-12)


def test_mutual_information_hand_joint():
    # joint counts: (0,0)=2 (0,1)=1 (1,0)=1 (1,1)=2 over 6 samples
    x = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    y = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0])
    pj = np.array([[2, 1], [1, 2]]) / 6.0
    want = sum(
        pj[i, j] * math.log(pj[i, j] / (pj[i].sum() * pj[:, j].sum()))
        for i in range(2) for j in range(2)
    )
    assert mutual_information(x, y) == pytest.approx(want, abs=1e-12)


def test_mutual_information_self_equals_entropy():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(500)
    assert mutual_information(x, x, bins=6) == pytest.approx(entropy(x, bins=6), abs=1e-10)


def test_mutual_information_independence_near_zero():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(4000)
    y = rng.standard_normal(4000)
    # plug-in bias for an 8x8 table is about (k-1)^2 / (2n)
    assert mutual_information(x, y, bins=8) < 0.05
    assert mutual_information(x, y, bins=8) >= 0.0


def test_mutual_information_symmetric_and_constant():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(300)
    y = x + 0.3 * rng.standard_normal(300)
    assert mutual_information(x, y) == pytest.approx(mutual_information(y, x), abs=1e-12)
    assert mutual_information(np.ones(300), y) == 0.0


def test_mutual_information_validation():
    with pytest.raises(ValueError):
        mutual_information(np.ones(5), np.ones(4))
    with pytest.raises(ValueError):
        mutual_information(np.ones(5), np.ones(5), bins=1)


# ---------------------------------------------------------------- MI kernels

_COLUMN_KINDS = ("continuous", "rounded", "two_level", "constant", "signed_zero", "few_levels")


def _column(kind, n, rng):
    """One column of a kind discretize treats differently."""
    if kind == "continuous":
        return rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    if kind == "rounded":  # many ties, some of them on a quantile
        return np.round(rng.standard_normal(n), int(rng.integers(0, 2)))
    if kind == "two_level":  # levels other than 0 and 1
        lo, hi = np.sort(rng.choice([-3.0, 7.0, 0.5, -1e-3, 2.0], size=2, replace=False))
        return np.where(rng.random(n) < rng.uniform(0.02, 0.98), lo, hi)
    if kind == "constant":
        return np.full(n, rng.standard_normal())
    if kind == "signed_zero":  # -0.0 and 0.0 are one level
        return rng.choice([0.0, -0.0, 1.0, -2.0][: int(rng.integers(2, 5))], size=n)
    return rng.integers(0, int(rng.integers(3, 6)), size=n) * rng.uniform(0.1, 5.0)


@settings(max_examples=300, deadline=None)
@given(kind=st_.sampled_from(_COLUMN_KINDS), n=st_.integers(1, 3000),
       bins=st_.integers(2, 12), seed=st_.integers(0, 2**32 - 1))
def test_discretize_equals_reference(kind, n, bins, seed):
    x = _column(kind, n, np.random.default_rng(seed))
    got, want = discretize(x, bins), reference_discretize(x, bins)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(x=hnp.arrays(np.float64, st_.integers(1, 40),
                    elements=st_.sampled_from([0.0, -0.0, 1.0, -3.0, 7.0, 0.1, 1e300, -1e-300])),
       bins=st_.integers(2, 12))
def test_discretize_equals_reference_on_edge_values(x, bins):
    got, want = discretize(x, bins), reference_discretize(x, bins)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(kind=st_.sampled_from(_COLUMN_KINDS), n=st_.integers(1, 3000),
       bins=st_.integers(2, 12), seed=st_.integers(0, 2**32 - 1))
def test_discretize_commutes_with_row_shuffle(kind, n, bins, seed):
    # kang._knockoff_pad codes a knock-off as its source column's codes, shuffled
    rng = np.random.default_rng(seed)
    x = _column(kind, n, rng)
    perm = rng.permutation(n)
    got, want = discretize(x[perm], bins), discretize(x, bins)[perm]
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(bins=st_.integers(2, 12), n=st_.integers(1, 800), width=st_.integers(1, 6),
       seed=st_.integers(0, 2**32 - 1))
def test_mutual_information_pairs_equals_reference(bins, n, width, seed):
    rng = np.random.default_rng(seed)
    base = rng.integers(0, bins, size=n)
    codes = []
    for _ in range(width):
        # 1 to `bins` levels, skewed, and tied to `base` so joints have empty cells
        levels = int(rng.integers(1, bins + 1))
        raw = (base + rng.integers(0, 1 + int(rng.integers(0, 3)), size=n)) % levels
        codes.append(np.unique(raw, return_inverse=True)[1])
    pairs = [(i, j) for i in range(width) for j in range(width)]
    got = mutual_information_pairs(codes, pairs)
    want = [reference_mi_codes(codes[i], codes[j]) for i, j in pairs]
    assert [float(v).hex() for v in got] == [v.hex() for v in want]
    assert mutual_information_codes(codes[0], codes[-1]).hex() == want[width - 1].hex()


def test_entropy_hand_values():
    assert entropy(np.array([0.0, 1.0, 0.0, 1.0])) == pytest.approx(math.log(2), abs=1e-12)
    assert entropy(np.ones(10)) == 0.0
    # four equally likely levels
    x = np.array([0.0, 1.0, 2.0, 3.0] * 25)
    assert entropy(x, bins=4) == pytest.approx(math.log(4), abs=1e-12)


# ---------------------------------------------------------------- Wilcoxon

def brute_force_u(a, b):
    """Mann-Whitney U by exact pairwise enumeration: wins plus half-ties."""
    return math.fsum(
        1.0 if x > y else (0.5 if x == y else 0.0) for x in a for y in b
    )


def test_wilcoxon_u_exact_enumeration():
    rng = np.random.default_rng(21)
    for _ in range(40):
        na, nb = rng.integers(2, 9, size=2)
        a = rng.integers(0, 5, size=na).astype(float)
        b = rng.integers(0, 5, size=nb).astype(float)
        u, _ = wilcoxon_ranksum(a, b)
        assert u == pytest.approx(brute_force_u(a, b), abs=1e-9)


def test_wilcoxon_p_matches_reference_approximation():
    # tie-corrected normal approximation with continuity correction
    rng = np.random.default_rng(22)
    for _ in range(40):
        na, nb = rng.integers(3, 9, size=2)
        a = rng.integers(0, 6, size=na).astype(float)
        b = rng.integers(0, 6, size=nb).astype(float)
        _, p = wilcoxon_ranksum(a, b)
        ref = sps.mannwhitneyu(a, b, alternative="two-sided",
                               method="asymptotic", use_continuity=True)
        assert p == pytest.approx(float(ref.pvalue), abs=1e-9)


def test_wilcoxon_all_tied_returns_one():
    u, p = wilcoxon_ranksum(np.ones(5), np.ones(7))
    assert u == pytest.approx(5 * 7 / 2.0)
    assert p == 1.0


def test_wilcoxon_detects_shift():
    rng = np.random.default_rng(23)
    a = rng.standard_normal(60)
    b = rng.standard_normal(60) + 3.0
    _, p = wilcoxon_ranksum(a, b)
    assert p < 1e-6


def test_wilcoxon_validation():
    with pytest.raises(ValueError):
        wilcoxon_ranksum(np.array([]), np.ones(3))
    with pytest.raises(ValueError):
        wilcoxon_ranksum(np.ones((2, 2)), np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        wilcoxon_ranksum([1.0, math.nan, math.nan], [2.0, 3.0])
    with pytest.raises(ValueError, match="finite"):
        wilcoxon_ranksum([1.0, 2.0], [3.0, math.inf])


def loop_midranks(values):
    """Midranks by walking the sorted values one tie group at a time."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def test_wilcoxon_u_equals_loop_midrank_sum():
    rng = np.random.default_rng(24)
    for _ in range(200):
        na, nb = rng.integers(1, 12, size=2)
        a = rng.integers(0, 4, size=na) * 0.5
        b = rng.integers(0, 5, size=nb) * 0.5
        ranks = loop_midranks(np.concatenate([a, b]))
        u, _ = wilcoxon_ranksum(a, b)
        assert u == float(ranks[:na].sum()) - na * (na + 1) / 2.0


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a second and tens of MB at import
    code = "import sys, schemamatch; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------- matrices

def test_pearson_matrix_matches_scalar():
    rng = np.random.default_rng(31)
    x = rng.standard_normal((40, 3))
    z = rng.standard_normal((40, 4))
    corr, degen = pearson_matrix(x, z)
    assert corr.shape == (3, 4)
    assert not degen.any()
    for i in range(3):
        for j in range(4):
            assert corr[i, j] == pytest.approx(pearson(x[:, i], z[:, j]), abs=1e-12)


def test_pearson_matrix_degenerate_flags():
    rng = np.random.default_rng(32)
    x = rng.standard_normal((20, 2))
    x[:, 1] = 5.0
    z = rng.standard_normal((20, 2))
    corr, degen = pearson_matrix(x, z)
    assert degen[1].all() and not degen[0].any()
    assert (corr[1] == 0.0).all()


def test_cosine_matrix_direct_formula_and_zero_columns():
    rng = np.random.default_rng(33)
    x = rng.standard_normal((6, 3))
    z = rng.standard_normal((6, 2))
    x[:, 2] = 0.0
    values, degen = cosine_matrix(x, z)
    assert values.shape == degen.shape == (3, 2)
    assert degen[2].all() and not degen[:2].any()
    assert (values[2] == 0.0).all()
    for i in range(2):
        for j in range(2):
            u, v = x[:, i], z[:, j]
            direct = math.fsum(u * v) / math.sqrt(math.fsum(u * u) * math.fsum(v * v))
            assert values[i, j] == pytest.approx(direct, abs=1e-12)


def test_pearson_matrix_needs_rows():
    with pytest.raises(ValueError):
        pearson_matrix(np.ones((2, 2)), np.ones((2, 2)))


def _sim(values):
    values = np.asarray(values, dtype=np.float64)
    rows = [f"r{i}" for i in range(values.shape[0])]
    cols = [f"c{j}" for j in range(values.shape[1])]
    return SimilarityMatrix(row_features=rows, col_features=cols, values=values,
                            degenerate=np.zeros(values.shape, bool))


def test_similarity_matrix_validation():
    with pytest.raises(ValueError):
        _sim(np.full((2, 2), np.nan))
    with pytest.raises(ValueError):
        SimilarityMatrix(row_features=["r0"], col_features=["c0", "c1"],
                         values=np.ones((2, 2)), degenerate=np.zeros((2, 2), bool))
    with pytest.raises(ValueError, match="degenerate mask shape"):
        SimilarityMatrix(row_features=["r0", "r1"], col_features=["c0", "c1"],
                         values=np.ones((2, 2)), degenerate=np.zeros((2, 1), bool))


def test_similarity_matrix_submatrix():
    m = _sim(np.arange(6.0).reshape(2, 3) / 10.0)
    sub = m.submatrix(["r1"], ["c2", "c0"])
    assert sub.values.tolist() == [[0.5, 0.3]]
    assert sub.row_features == ["r1"]
