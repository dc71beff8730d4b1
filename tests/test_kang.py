"""Mutual-information graph matching baseline."""

import numpy as np
import pytest

from schemamatch import kang
from schemamatch.kang import KangConfig, _knockoff_pad, kang_match, mi_matrix
from schemamatch.stats import entropy, mutual_information


def _factor_data(n, p, seed, noise=0.2):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((p, 2))
    return rng.standard_normal((n, 2)) @ w.T + noise * rng.standard_normal((n, p))


def _random_symmetric(p, seed):
    rng = np.random.default_rng(seed)
    m = rng.random((p, p))
    m = (m + m.T) / 2.0
    return m


def euclidean_objective(mi_a, mi_b, pi):
    total = 0.0
    p = mi_a.shape[0]
    for i in range(p):
        for j in range(i + 1, p):
            total -= (mi_a[i, j] - mi_b[pi[i], pi[j]]) ** 2
    return total


# ---------------------------------------------------------------- MI matrix

def test_mi_matrix_entries():
    x = _factor_data(400, 4, seed=0)
    binary = (x[:, 0] > 0).astype(np.float64)
    constant = np.full(400, 3.0)
    x = np.column_stack([x, binary, constant])
    m = mi_matrix(x, bins=6)
    assert np.array_equal(m, m.T)
    for i in range(6):
        assert m[i, i] == entropy(x[:, i], bins=6)
        for j in range(i + 1, 6):
            assert m[i, j] == mutual_information(x[:, i], x[:, j], bins=6)


def test_mi_matrix_needs_2d():
    with pytest.raises(ValueError):
        mi_matrix(np.ones(5))


# ---------------------------------------------------------------- config

def test_kang_config_validation():
    with pytest.raises(ValueError, match="metric"):
        KangConfig(metric="manhattan")
    with pytest.raises(ValueError, match="alpha"):
        KangConfig(alpha=0.0)
    with pytest.raises(ValueError, match="iterations"):
        KangConfig(iterations=0)
    with pytest.raises(ValueError, match="bins"):
        KangConfig(bins=1)


# ---------------------------------------------------------------- matching

def test_identity_recovered_on_identical_matrices():
    x = _factor_data(600, 5, seed=1)
    m = mi_matrix(x, bins=8)
    res = kang_match(m, m, cfg=KangConfig(iterations=2000, seed=0))
    assert np.array_equal(res.assignment, np.arange(5))
    assert res.pair_scores.sum() / 2 == pytest.approx(0.0, abs=1e-12)
    assert res.n_real_a == res.n_real_b == 5


def test_normal_metric_maximum_at_identity():
    x = _factor_data(600, 5, seed=2)
    m = mi_matrix(x, bins=8)
    cfg = KangConfig(metric="normal", alpha=1.0, iterations=2000, seed=0)
    res = kang_match(m, m, cfg=cfg)
    assert np.array_equal(res.assignment, np.arange(5))
    assert res.pair_scores.sum() / 2 == pytest.approx(5 * 4 / 2, abs=1e-12)


def test_objective_matches_independent_recompute():
    mi_a = _random_symmetric(6, seed=3)
    mi_b = _random_symmetric(6, seed=4)
    res = kang_match(mi_a, mi_b, cfg=KangConfig(iterations=600, seed=5))
    pi = res.assignment
    assert sorted(pi.tolist()) == list(range(6))
    # each position's score sums pair terms once per neighbour, so the
    # total double-counts every unordered pair
    assert res.pair_scores.sum() / 2 == pytest.approx(
        euclidean_objective(mi_a, mi_b, pi), abs=1e-9)
    assert res.pair_scores.shape == (6,)
    assert (res.pair_scores <= 1e-12).all()


def test_known_pairs_are_fixed():
    mi_a = _random_symmetric(6, seed=6)
    mi_b = _random_symmetric(6, seed=7)
    res = kang_match(mi_a, mi_b, known_pairs=[(0, 3), (2, 1)],
                     cfg=KangConfig(iterations=600, seed=8))
    assert res.assignment[0] == 3
    assert res.assignment[2] == 1
    assert sorted(res.assignment.tolist()) == list(range(6))


def test_known_pairs_validation():
    m = _random_symmetric(4, seed=9)
    with pytest.raises(ValueError, match="out of range"):
        kang_match(m, m, known_pairs=[(0, 9)], cfg=KangConfig(iterations=1))
    with pytest.raises(ValueError, match="two known pairs"):
        kang_match(m, m, known_pairs=[(0, 0), (0, 1)], cfg=KangConfig(iterations=1))
    with pytest.raises(ValueError, match="two known pairs"):
        kang_match(m, m, known_pairs=[(0, 0), (1, 0)], cfg=KangConfig(iterations=1))


def test_determinism_by_seed():
    mi_a = _random_symmetric(7, seed=10)
    mi_b = _random_symmetric(7, seed=11)
    cfg = KangConfig(iterations=1000, seed=12)
    r1 = kang_match(mi_a, mi_b, cfg=cfg)
    r2 = kang_match(mi_a, mi_b, cfg=cfg)
    assert np.array_equal(r1.assignment, r2.assignment)
    assert np.array_equal(r1.pair_scores, r2.pair_scores)


def test_square_validation():
    with pytest.raises(ValueError, match="mi_a"):
        kang_match(np.ones((2, 3)), np.ones((3, 3)))
    with pytest.raises(ValueError, match="mi_b"):
        kang_match(np.ones((3, 3)), np.ones(4))


# ---------------------------------------------------------------- knock-offs

def test_padding_smaller_b_side():
    x_a = _factor_data(500, 4, seed=13)
    x_b = _factor_data(500, 2, seed=14)
    mi_a = mi_matrix(x_a)
    mi_b = mi_matrix(x_b)
    res = kang_match(mi_a, mi_b, cfg=KangConfig(iterations=600, seed=15),
                     data_b=x_b)
    assert res.n_real_a == 4
    assert res.n_real_b == 2
    assert sorted(res.assignment.tolist()) == list(range(4))
    with pytest.raises(ValueError, match="requires data_b"):
        kang_match(mi_a, mi_b, cfg=KangConfig(iterations=600, seed=15))
    with pytest.raises(ValueError, match="data_b width"):
        kang_match(mi_a, mi_b, cfg=KangConfig(iterations=600, seed=15),
                   data_b=x_a)


def test_padding_smaller_a_side():
    x_a = _factor_data(500, 2, seed=16)
    x_b = _factor_data(500, 5, seed=17)
    mi_a = mi_matrix(x_a)
    mi_b = mi_matrix(x_b)
    res = kang_match(mi_a, mi_b, cfg=KangConfig(iterations=600, seed=18),
                     data_a=x_a)
    assert res.n_real_a == 2
    assert res.n_real_b == 5
    assert res.assignment.shape == (5,)
    assert sorted(res.assignment.tolist()) == list(range(5))
    with pytest.raises(ValueError, match="requires data_a"):
        kang_match(mi_a, mi_b, cfg=KangConfig(iterations=600, seed=18))


@pytest.mark.parametrize("side", ["a", "b"])
def test_knockoff_pad_reuses_real_block(side, monkeypatch):
    values = _factor_data(400, 6, seed=19 if side == "a" else 20)
    values[:, 2] = values[:, 2] > 0.0  # a binary column keeps its levels
    mi = mi_matrix(values)
    # the knock-offs _knockoff_pad draws: two sources, one shuffle each
    twin = np.random.default_rng(21)
    sources = twin.integers(0, 6, size=2)
    extra = np.column_stack([values[twin.permutation(400), src] for src in sources])
    expected = mi_matrix(np.hstack([values, extra]))

    calls = []
    original = kang.mutual_information_codes
    monkeypatch.setattr(kang, "mutual_information_codes",
                        lambda cx, cy: calls.append(1) or original(cx, cy))
    padded = _knockoff_pad(side, mi, values, 8, np.random.default_rng(21), bins=8)
    assert np.array_equal(padded, expected)
    # only pairs with a knock-off: 28 pairs in all, less the 15 real ones
    assert len(calls) == 28 - 15

