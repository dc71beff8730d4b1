"""Mutual-information graph matching baseline."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

# A swap search can stop at a swap-local optimum, so recovery is a rate over
# a fixed range of seeds, not a property of one seed.
RECOVERY_SEEDS = range(20)
MIN_RECOVERY_RATE = 0.75


def _recovery_rate(m, cfg, total):
    """Share of seeds in RECOVERY_SEEDS whose search returns the identity; a
    recovered run must also score `total` over unordered pairs."""
    hits = 0
    for seed in RECOVERY_SEEDS:
        res = kang_match(m, m, cfg=replace(cfg, seed=seed))
        assert res.n_real_a == res.n_real_b == m.shape[0]
        if np.array_equal(res.assignment, np.arange(m.shape[0])):
            assert res.pair_scores.sum() / 2 == pytest.approx(total, abs=1e-12)
            hits += 1
    return hits / len(RECOVERY_SEEDS)


def test_identity_recovered_on_identical_matrices():
    m = mi_matrix(_factor_data(600, 5, seed=1), bins=8)
    rate = _recovery_rate(m, KangConfig(iterations=2000), total=0.0)
    assert rate >= MIN_RECOVERY_RATE


def test_normal_metric_maximum_at_identity():
    m = mi_matrix(_factor_data(600, 5, seed=2), bins=8)
    cfg = KangConfig(metric="normal", alpha=1.0, iterations=2000)
    rate = _recovery_rate(m, cfg, total=5 * 4 / 2)
    assert rate >= MIN_RECOVERY_RATE


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
    lopsided = np.arange(9.0).reshape(3, 3)
    with pytest.raises(ValueError, match="mi_a must be symmetric"):
        kang_match(lopsided, np.ones((3, 3)))
    with pytest.raises(ValueError, match="mi_b must be symmetric"):
        kang_match(np.ones((3, 3)), lopsided)


@settings(max_examples=60, deadline=None)
@given(p=st.integers(2, 9), seed=st.integers(0, 2**32 - 1),
       metric=st.sampled_from(["euclidean", "normal"]))
def test_swap_gain_is_the_objective_difference(p, seed, metric):
    rng = np.random.default_rng(seed)
    mi_a = _random_symmetric(p, seed=rng.integers(2**32))
    mi_b = _random_symmetric(p, seed=rng.integers(2**32))
    cfg = KangConfig(metric=metric, alpha=float(rng.uniform(0.1, 3.0)))
    pi = rng.permutation(p)
    i, j = rng.choice(p, size=2, replace=False)
    after = pi.copy()
    after[i], after[j] = pi[j], pi[i]
    gain = kang._swap_gain(mi_a, mi_b[np.ix_(pi, pi)], i, j, cfg)
    expected = kang._objective(mi_a, mi_b, after, cfg) - kang._objective(mi_a, mi_b, pi, cfg)
    assert gain == pytest.approx(expected, abs=1e-12)


class _DrawLog:
    """A Generator stand-in that records the name of every draw."""

    def __init__(self, rng):
        self._rng = rng
        self.draws = []

    def __getattr__(self, name):
        draw = getattr(self._rng, name)
        return lambda *args, **kwargs: self.draws.append(name) or draw(*args, **kwargs)


@pytest.mark.parametrize("n_known", [3, 4])
def test_fewer_than_two_free_positions_draw_no_pairs(n_known, monkeypatch):
    known = [(0, 2), (1, 0), (2, 3), (3, 1)][:n_known]
    m = _random_symmetric(4, seed=22)
    logs = []
    make = np.random.default_rng
    monkeypatch.setattr(kang.np.random, "default_rng",
                        lambda seed: logs.append(_DrawLog(make(seed))) or logs[-1])
    res = kang_match(m, m, known_pairs=known, cfg=KangConfig(iterations=1000))
    assert res.assignment.tolist() == [2, 0, 3, 1]
    # one permutation of the free columns per restart, and no swap pairs
    assert [log.draws for log in logs] == [["permutation"] * 2]


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

