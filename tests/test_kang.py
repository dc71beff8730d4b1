"""Mutual-information graph matching baseline."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemamatch import kang
from schemamatch.kang import KangConfig, _knockoff_pad, kang_match, mi_matrix
from schemamatch.stats import entropy, mutual_information
from helpers import reference_mi_matrix, reference_swap_gain


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


def test_mi_matrix_equals_reference():
    rng = np.random.default_rng(23)
    x = _factor_data(700, 5, seed=23)
    x = np.column_stack([x, x[:, 0] > 0.3, np.full(700, -1.5), np.round(x[:, 1]),
                         rng.choice([-3.0, 7.0], 700), rng.choice([0.0, -0.0, 2.0], 700)])
    for bins in (2, 3, 8, 12):
        assert np.array_equal(mi_matrix(x, bins=bins), reference_mi_matrix(x, bins))


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
        assert len(res.assignment) == m.shape[0]  # equal widths: no knock-off
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
    gain = kang._swap_gains(mi_a, mi_b[np.ix_(pi, pi)], np.array([i]), np.array([j]), cfg)[0]
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
    assert len(res.assignment) == mi_a.shape[0] == 4
    assert sorted(res.assignment.tolist()) == list(range(4))
    # B's two knock-off columns (indices >= mi_b's width) go to two A columns
    assert np.sum(res.assignment >= mi_b.shape[0]) == 4 - mi_b.shape[0]
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
    # A is padded with knock-off positions up to mi_b's width
    assert res.assignment.shape == res.pair_scores.shape == (mi_b.shape[0],)
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
    original = kang.mutual_information_pairs
    monkeypatch.setattr(kang, "mutual_information_pairs",
                        lambda codes, pairs: calls.extend(pairs) or original(codes, pairs))
    padded = _knockoff_pad(side, mi, values, 8, np.random.default_rng(21), bins=8)
    assert np.array_equal(padded, expected)
    # only pairs with a knock-off: 28 pairs in all, less the 15 real ones
    assert len(calls) == 28 - 15



# ---------------------------------------------------------------- block search

def _plain_kang_match(mi_a, mi_b, known_pairs, cfg, data_a=None, data_b=None):
    """kang_match as first written: a plain swap loop, every proposal scored
    alone by reference_swap_gain."""
    mi_a = np.asarray(mi_a, dtype=np.float64)
    mi_b = np.asarray(mi_b, dtype=np.float64)
    n_real_a, n_real_b = mi_a.shape[0], mi_b.shape[0]
    rng = np.random.default_rng(cfg.seed)
    p = max(n_real_a, n_real_b)
    mi_a = _knockoff_pad("a", mi_a, data_a, p, rng, cfg.bins)
    mi_b = _knockoff_pad("b", mi_b, data_b, p, rng, cfg.bins)
    base = -np.ones(p, dtype=np.int64)
    for ia, ib in known_pairs:
        base[ia] = ib
    free_pos = np.array([i for i in range(p) if base[i] < 0], dtype=np.int64)
    free_cols = np.array(sorted(set(range(p)) - {int(b) for _, b in known_pairs}), dtype=np.int64)
    m = len(free_pos)
    best_pi, best_obj = None, -np.inf
    for _ in range(max(1, cfg.iterations // 500)):
        pi = base.copy()
        pi[free_pos] = free_cols[rng.permutation(m)]
        obj = kang._objective(mi_a, mi_b, pi, cfg)
        if m >= 2:
            first = rng.integers(0, m, size=cfg.iterations)
            second = rng.integers(0, m - 1, size=cfg.iterations)
            second += second >= first
            bp = mi_b[np.ix_(pi, pi)]
            for i, j in zip(free_pos[first].tolist(), free_pos[second].tolist()):
                gain = reference_swap_gain(mi_a, bp, i, j, cfg)
                if gain > 1e-15:
                    obj += gain
                    pi[i], pi[j] = pi[j], pi[i]
                    bp[[i, j]] = bp[[j, i]]
                    bp[:, [i, j]] = bp[:, [j, i]]
        if obj > best_obj:
            best_obj, best_pi = obj, pi
    return best_pi, kang._pair_matrix(mi_a, mi_b, best_pi, cfg).sum(axis=1)


def _duplicated_rows(m, copies=2):
    """A symmetric matrix whose rows and columns repeat, so that many swaps
    exchange equal rows and gain exactly 0."""
    return np.repeat(np.repeat(m, copies, axis=0), copies, axis=1)


def _search_cases():
    big_a = mi_matrix(_factor_data(800, 14, seed=30))
    perm = np.random.default_rng(31).permutation(14)
    big_b = mi_matrix(_factor_data(800, 14, seed=30)[:, perm])
    known = [(int(perm[q]), q) for q in range(3)]
    x_a, x_b = _factor_data(500, 7, seed=32), _factor_data(500, 5, seed=33)
    dup = _duplicated_rows(_random_symmetric(5, seed=34))
    for metric in ("euclidean", "normal"):
        cfg = KangConfig(metric=metric, alpha=0.7, iterations=1500)
        yield big_a, big_b, known, cfg, {}
        yield big_a, big_b, [], replace(cfg, seed=1), {}
        yield big_a, big_b, [(int(perm[q]), q) for q in range(12)], cfg, {}  # m = 2
        yield mi_matrix(x_a), mi_matrix(x_b), [(0, 0)], cfg, {"data_b": x_b}
        yield mi_matrix(x_b), mi_matrix(x_a), [(1, 2)], cfg, {"data_a": x_b}
        yield dup, dup, [], cfg, {}
        yield dup, dup[::-1, ::-1].copy(), [(0, 9)], replace(cfg, seed=2), {}


def test_kang_match_equals_plain_loop():
    for mi_a, mi_b, known, cfg, data in _search_cases():
        res = kang_match(mi_a, mi_b, known, cfg, **data)
        pi, scores = _plain_kang_match(mi_a, mi_b, known, cfg, **data)
        assert np.array_equal(res.assignment, pi)
        assert np.array_equal(res.pair_scores, scores)


def test_block_gains_are_exact():
    # on 100,000 proposals per metric, in blocks of 1 to 129, each gain of a
    # block equals the same proposal scored alone, and each normal-metric gain
    # equals the reference bit for bit (a Euclidean one may not: the reference
    # sums through a BLAS dot, in another order)
    rng = np.random.default_rng(35)
    for metric in ("euclidean", "normal"):
        checked = 0
        while checked < 100_000:
            p = int(rng.integers(2, 41))
            mi_a = _random_symmetric(p, seed=rng.integers(2**32)) * rng.uniform(0.01, 3.0)
            mi_b = _random_symmetric(p, seed=rng.integers(2**32)) * rng.uniform(0.01, 3.0)
            if rng.random() < 0.25:
                q = (p + 1) // 2
                mi_a = _duplicated_rows(mi_a[:q, :q])[:p, :p]
                mi_b = _duplicated_rows(mi_b[:q, :q])[:p, :p]
            cfg = KangConfig(metric=metric, alpha=float(rng.uniform(0.1, 3.0)))
            bp = mi_b[np.ix_(*[rng.permutation(p)] * 2)]
            size = int(rng.integers(1, 2 * kang.SWAP_BLOCK + 2))
            pos_i = rng.integers(0, p, size=size)
            pos_j = (pos_i + rng.integers(1, p, size=size)) % p
            gains = kang._swap_gains(mi_a, bp, pos_i, pos_j, cfg)
            alone = [kang._swap_gains(mi_a, bp, pos_i[t:t + 1], pos_j[t:t + 1], cfg)[0]
                     for t in range(size)]
            assert np.array_equal(gains, alone)
            if metric == "normal":
                reference = [reference_swap_gain(mi_a, bp, i, j, cfg)
                             for i, j in zip(pos_i, pos_j)]
                assert np.array_equal(gains, reference)
            checked += size
