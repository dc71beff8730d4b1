"""Synthetic data families and scenario construction invariants."""

import numpy as np
import pytest

from schemamatch.core import BINARY, CONTINUOUS
from schemamatch.stats import pearson
from schemamatch.synthgen import (
    FAMILIES,
    CovarianceSpec,
    GeneratorSpec,
    build_scenario,
    make_covariance,
    sample,
    square_transform,
)


# ---------------------------------------------------------------- covariance

def test_make_covariance_is_spd_with_floor():
    for seed in range(5):
        cov = make_covariance(CovarianceSpec(dim=12, factor_dim=6, seed=seed))
        assert cov.shape == (12, 12)
        assert np.allclose(cov, cov.T)
        # W W^T is PSD and the diagonal draws are integers >= 1
        assert np.linalg.eigvalsh(cov).min() >= 1.0 - 1e-9


def test_make_covariance_deterministic():
    a = make_covariance(CovarianceSpec(dim=6, factor_dim=3, seed=9))
    b = make_covariance(CovarianceSpec(dim=6, factor_dim=3, seed=9))
    c = make_covariance(CovarianceSpec(dim=6, factor_dim=3, seed=10))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_covariance_spec_validation():
    with pytest.raises(ValueError):
        CovarianceSpec(dim=4, factor_dim=0)
    with pytest.raises(ValueError):
        CovarianceSpec(dim=4, factor_dim=5)


# ---------------------------------------------------------------- families

def test_gaussian_matches_requested_covariance():
    cov = make_covariance(CovarianceSpec(dim=8, factor_dim=4, seed=1))
    ds = sample(GeneratorSpec(family="gaussian", dim=8, n_samples=20000, seed=2), cov)
    assert ds.n_rows == 20000 and ds.n_features == 8
    assert all(f.kind == CONTINUOUS for f in ds.features)
    assert np.abs(ds.values.mean(axis=0)).max() < 0.2  # zero-mean family
    emp = np.cov(ds.values.T)
    rel = np.linalg.norm(emp - cov) / np.linalg.norm(cov)
    assert rel < 0.10


def test_feature_names_zero_padded():
    ds = sample(GeneratorSpec(family="independent_gaussian", dim=12, n_samples=5))
    assert ds.feature_names[0] == "f00"
    assert ds.feature_names[-1] == "f11"


def _replay_two_cluster(cov, dim, n, seed):
    """The generator's draws for a two-cluster family, in its order: cluster
    means, labels, then the correlated noise."""
    rng = np.random.default_rng(seed)
    means = rng.uniform(10.0, 20.0, size=(2, dim))
    labels = rng.integers(0, 2, size=n)
    noise = rng.standard_normal((n, dim)) @ np.linalg.cholesky(cov).T
    return means, labels, means[labels] + noise


def test_two_cluster_params_and_structure():
    cov = make_covariance(CovarianceSpec(dim=5, factor_dim=2, seed=3))
    ds = sample(GeneratorSpec(family="two_cluster_gaussian", dim=5, n_samples=8000,
                              seed=4), cov)
    means, labels, values = _replay_two_cluster(cov, 5, 8000, seed=4)
    assert np.array_equal(ds.values, values)
    assert ((means >= 10.0) & (means <= 20.0)).all()
    assert set(np.unique(labels)) == {0, 1}
    for c in (0, 1):
        got = ds.values[labels == c].mean(axis=0)
        assert np.abs(got - means[c]).max() < 0.5


def test_binarized_two_cluster_is_binary():
    cov = make_covariance(CovarianceSpec(dim=5, factor_dim=2, seed=5))
    ds = sample(GeneratorSpec(family="binarized_two_cluster", dim=5, n_samples=4000,
                              seed=6), cov)
    assert set(np.unique(ds.values)) <= {0.0, 1.0}
    assert all(f.kind == BINARY for f in ds.features)
    # the mixture, thresholded per column at its column mean
    _, _, values = _replay_two_cluster(cov, 5, 4000, seed=6)
    assert np.array_equal(ds.values, values > values.mean(axis=0))
    frac = ds.values.mean(axis=0)
    assert ((frac > 0.05) & (frac < 0.95)).all()


def test_independent_gaussian_ignores_cov():
    ds = sample(GeneratorSpec(family="independent_gaussian", dim=6, n_samples=6000,
                              seed=7))
    corr = np.corrcoef(ds.values.T)
    off = corr[~np.eye(6, dtype=bool)]
    assert np.abs(off).max() < 0.08


def test_sample_validation():
    with pytest.raises(ValueError):
        sample(GeneratorSpec(family="gaussian", dim=4, n_samples=10))  # needs cov
    with pytest.raises(ValueError):
        sample(GeneratorSpec(family="gaussian", dim=4, n_samples=10), np.eye(3))
    with pytest.raises(ValueError):
        # indefinite matrix fails the Cholesky factorization
        sample(GeneratorSpec(family="gaussian", dim=2, n_samples=10),
               np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        GeneratorSpec(family="mystery", dim=4, n_samples=10)
    assert "gaussian" in FAMILIES


def test_sample_deterministic_by_seed():
    cov = np.eye(3)
    a = sample(GeneratorSpec(family="gaussian", dim=3, n_samples=50, seed=8), cov)
    b = sample(GeneratorSpec(family="gaussian", dim=3, n_samples=50, seed=8), cov)
    assert np.array_equal(a.values, b.values)


# ---------------------------------------------------------------- transform

def test_square_transform_properties():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(5000)
    z2 = square_transform(x)
    assert z2.min() >= 0.0
    assert z2.mean() == pytest.approx(1.0, abs=1e-9)  # mean of z^2 with pop sd
    # symmetric input: squared values nearly uncorrelated with the original
    assert abs(pearson(x, z2)) < 0.1
    assert square_transform(np.full(10, 3.0)).tolist() == [0.0] * 10


# ---------------------------------------------------------------- scenarios

def _source(dim=10, n=400, seed=0):
    cov = make_covariance(CovarianceSpec(dim=dim, factor_dim=dim // 2, seed=seed))
    return sample(GeneratorSpec(family="gaussian", dim=dim, n_samples=n, seed=seed),
                  cov)


def test_permutation_scenario_invariants():
    ds = _source()
    ds_a, ds_b, spec = build_scenario(ds, "permutation", 3, seed=1)
    assert ds_a.mapped_count == ds_b.mapped_count == 3
    assert ds_a.mapped_names == ds_b.mapped_names == list(spec.mapped)
    # row halves partition the source
    rows = sorted(spec.rows_a + spec.rows_b)
    assert rows == list(range(ds.n_rows))
    assert not set(spec.rows_a) & set(spec.rows_b)
    # same columns on both sides, unmapped order permuted on B
    assert sorted(ds_a.feature_names) == sorted(ds_b.feature_names)
    # gold map is the identity on unmapped names, in A order
    assert list(spec.gold_map) == [(n, n) for n in ds_a.unmapped_names]
    # values trace back to the source
    ia = list(spec.rows_a)
    for j, name in enumerate(ds_a.feature_names):
        src = ds.values[ia, ds.index_of(name)]
        assert np.array_equal(ds_a.values[:, j], src)


def test_partial_scenario_drops():
    ds = _source()
    ds_a, ds_b, spec = build_scenario(ds, "partial", 3, drop_counts=(2, 1), seed=2)
    assert len(spec.dropped_from_a) == 2
    assert len(spec.dropped_from_b) == 1
    for name in spec.dropped_from_a:
        assert name not in ds_a.feature_names
        assert name in ds_b.feature_names  # dropped from A only
    for name in spec.dropped_from_b:
        assert name not in ds_b.feature_names
        assert name in ds_a.feature_names
    assert not set(spec.dropped_from_a) & set(spec.dropped_from_b)
    gold_a = [a for a, _ in spec.gold_map]
    assert set(gold_a) == (set(ds_a.unmapped_names) & set(ds_b.unmapped_names))


def test_onto_scenario_one_sided():
    ds = _source()
    ds_a, ds_b, spec = build_scenario(ds, "onto", 3, drop_counts=(3, 0), seed=3)
    assert len(spec.dropped_from_a) == 3 and not spec.dropped_from_b
    # B retains every unmapped feature, so A's unmapped set is a subset of B's
    assert set(ds_a.unmapped_names) <= set(ds_b.unmapped_names)
    assert len(spec.gold_map) == len(ds_a.unmapped_names)


def test_transformed_columns_recorded_and_applied():
    ds = _source(seed=4)
    ds_a, ds_b, spec = build_scenario(ds, "permutation", 3, transform_count=2, seed=4)
    assert len(spec.transformed_features) == 2
    rows_b = list(spec.rows_b)
    for name, kind in spec.transformed_features:
        assert kind == "square"
        want = square_transform(ds.values[rows_b, ds.index_of(name)])
        got = ds_b.column(name)
        assert np.allclose(got, want, atol=1e-12)
    # untransformed columns pass through unchanged
    untouched = [n for n in ds_b.unmapped_names
                 if n not in {t for t, _ in spec.transformed_features}]
    for name in untouched:
        assert np.array_equal(ds_b.column(name), ds.values[rows_b, ds.index_of(name)])


def test_scenario_determinism_and_perm_seed_scope():
    ds = _source(seed=5)
    a1, b1, s1 = build_scenario(ds, "permutation", 3, seed=6, perm_seed=100)
    a2, b2, s2 = build_scenario(ds, "permutation", 3, seed=6, perm_seed=100)
    assert np.array_equal(a1.values, a2.values)
    assert np.array_equal(b1.values, b2.values)
    assert s1 == s2
    # a different permutation stream re-shuffles B but keeps the trial frame
    a3, b3, s3 = build_scenario(ds, "permutation", 3, seed=6, perm_seed=101)
    assert np.array_equal(a1.values, a3.values)
    assert s1.rows_b == s3.rows_b
    assert s1.mapped == s3.mapped
    assert b1.feature_names != b3.feature_names


def test_build_scenario_validation():
    ds = _source()
    with pytest.raises(ValueError):
        build_scenario(ds, "permutation", 3, drop_counts=(1, 0))
    with pytest.raises(ValueError):
        build_scenario(ds, "onto", 3, drop_counts=(1, 1))
    with pytest.raises(ValueError):
        build_scenario(ds, "onto", 3, drop_counts=(0, 0))
    with pytest.raises(ValueError):
        build_scenario(ds, "sideways", 3)
    with pytest.raises(ValueError):
        build_scenario(ds, "permutation", 0)
    with pytest.raises(ValueError):
        build_scenario(ds, "permutation", 10)
    with pytest.raises(ValueError):
        build_scenario(ds, "partial", 8, drop_counts=(2, 1))
    with pytest.raises(ValueError):
        build_scenario(ds, "permutation", 8, transform_count=3)
