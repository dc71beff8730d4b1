"""Correlation fingerprints, their similarity, and mapped-set promotion."""

import numpy as np
import pytest

from schemamatch.kmf import (
    PromotionPolicy,
    fingerprint_translation,
    fingerprints,
    kmf_similarity,
    promote_matches,
    select_for_promotion,
)
from schemamatch.matcher import MatchProposal
from schemamatch.stats import SimilarityMatrix, cosine, pearson
from helpers import make_dataset


def _corr_dataset(n=500, p=6, k=2, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((p, 3))
    x = rng.standard_normal((n, 3)) @ w.T + 0.3 * rng.standard_normal((n, p))
    return make_dataset(x, mapped_count=k)


def _fp(vectors, names=None):
    """A fingerprint matrix built by hand: one row per vector."""
    vectors = np.asarray(vectors, dtype=np.float64)
    names = names or [f"u{i}" for i in range(vectors.shape[0])]
    return SimilarityMatrix(names, [f"m{j}" for j in range(vectors.shape[1])], vectors,
                            np.zeros(vectors.shape, bool))


# ---------------------------------------------------------------- fingerprints

def test_fingerprints_are_mapped_correlations():
    ds = _corr_dataset()
    fp = fingerprints(ds)
    assert fp.row_features == ds.unmapped_names
    assert fp.col_features == ds.mapped_names
    for i, name in enumerate(fp.row_features):
        col = ds.column(name)
        for j, mname in enumerate(ds.mapped_names):
            assert fp.values[i, j] == pytest.approx(pearson(col, ds.column(mname)),
                                                    abs=1e-10)
    assert not fp.degenerate.any()
    assert fp.values.flags.c_contiguous


def test_fingerprint_of_duplicated_mapped_column():
    rng = np.random.default_rng(1)
    base = rng.standard_normal((100, 2))
    vals = np.column_stack([base, base[:, 0]])  # c2 duplicates mapped c0
    ds = make_dataset(vals, mapped_count=2)
    assert fingerprints(ds).values[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_fingerprints_validation_and_empty():
    ds = _corr_dataset(k=0)
    with pytest.raises(ValueError):
        fingerprints(ds)
    full = fingerprints(_corr_dataset(p=3, k=3))
    assert full.values.shape == (0, 3)
    assert full.row_features == []


def test_fingerprint_affine_invariance():
    ds = _corr_dataset(seed=2)
    fp1 = fingerprints(ds)
    scaled = make_dataset(ds.values * 3.5 + 1.25, mapped_count=ds.mapped_count,
                          names=ds.feature_names)
    fp2 = fingerprints(scaled)
    assert np.allclose(fp1.values, fp2.values, atol=1e-9)


def test_fingerprint_null_entries_small():
    # independent columns: correlations concentrate within ~4/sqrt(n)
    rng = np.random.default_rng(3)
    n = 4000
    ds = make_dataset(rng.standard_normal((n, 12)), mapped_count=4)
    assert np.abs(fingerprints(ds).values).max() < 4.0 / np.sqrt(n)


# ---------------------------------------------------------------- similarity

def test_kmf_similarity_self_match_diagonal():
    ds = _corr_dataset(seed=4)
    fp = fingerprints(ds)
    sim = kmf_similarity(fp, fp)
    assert np.allclose(np.diag(sim.values), 1.0, atol=1e-12)
    assert sim.row_features == sim.col_features == ds.unmapped_names


def test_kmf_similarity_matches_scalar_cosine():
    ds_a = _corr_dataset(seed=5)
    ds_b = _corr_dataset(seed=6)
    fa, fb = fingerprints(ds_a), fingerprints(ds_b)
    sim = kmf_similarity(fa, fb)
    for i, va in enumerate(fa.values):
        for j, vb in enumerate(fb.values):
            assert sim.values[i, j] == pytest.approx(cosine(va, vb), abs=1e-12)


def test_kmf_similarity_transpose_symmetry():
    ds_a = _corr_dataset(seed=7)
    ds_b = _corr_dataset(seed=8)
    fa, fb = fingerprints(ds_a), fingerprints(ds_b)
    ab = kmf_similarity(fa, fb)
    ba = kmf_similarity(fb, fa)
    assert np.allclose(ab.values, ba.values.T, atol=1e-12)


def test_kmf_similarity_degenerate_fingerprint():
    good = [0.5, 0.1, -0.2]
    sim = kmf_similarity(_fp([good, [0.0, 0.0, 0.0]], names=["u", "v"]),
                         _fp([good], names=["u"]))
    assert sim.values[1, 0] == 0.0
    assert sim.degenerate[1, 0]
    assert not sim.degenerate[0, 0]


def test_kmf_similarity_validation():
    with pytest.raises(ValueError, match="lengths differ"):
        kmf_similarity(_fp([[0.0, 0.0]]), _fp([[0.0, 0.0, 0.0]]))
    # no unmapped feature on one side: an empty market, not an error
    empty = kmf_similarity(_fp(np.zeros((0, 2))), _fp([[0.3, 0.4]]))
    assert empty.values.shape == (0, 1)
    assert empty.col_features == ["u0"]


# ---------------------------------------------------------------- translation

def test_fingerprint_translation_columns():
    rng = np.random.default_rng(9)
    mapped = rng.standard_normal((50, 3))
    fp = _fp(rng.standard_normal((4, 3)))
    z = fingerprint_translation(mapped, fp)
    assert z.shape == (50, 4)
    for j, vector in enumerate(fp.values):
        assert np.allclose(z[:, j], mapped @ vector, atol=1e-12)
    assert fingerprint_translation(mapped, _fp(np.zeros((0, 3)))).shape == (50, 0)
    with pytest.raises(ValueError):
        fingerprint_translation(mapped[:, :2], fp)


# ---------------------------------------------------------------- promotion

def _props():
    return [
        MatchProposal("x0", "y0", similarity=0.9, accepted=True),
        MatchProposal("x1", "y1", similarity=0.6, accepted=True),
        MatchProposal("x2", "y2", similarity=0.95, accepted=False),
        MatchProposal("x3", "y3", similarity=0.2, accepted=True),
    ]


def test_select_for_promotion_threshold():
    got = select_for_promotion(_props(), PromotionPolicy(kind="threshold", value=0.5))
    assert [p.feature_a for p in got] == ["x0", "x1"]
    loose = PromotionPolicy(kind="threshold", value=0.5, require_accepted=False)
    got = select_for_promotion(_props(), loose)
    assert [p.feature_a for p in got] == ["x0", "x1", "x2"]


def test_select_for_promotion_top_fraction():
    got = select_for_promotion(_props(), PromotionPolicy(kind="top_fraction", value=0.5))
    # accepted pool has 3 entries; floor(0.5 * 3) = 1, best similarity first
    assert [p.feature_a for p in got] == ["x0"]
    all_of_them = select_for_promotion(
        _props(), PromotionPolicy(kind="top_fraction", value=1.0))
    assert [p.feature_a for p in all_of_them] == ["x0", "x1", "x3"]


def test_promotion_policy_validation():
    with pytest.raises(ValueError):
        PromotionPolicy(kind="best")
    with pytest.raises(ValueError):
        PromotionPolicy(kind="top_fraction", value=1.5)


def test_promote_matches_extends_mapped_prefix():
    rng = np.random.default_rng(10)
    names_a = ["m0", "u0", "u1", "u2"]
    names_b = ["m0", "v0", "v1", "v2"]
    ds_a = make_dataset(rng.standard_normal((30, 4)), mapped_count=1, names=names_a)
    ds_b = make_dataset(rng.standard_normal((30, 4)), mapped_count=1, names=names_b)
    props = [
        MatchProposal("u1", "v2", similarity=0.9, accepted=True),
        MatchProposal("u0", "v0", similarity=0.7, accepted=True),
    ]
    a2, b2, promoted = promote_matches(ds_a, ds_b, props)
    assert a2.mapped_names == ["m0", "u1", "u0"]
    assert b2.mapped_names == ["m0", "v2", "v0"]
    assert a2.unmapped_names == ["u2"]
    assert all(p.accepted for p in promoted)
    assert [p.feature_a for p in promoted] == ["u1", "u0"]
    # column content moves with the names
    assert np.array_equal(a2.column("u1"), ds_a.column("u1"))
    # promoting an already-mapped feature is rejected
    with pytest.raises(ValueError, match="already mapped"):
        promote_matches(a2, b2,
                        [MatchProposal("u1", "v1", similarity=0.9, accepted=True)])


def test_promote_matches_no_selection_is_identity():
    ds_a = make_dataset(np.random.default_rng(11).standard_normal((20, 3)),
                        mapped_count=1)
    a2, b2, promoted = promote_matches(ds_a, ds_a, [])
    assert promoted == []
    assert a2.mapped_names == ds_a.mapped_names
    assert a2.feature_names == ds_a.feature_names
