"""Correlation fingerprints, their similarity, and mapped-set promotion."""

import numpy as np
import pytest

from schemamatch.kmf import (
    Fingerprint,
    PromotionPolicy,
    fingerprint_translation,
    fingerprints,
    kmf_similarity,
    promote_matches,
    select_for_promotion,
)
from schemamatch.matcher import MatchProposal
from schemamatch.stats import cosine, pearson
from helpers import make_dataset


def _corr_dataset(n=500, p=6, k=2, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((p, 3))
    x = rng.standard_normal((n, 3)) @ w.T + 0.3 * rng.standard_normal((n, p))
    return make_dataset(x, mapped_count=k)


# ---------------------------------------------------------------- fingerprints

def test_fingerprints_are_mapped_correlations():
    ds = _corr_dataset()
    fps = fingerprints(ds)
    assert [fp.feature for fp in fps] == ds.unmapped_names
    for fp in fps:
        col = ds.column(fp.feature)
        for j, mname in enumerate(ds.mapped_names):
            assert fp.vector[j] == pytest.approx(pearson(col, ds.column(mname)),
                                                 abs=1e-10)
        assert not fp.degenerate.any()


def test_fingerprint_of_duplicated_mapped_column():
    rng = np.random.default_rng(1)
    base = rng.standard_normal((100, 2))
    vals = np.column_stack([base, base[:, 0]])  # c2 duplicates mapped c0
    ds = make_dataset(vals, mapped_count=2)
    fp = fingerprints(ds)[0]
    assert fp.vector[0] == pytest.approx(1.0, abs=1e-12)


def test_fingerprints_validation_and_empty():
    ds = _corr_dataset(k=0)
    with pytest.raises(ValueError):
        fingerprints(ds)
    full = _corr_dataset(p=3, k=3)
    assert fingerprints(full) == []


def test_fingerprint_affine_invariance():
    ds = _corr_dataset(seed=2)
    fps1 = fingerprints(ds)
    scaled = make_dataset(ds.values * 3.5 + 1.25, mapped_count=ds.mapped_count,
                          names=ds.feature_names)
    fps2 = fingerprints(scaled)
    for a, b in zip(fps1, fps2):
        assert np.allclose(a.vector, b.vector, atol=1e-9)


def test_fingerprint_null_entries_small():
    # independent columns: correlations concentrate within ~4/sqrt(n)
    rng = np.random.default_rng(3)
    n = 4000
    ds = make_dataset(rng.standard_normal((n, 12)), mapped_count=4)
    fps = fingerprints(ds)
    worst = max(np.abs(fp.vector).max() for fp in fps)
    assert worst < 4.0 / np.sqrt(n)


# ---------------------------------------------------------------- similarity

def test_kmf_similarity_self_match_diagonal():
    ds = _corr_dataset(seed=4)
    fps = fingerprints(ds)
    sim = kmf_similarity(fps, fps)
    assert np.allclose(np.diag(sim.values), 1.0, atol=1e-12)
    assert sim.row_features == [fp.feature for fp in fps]
    assert sim.mode == "cosine"


def test_kmf_similarity_matches_scalar_cosine():
    ds_a = _corr_dataset(seed=5)
    ds_b = _corr_dataset(seed=6)
    fa, fb = fingerprints(ds_a), fingerprints(ds_b)
    sim = kmf_similarity(fa, fb)
    for i, fpa in enumerate(fa):
        for j, fpb in enumerate(fb):
            assert sim.values[i, j] == pytest.approx(
                cosine(fpa.vector, fpb.vector), abs=1e-12)


def test_kmf_similarity_transpose_symmetry():
    ds_a = _corr_dataset(seed=7)
    ds_b = _corr_dataset(seed=8)
    fa, fb = fingerprints(ds_a), fingerprints(ds_b)
    ab = kmf_similarity(fa, fb)
    ba = kmf_similarity(fb, fa)
    assert np.allclose(ab.values, ba.values.T, atol=1e-12)


def test_kmf_similarity_degenerate_fingerprint():
    k = 3
    good = Fingerprint("u", np.array([0.5, 0.1, -0.2]), np.zeros(3, dtype=bool))
    flat = Fingerprint("v", np.zeros(3), np.ones(3, dtype=bool))
    sim = kmf_similarity([good, flat], [good])
    assert sim.values[1, 0] == 0.0
    assert sim.degenerate[1, 0]
    assert not sim.degenerate[0, 0]


def test_kmf_similarity_validation():
    fp2 = Fingerprint("u", np.zeros(2), np.zeros(2, dtype=bool))
    fp3 = Fingerprint("v", np.zeros(3), np.zeros(3, dtype=bool))
    with pytest.raises(ValueError):
        kmf_similarity([], [fp2])
    with pytest.raises(ValueError):
        kmf_similarity([fp2], [fp3])


# ---------------------------------------------------------------- translation

def test_fingerprint_translation_columns():
    rng = np.random.default_rng(9)
    mapped = rng.standard_normal((50, 3))
    fps = [Fingerprint(f"u{i}", rng.standard_normal(3), np.zeros(3, dtype=bool))
           for i in range(4)]
    z = fingerprint_translation(mapped, fps)
    assert z.shape == (50, 4)
    for j, fp in enumerate(fps):
        want = mapped @ fp.vector
        assert np.allclose(z[:, j], want, atol=1e-12)
    assert fingerprint_translation(mapped, []).shape == (50, 0)
    with pytest.raises(ValueError):
        fingerprint_translation(mapped[:, :2], fps)


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
