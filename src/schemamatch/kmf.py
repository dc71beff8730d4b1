"""Known-map fingerprints: represent each unmapped feature by its correlation
vector against the mapped block, compare fingerprints across databases with
cosine similarity, and promote confident matches into the mapped prefix."""

from __future__ import annotations

import numpy as np

from .core import Dataset, reorder_mapped_first
from .matcher import MatchProposal
from .stats import SimilarityMatrix, cosine_matrix, pearson_matrix


def fingerprints(ds: Dataset) -> SimilarityMatrix:
    """Fingerprint every unmapped column of a dataset with mapped_count >= 1:
    row i holds the correlations of unmapped feature i to the mapped features,
    in mapped order; degenerate marks entries recorded as 0 for zero-variance
    inputs. kmf_similarity reads only `.values`, and flags an all-zero
    fingerprint row by the same zero-column rule."""
    k = ds.mapped_count
    if k < 1:
        raise ValueError("fingerprints need at least one mapped feature")
    corr, degen = pearson_matrix(ds.values[:, k:], ds.values[:, :k])
    return SimilarityMatrix(ds.unmapped_names, ds.mapped_names, corr, degen)


def kmf_similarity(fp_a: SimilarityMatrix, fp_b: SimilarityMatrix) -> SimilarityMatrix:
    """Pairwise cosine similarity between the fingerprint rows of two
    databases. Zero-vector fingerprints yield 0 with the degenerate flag set."""
    if fp_a.values.shape[1] != fp_b.values.shape[1]:
        raise ValueError("fingerprint lengths differ between databases")
    sim, degen = cosine_matrix(fp_a.values.T, fp_b.values.T)
    return SimilarityMatrix(fp_a.row_features, fp_b.row_features, sim, degen)


def fingerprint_translation(mapped_values: np.ndarray, fp: SimilarityMatrix) -> np.ndarray:
    """Linear translation of fingerprinted features into another database's row
    space: column j is mapped_values @ fp.values[j]. Used to score proposals
    on hold-out rows with an honest per-row sample size."""
    mapped_values = np.asarray(mapped_values, dtype=np.float64)
    if mapped_values.shape[1] != fp.values.shape[1]:
        raise ValueError("mapped block width does not match fingerprint length")
    return mapped_values @ fp.values.T


#: accepted proposals with similarity at or above this join the mapped set
PROMOTE_AT = 0.5


def promote_matches(
    ds_a: Dataset,
    ds_b: Dataset,
    proposals: list[MatchProposal],
) -> tuple[Dataset, Dataset, list[MatchProposal]]:
    """Append the accepted pairs with similarity at least PROMOTE_AT to both
    mapped prefixes, preserving pairing order, and return the reordered
    datasets plus the promoted proposals. Promoting an already-mapped feature
    is an error."""
    chosen = [p for p in proposals if p.accepted and p.similarity >= PROMOTE_AT]
    mapped_a = ds_a.mapped_names
    mapped_b = ds_b.mapped_names
    for p in chosen:
        if p.feature_a in mapped_a:
            raise ValueError(f"{p.feature_a!r} is already mapped in {ds_a.name!r}")
        if p.feature_b in mapped_b:
            raise ValueError(f"{p.feature_b!r} is already mapped in {ds_b.name!r}")
    new_a = mapped_a + [p.feature_a for p in chosen]
    new_b = mapped_b + [p.feature_b for p in chosen]
    return (
        reorder_mapped_first(ds_a, new_a),
        reorder_mapped_first(ds_b, new_b),
        chosen,
    )
