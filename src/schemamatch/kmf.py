"""Known-map fingerprints: represent each unmapped feature by its correlation
vector against the mapped block, compare fingerprints across databases with
cosine similarity, and promote confident matches into the mapped prefix."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import Dataset, reorder_mapped_first
from .matcher import MatchProposal
from .stats import SimilarityMatrix, pearson_matrix


@dataclass(frozen=True)
class Fingerprint:
    """Correlations of one unmapped feature to the K mapped features, in mapped
    order. degenerate[k] marks entries recorded as 0 for zero-variance inputs."""

    feature: str
    vector: np.ndarray
    degenerate: np.ndarray


def fingerprints(ds: Dataset) -> list[Fingerprint]:
    """Fingerprint every unmapped column of a dataset with mapped_count >= 1."""
    k = ds.mapped_count
    if k < 1:
        raise ValueError("fingerprints need at least one mapped feature")
    if ds.n_features == k:
        return []
    corr, degen = pearson_matrix(ds.values[:, k:], ds.values[:, :k])
    out = []
    for i, name in enumerate(ds.unmapped_names):
        out.append(Fingerprint(feature=name, vector=corr[i], degenerate=degen[i]))
    return out


def _stack(fps: list[Fingerprint]) -> np.ndarray:
    return np.stack([fp.vector for fp in fps]) if fps else np.zeros((0, 0))


def kmf_similarity(
    fps_a: list[Fingerprint],
    fps_b: list[Fingerprint],
    label_a: str = "A",
    label_b: str = "B",
) -> SimilarityMatrix:
    """Pairwise cosine similarity between two fingerprint sets. Zero-length or
    zero-vector fingerprints yield 0 with the degenerate flag set."""
    if not fps_a or not fps_b:
        raise ValueError("both fingerprint lists must be non-empty")
    ka = fps_a[0].vector.size
    kb = fps_b[0].vector.size
    if ka != kb:
        raise ValueError("fingerprint lengths differ between databases")
    va = _stack(fps_a)
    vb = _stack(fps_b)
    na = np.linalg.norm(va, axis=1)
    nb = np.linalg.norm(vb, axis=1)
    bad_a = na == 0
    bad_b = nb == 0
    na_safe = np.where(bad_a, 1.0, na)
    nb_safe = np.where(bad_b, 1.0, nb)
    sim = (va / na_safe[:, None]) @ (vb / nb_safe[:, None]).T
    sim = np.clip(sim, -1.0, 1.0)
    degen = np.zeros(sim.shape, dtype=bool)
    degen[bad_a, :] = True
    degen[:, bad_b] = True
    sim[degen] = 0.0
    return SimilarityMatrix(
        row_label=label_a,
        col_label=label_b,
        row_features=[fp.feature for fp in fps_a],
        col_features=[fp.feature for fp in fps_b],
        values=sim,
        mode="cosine",
        degenerate=degen,
    )


def fingerprint_translation(mapped_values: np.ndarray, fps: list[Fingerprint]) -> np.ndarray:
    """Linear translation of fingerprinted features into another database's row
    space: column j is mapped_values @ fps[j].vector. Used to score proposals
    on hold-out rows with an honest per-row sample size."""
    mapped_values = np.asarray(mapped_values, dtype=np.float64)
    if not fps:
        return np.zeros((mapped_values.shape[0], 0))
    k = fps[0].vector.size
    if mapped_values.shape[1] != k:
        raise ValueError("mapped block width does not match fingerprint length")
    return mapped_values @ _stack(fps).T


@dataclass(frozen=True)
class PromotionPolicy:
    """Which accepted proposals become new mapped pairs: similarity at or above
    a threshold, or the top fraction of the pool by similarity."""

    kind: str = "threshold"  # "threshold" | "top_fraction"
    value: float = 0.5
    require_accepted: bool = True

    def __post_init__(self):
        if self.kind not in ("threshold", "top_fraction"):
            raise ValueError(f"unknown promotion kind {self.kind!r}")
        if self.kind == "top_fraction" and not 0.0 <= self.value <= 1.0:
            raise ValueError("top_fraction value must be in [0, 1]")


def select_for_promotion(
    proposals: list[MatchProposal], policy: PromotionPolicy
) -> list[MatchProposal]:
    pool = [p for p in proposals if p.accepted] if policy.require_accepted else list(proposals)
    if policy.kind == "threshold":
        return [p for p in pool if p.similarity >= policy.value]
    pool = sorted(pool, key=lambda p: -p.similarity)
    count = int(np.floor(policy.value * len(pool) + 1e-9))
    return pool[:count]


def promote_matches(
    ds_a: Dataset,
    ds_b: Dataset,
    proposals: list[MatchProposal],
    policy: PromotionPolicy | None = None,
) -> tuple[Dataset, Dataset, list[MatchProposal]]:
    """Append policy-selected pairs to both mapped prefixes, preserving pairing
    order, and return the reordered datasets plus the promoted proposals.
    Selecting an already-mapped feature is an error."""
    policy = policy or PromotionPolicy()
    chosen = select_for_promotion(proposals, policy)
    mapped_a = ds_a.mapped_names
    mapped_b = ds_b.mapped_names
    for p in chosen:
        if p.feature_a in mapped_a:
            raise ValueError(f"{p.feature_a!r} is already mapped in {ds_a.name!r}")
        if p.feature_b in mapped_b:
            raise ValueError(f"{p.feature_b!r} is already mapped in {ds_b.name!r}")
    new_a = mapped_a + [p.feature_a for p in chosen]
    new_b = mapped_b + [p.feature_b for p in chosen]
    promoted = [replace(p, accepted=True) for p in chosen]
    return (
        reorder_mapped_first(ds_a, new_a),
        reorder_mapped_first(ds_b, new_b),
        promoted,
    )
