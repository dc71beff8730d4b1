"""Synthetic benchmark data: factor-structured Gaussians, two-cluster mixtures,
binarized variants, and the scenario builder that splits one sample into two
databases with known ground-truth column correspondence."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BINARY, CONTINUOUS, MAP_KINDS, Dataset, FeatureMeta, ScenarioSpec

FAMILIES = (
    "gaussian",
    "two_cluster_gaussian",
    "binarized_two_cluster",
    "independent_gaussian",
)

#: per-coordinate cluster means of the two-cluster families are drawn from [low, high)
CLUSTER_MEAN_LOW = 10.0
CLUSTER_MEAN_HIGH = 20.0


@dataclass(frozen=True)
class CovarianceSpec:
    """Factor-plus-diagonal covariance: W W^T + D with W ~ N(0,1) of shape
    (dim, factor_dim) and D diagonal with integer entries drawn from [1, 20]."""

    dim: int
    factor_dim: int
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if not 1 <= self.factor_dim <= self.dim:
            raise ValueError("factor_dim must be in [1, dim]")


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    dim: int
    n_samples: int
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.dim < 1 or self.n_samples < 1:
            raise ValueError("dim and n_samples must be positive")


def make_covariance(spec: CovarianceSpec) -> np.ndarray:
    """Build the factor covariance. The diagonal inflation keeps the smallest
    eigenvalue at or above 1, so Cholesky factorization always succeeds."""
    rng = np.random.default_rng(spec.seed)
    w = rng.standard_normal((spec.dim, spec.factor_dim))
    d = rng.integers(1, 21, size=spec.dim).astype(np.float64)
    return w @ w.T + np.diag(d)


def _feature_names(dim: int) -> list[str]:
    width = max(2, len(str(dim - 1)))
    return [f"f{i:0{width}d}" for i in range(dim)]


def sample(spec: GeneratorSpec, cov: np.ndarray | None = None) -> Dataset:
    """Draw one source dataset of spec.n_samples rows.

    gaussian: zero-mean N(0, cov). two_cluster_gaussian: equal-weight mixture of
    two Gaussians sharing cov, with per-coordinate means drawn uniformly from
    [CLUSTER_MEAN_LOW, CLUSTER_MEAN_HIGH). binarized_two_cluster: the mixture,
    thresholded per column at its column mean. independent_gaussian: standard
    normals (cov ignored).
    """
    rng = np.random.default_rng(spec.seed)
    names = _feature_names(spec.dim)
    if spec.family == "independent_gaussian":
        values = rng.standard_normal((spec.n_samples, spec.dim))
        kind = CONTINUOUS
    else:
        if cov is None:
            raise ValueError(f"family {spec.family!r} needs a covariance matrix")
        cov = np.asarray(cov, dtype=np.float64)
        if cov.shape != (spec.dim, spec.dim):
            raise ValueError("covariance shape does not match dim")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance must be positive definite") from exc
        if spec.family == "gaussian":
            values = rng.standard_normal((spec.n_samples, spec.dim)) @ chol.T
            kind = CONTINUOUS
        else:
            means = rng.uniform(CLUSTER_MEAN_LOW, CLUSTER_MEAN_HIGH, size=(2, spec.dim))
            labels = rng.integers(0, 2, size=spec.n_samples)
            noise = rng.standard_normal((spec.n_samples, spec.dim)) @ chol.T
            values = means[labels] + noise
            kind = CONTINUOUS
            if spec.family == "binarized_two_cluster":
                values = (values > values.mean(axis=0)).astype(np.float64)
                kind = BINARY
    features = tuple(FeatureMeta(name=n, kind=kind) for n in names)
    return Dataset(name=f"{spec.family}-{spec.seed}", values=values, features=features)


def square_transform(column: np.ndarray) -> np.ndarray:
    """Standardize then square: for symmetric data the result is nearly
    uncorrelated with the original while keeping a unit scale."""
    col = np.asarray(column, dtype=np.float64)
    sd = col.std()
    if sd == 0:
        return np.zeros_like(col)
    z = (col - col.mean()) / sd
    return z * z


def build_scenario(
    ds: Dataset,
    map_kind: str,
    k_mapped: int,
    drop_counts: tuple[int, int] = (0, 0),
    transform_count: int = 0,
    seed: int = 0,
    perm_seed: int | None = None,
    trial: int = 0,
    perm: int = 0,
) -> tuple[Dataset, Dataset, ScenarioSpec]:
    """Split one source dataset into two databases with known correspondence.

    Rows are partitioned in half at random (trial stream), the mapped features
    are drawn at random and moved to the front of both databases in the same
    order (trial stream). The permutation stream then drops unmapped columns
    per side (disjoint sets, never a mapped column), permutes B's unmapped
    columns, and square-transforms `transform_count` of B's unmapped columns.
    gold_map pairs each shared unmapped feature with itself.
    """
    drop_a, drop_b = int(drop_counts[0]), int(drop_counts[1])
    if map_kind == "permutation" and (drop_a or drop_b):
        raise ValueError("permutation scenarios cannot drop columns")
    if map_kind == "onto" and (drop_a > 0) == (drop_b > 0):
        raise ValueError("onto scenarios drop columns from exactly one side")
    if map_kind not in MAP_KINDS:
        raise ValueError(f"unknown map_kind {map_kind!r}")
    if drop_a < 0 or drop_b < 0:
        raise ValueError("drop counts must be nonnegative")

    p = ds.n_features
    names = ds.feature_names
    n_unmapped = p - k_mapped
    if not 1 <= k_mapped < p:
        raise ValueError("k_mapped must be in [1, n_features)")
    if drop_a + drop_b > n_unmapped:
        raise ValueError("cannot drop more columns than the unmapped pool")

    rng_trial = np.random.default_rng([seed, 17])
    rng_perm = np.random.default_rng([seed if perm_seed is None else perm_seed, 29])

    row_order = rng_trial.permutation(ds.n_rows)
    half = ds.n_rows // 2
    rows_a = np.sort(row_order[:half])
    rows_b = np.sort(row_order[half:])

    mapped_idx = np.sort(rng_trial.choice(p, size=k_mapped, replace=False))
    mapped_names = [names[i] for i in mapped_idx]
    mapped_set = set(mapped_idx.tolist())
    pool = [i for i in range(p) if i not in mapped_set]

    drop_pick = rng_perm.choice(len(pool), size=drop_a + drop_b, replace=False)
    dropped_a = sorted(pool[i] for i in drop_pick[:drop_a])
    dropped_b = sorted(pool[i] for i in drop_pick[drop_a:])

    drop_set_a, drop_set_b = set(dropped_a), set(dropped_b)
    unmapped_a = [i for i in pool if i not in drop_set_a]
    unmapped_b = [i for i in pool if i not in drop_set_b]
    unmapped_b = [unmapped_b[i] for i in rng_perm.permutation(len(unmapped_b))]

    cols_a = list(mapped_idx) + unmapped_a
    cols_b = list(mapped_idx) + unmapped_b

    vals_a = ds.values[np.ix_(rows_a, cols_a)]
    vals_b = ds.values[np.ix_(rows_b, cols_b)]

    transformed: list[tuple[str, str]] = []
    if transform_count:
        if transform_count > len(unmapped_b):
            raise ValueError("transform_count exceeds B's unmapped columns")
        picks = rng_perm.choice(len(unmapped_b), size=transform_count, replace=False)
        for t in sorted(int(i) for i in picks):
            j = k_mapped + t
            vals_b[:, j] = square_transform(vals_b[:, j])
            transformed.append((names[unmapped_b[t]], "square"))

    feats_a = tuple(ds.features[i] for i in cols_a)
    feats_b = tuple(ds.features[i] for i in cols_b)
    ds_a = Dataset(name=f"{ds.name}-A", values=vals_a, features=feats_a,
                   mapped_count=k_mapped)
    ds_b = Dataset(name=f"{ds.name}-B", values=vals_b, features=feats_b,
                   mapped_count=k_mapped)

    shared_unmapped = set(unmapped_a) & set(unmapped_b)
    gold = tuple(
        (names[i], names[i]) for i in unmapped_a if i in shared_unmapped
    )
    spec = ScenarioSpec(
        map_kind=map_kind,
        gold_map=gold,
        transformed_features=tuple(transformed),
        seed=seed,
        perm_seed=perm_seed,
        trial=trial,
        perm=perm,
        mapped=tuple(mapped_names),
        features_a=tuple(ds_a.feature_names),
        features_b=tuple(ds_b.feature_names),
        dropped_from_a=tuple(names[i] for i in dropped_a),
        dropped_from_b=tuple(names[i] for i in dropped_b),
        rows_a=tuple(int(i) for i in rows_a),
        rows_b=tuple(int(i) for i in rows_b),
    )
    return ds_a, ds_b, spec
