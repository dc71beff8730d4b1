"""Shared dataset builders and reference kernels for the test suite."""

import numpy as np

from schemamatch.core import BINARY, CONTINUOUS, Dataset, FeatureMeta


def make_dataset(values, mapped_count=0, names=None, kinds=None, name="T"):
    """Dataset from a raw array with auto-generated feature names."""
    values = np.asarray(values, dtype=np.float64)
    p = values.shape[1]
    if names is None:
        names = [f"c{i}" for i in range(p)]
    if kinds is None:
        kinds = [CONTINUOUS] * p
    feats = tuple(FeatureMeta(name=n, kind=k) for n, k in zip(names, kinds))
    return Dataset(name=name, values=values, features=feats, mapped_count=mapped_count)


def correlated_pair(n, p, k, seed=0, noise=0.1):
    """Two row-disjoint datasets drawn from one correlated source, first k
    columns mapped. Returns (ds_a, ds_b)."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((p, max(2, p // 2)))
    cov = w @ w.T + np.eye(p)
    chol = np.linalg.cholesky(cov)
    x = rng.standard_normal((2 * n, p)) @ chol.T + noise * rng.standard_normal((2 * n, p))
    names = [f"c{i}" for i in range(p)]
    ds_a = make_dataset(x[:n], mapped_count=k, names=names, name="A")
    ds_b = make_dataset(x[n:], mapped_count=k, names=names, name="B")
    return ds_a, ds_b


# The MI kernels as first written: one np.unique for the levels, np.quantile
# on the unsorted column and a second np.unique to relabel; one pair at a time.
# The batched kernels in schemamatch.stats must equal them bit for bit.

def reference_discretize(x, bins):
    uniq = np.unique(x)
    if uniq.size <= 2:
        codes = np.searchsorted(uniq, x)
    else:
        qs = np.quantile(x, np.linspace(0.0, 1.0, bins + 1)[1:-1])
        edges = np.unique(qs)
        codes = np.searchsorted(edges, x, side="left")
    _, codes = np.unique(codes, return_inverse=True)
    return codes


def reference_mi_codes(cx, cy):
    kx = int(cx.max()) + 1
    ky = int(cy.max()) + 1
    if kx < 2 or ky < 2:
        return 0.0
    joint = np.bincount(cx * ky + cy, minlength=kx * ky).astype(np.float64)
    joint = joint.reshape(kx, ky) / cx.size
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    nz = joint > 0
    outer = np.outer(px, py)
    mi = float(np.sum(joint[nz] * np.log(joint[nz] / outer[nz])))
    return max(0.0, mi)


def reference_entropy_codes(codes):
    p = np.bincount(codes).astype(np.float64) / codes.size
    p = p[p > 0]
    return max(0.0, float(-np.sum(p * np.log(p))))


def reference_mi_matrix(values, bins=8):
    codes = [reference_discretize(col, bins) for col in np.asarray(values, dtype=np.float64).T]
    out = np.zeros((len(codes), len(codes)))
    for j in range(len(codes)):
        out[j, j] = reference_entropy_codes(codes[j])
        for i in range(j):
            out[i, j] = out[j, i] = reference_mi_codes(codes[i], codes[j])
    return out
