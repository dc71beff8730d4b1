"""Shared dataset builders, fuzzed input files and reference kernels for the
test suite."""

import numpy as np
from hypothesis import strategies as st

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


# ---------------------------------------------------------------- fuzzed files

_NAMES = ["x", "y", "c", "c=a"]  # "c=a" collides with a one-hot member of c
_NUMBER = st.integers(-3, 3).map(str) | st.floats(-1e6, 1e6).map(repr)
_HUGE = st.sampled_from(["1e308", "-1e308", "1.7976931348623157e308", "3e200"])
_TEXT = st.text("ab", min_size=1, max_size=2)
_MISSING = st.sampled_from(["", " ", "NA", "nan", "NULL", "None"])
_WEIGHT = st.sampled_from(["", "0", "0.5", "2", "-1", "nan", "inf", "-inf", "abc"])


@st.composite
def csv_and_sidecar(draw):
    """CSV text and sidecar text. Each column holds numbers, strings or both,
    or numbers some of which are huge but finite, with missing cells; now and
    then a column or mapped name repeats or a cell is not finite. Mapped names
    mostly come from the header."""
    header = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4, unique=True))
    if draw(st.integers(0, 9)) == 7:
        header.append(header[0])
    n_rows = draw(st.integers(0, 6))
    columns = []
    for _ in header:
        kind = draw(st.sampled_from([_NUMBER, _TEXT, _NUMBER | _TEXT, _NUMBER | _HUGE]))
        columns.append(draw(st.lists(st.one_of(kind, kind, kind, _MISSING),
                                     min_size=n_rows, max_size=n_rows)))
    rows = [list(r) for r in zip(*columns)]
    if rows and draw(st.integers(0, 4)) == 3:  # one non-finite or overflowing number
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(header) - 1))] = draw(
            st.sampled_from(["inf", "-inf", "Infinity", "1e400", "1e308"]))
    csv_text = "\n".join(",".join(r) for r in [header] + rows) + "\n"
    known = st.sampled_from(header)
    mapped = draw(st.lists(st.one_of(known, known, known, st.sampled_from(["q", "c=b"])),
                           min_size=1, max_size=3, unique=True))
    if draw(st.integers(0, 9)) == 7:
        mapped.append(mapped[0])
    weights = draw(st.lists(st.none() | _WEIGHT, min_size=len(mapped),
                            max_size=len(mapped)))
    sidecar = "".join(n + ("" if w is None else f",{w}") + "\n"
                      for n, w in zip(mapped, weights))
    return csv_text, sidecar


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


# Kang's swap gain as first written: one proposal at a time, the Euclidean
# sum through a BLAS dot. kang._swap_gains must make the same search with it.

def reference_swap_gain(mi_a, bp, i, j, cfg):
    """Objective gain from swapping the B columns at positions i and j, where
    bp = mi_b[np.ix_(pi, pi)] under the current pi. Only the pairs (i, k) and
    (j, k) with k outside {i, j} change, so rows i and j of both symmetric
    matrices give the gain in O(p) (Taillard 1991)."""
    a_i, a_j, b_i, b_j = mi_a[i], mi_a[j], bp[i], bp[j]
    if cfg.metric == "euclidean":
        # the squares cancel: -2 * sum over k outside {i, j} of (a_ik - a_jk)(b_ik - b_jk)
        da = a_i - a_j
        db = b_i - b_j
        return -2.0 * float(da @ db - da[i] * db[i] - da[j] * db[j])
    # the two pairings the swap makes, then the two it breaks
    e = np.exp(-np.square([a_i - b_j, a_j - b_i, a_i - b_i, a_j - b_j]) / cfg.alpha)
    terms = e[0] + e[1] - e[2] - e[3]
    terms[i] = terms[j] = 0.0
    return float(terms.sum())
