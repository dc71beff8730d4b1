"""Tabular data model, encodings, and column-level preprocessing."""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from typing import Sequence, get_args, get_origin, get_type_hints

import numpy as np

CONTINUOUS = "continuous"
BINARY = "binary"

#: how a scenario's gold map relates the two databases' unmapped columns
MAP_KINDS = ("permutation", "onto", "partial")

#: cell spellings treated as missing when reading delimited text (case-insensitive)
MISSING_TOKENS = {"", "na", "nan", "null", "none"}

#: columns per contiguous copy in unit_norm
_NORM_BLOCK = 64


@dataclass(frozen=True)
class FeatureMeta:
    """Per-column metadata: kind, source column, and the mapping certainty weight."""

    name: str
    kind: str = CONTINUOUS
    parent: str | None = None  # source column for one-hot members
    certainty_weight: float = 1.0

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, BINARY):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if not 0 <= self.certainty_weight < math.inf:
            raise ValueError(f"certainty_weight of {self.name!r} must be finite and >= 0, "
                             f"got {self.certainty_weight!r}")


@dataclass(frozen=True)
class Dataset:
    """A numeric table with named columns; the first `mapped_count` columns are the
    known-mapped block, stored in pairing order shared with the partner database.

    Values are float64 and treated as immutable after construction.
    """

    name: str
    values: np.ndarray
    features: tuple[FeatureMeta, ...]
    mapped_count: int = 0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 2:
            raise ValueError("values must be a 2-D array")
        if len(self.features) != vals.shape[1]:
            raise ValueError(
                f"{len(self.features)} feature entries for {vals.shape[1]} columns"
            )
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique")
        if not 0 <= self.mapped_count <= vals.shape[1]:
            raise ValueError("mapped_count out of range")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite (impute before constructing)")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    @property
    def feature_names(self) -> list[str]:
        return [f.name for f in self.features]

    @property
    def mapped_names(self) -> list[str]:
        return [f.name for f in self.features[: self.mapped_count]]

    @property
    def unmapped_names(self) -> list[str]:
        return [f.name for f in self.features[self.mapped_count :]]

    def index_of(self, name: str) -> int:
        for i, f in enumerate(self.features):
            if f.name == name:
                return i
        raise KeyError(f"unknown feature {name!r} in dataset {self.name!r}")

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.index_of(name)]

    def subset_rows(self, idx: Sequence[int]) -> "Dataset":
        return replace(self, values=self.values[np.asarray(idx, dtype=int)])


@dataclass(frozen=True)
class ScenarioSpec:
    """Ground truth and provenance for one constructed matching scenario."""

    map_kind: str  # one of MAP_KINDS
    gold_map: tuple[tuple[str, str], ...]
    transformed_features: tuple[tuple[str, str], ...] = ()
    seed: int = 0
    perm_seed: int | None = None
    trial: int = 0
    perm: int = 0
    mapped: tuple[str, ...] = ()
    features_a: tuple[str, ...] = ()
    features_b: tuple[str, ...] = ()
    dropped_from_a: tuple[str, ...] = ()
    dropped_from_b: tuple[str, ...] = ()
    rows_a: tuple[int, ...] = ()
    rows_b: tuple[int, ...] = ()

    def __post_init__(self):
        if self.map_kind not in MAP_KINDS:
            raise ValueError(f"unknown map_kind {self.map_kind!r}")
        a_side = [a for a, _ in self.gold_map]
        b_side = [b for _, b in self.gold_map]
        if len(set(a_side)) != len(a_side) or len(set(b_side)) != len(b_side):
            raise ValueError("gold_map must be one-to-one")
        t_names = [t for t, _ in self.transformed_features]
        if len(set(t_names)) != len(t_names):
            raise ValueError("a feature may be transformed at most once")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1)

    @staticmethod
    def from_json(text: str) -> "ScenarioSpec":
        return from_dict(ScenarioSpec, json.loads(text))


# JSON values each scalar field type accepts; a bool is only ever a bool
_SCALARS = {int: (int,), float: (int, float), str: (str,), bool: (bool,)}


def from_dict(cls, d):
    """Build the dataclass `cls` from a decoded JSON object, the inverse of
    `dataclasses.asdict`: nested objects become their field's dataclass, lists
    become (nested) tuples for tuple-typed fields, and absent fields keep their
    defaults. An unknown key, a missing required field, a non-object value or
    a mistyped scalar is a ValueError naming the class and field."""
    if not isinstance(d, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s): {', '.join(unknown)}")
    missing = [f.name for f in fields(cls) if f.name not in d
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing {cls.__name__} key(s): {', '.join(missing)}")
    hints = get_type_hints(cls)
    return cls(**{k: _decode(hints[k], v, f"{cls.__name__}.{k}") for k, v in d.items()})


def _decode(tp, value, where: str):
    if type(None) in get_args(tp):  # X | None
        if value is None:
            return None
        tp = get_args(tp)[0]
    if is_dataclass(tp):
        return from_dict(tp, value)
    if tp is tuple or get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list, got {json.dumps(value)}")
        args = get_args(tp)  # tuple[X, ...] or tuple[X, Y]; a bare tuple's items pass
        items = args[:1] * len(value) if args[1:] == (Ellipsis,) else args
        if len(items) != len(value):  # a bare tuple, or a wrong length the class rejects
            items = (None,) * len(value)
        return tuple(_decode(t, v, where) for t, v in zip(items, value))
    if tp in _SCALARS and (isinstance(value, bool) != (tp is bool)
                           or not isinstance(value, _SCALARS[tp])):
        raise ValueError(f"{where} must be {tp.__name__}, got {json.dumps(value)}")
    return value


@dataclass
class RawTable:
    """Pre-encoding table: cells are float, str (categorical level), or None."""

    name: str
    columns: list[str]
    cells: list[list[object]]

    def __post_init__(self):
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("column names must be unique")
        for row in self.cells:
            if len(row) != len(self.columns):
                raise ValueError("ragged rows")

    @property
    def n_rows(self) -> int:
        return len(self.cells)

    def column_cells(self, j: int) -> list[object]:
        return [row[j] for row in self.cells]


def _parse_cell(text: str):
    s = text.strip()
    if s.lower() in MISSING_TOKENS:
        return None
    try:
        return float(s)
    except ValueError:
        return s


def read_table(path, name: str | None = None) -> RawTable:
    """Read a delimited text file with a header row into a RawTable. A row
    whose cell count differs from the header's, or a non-finite number (such
    as `inf`), is an error naming its line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    for line, row in enumerate(rows[1:], start=2):  # CSV line 1 is the header
        if len(row) != len(header):
            raise ValueError(f"{path}: line {line} has {len(row)} cells, "
                             f"the header has {len(header)}")
    cells = [[_parse_cell(c) for c in row] for row in rows[1:]]
    table = RawTable(name=name or str(path), columns=header, cells=cells)
    for j, col in enumerate(header):
        nums = np.array([v if isinstance(v, float) else 0.0 for v in table.column_cells(j)])
        bad = np.flatnonzero(~np.isfinite(nums))
        if bad.size:  # CSV line 1 is the header
            raise ValueError(f"{path}: line {bad[0] + 2}, column {col!r}: "
                             f"non-finite value {nums[bad[0]]}")
    return table


def _column_kind(values: list[object]) -> str:
    """Classify a complete column: continuous, binary, or categorical."""
    observed = [v for v in values if v is not None]
    if all(isinstance(v, float) for v in observed):
        distinct = set(observed)
        if distinct <= {0.0, 1.0}:
            return BINARY
        return CONTINUOUS
    return "categorical"


def impute_simple(table: RawTable) -> RawTable:
    """Fill missing cells: continuous columns by the mean, binary and categorical
    columns by the mode (ties broken toward numbers before strings, each in sorted
    order). A fully missing column is an error. Returns a completed table; the
    original is not modified."""
    n = table.n_rows
    filled = [list(row) for row in table.cells]
    for j, col in enumerate(table.columns):
        vals = table.column_cells(j)
        observed = [v for v in vals if v is not None]
        if not observed:
            raise ValueError(f"column {col!r} has no observed values")
        kind = _column_kind(vals)
        if kind == CONTINUOUS:
            fill = float(np.mean([float(v) for v in observed]))
        else:
            counts: dict[object, int] = {}
            for v in observed:
                counts[v] = counts.get(v, 0) + 1
            top = max(counts.values())
            tied = [k for k, c in counts.items() if c == top]
            fill = min(tied, key=lambda v: (isinstance(v, str), v))
        for i in range(n):
            if filled[i][j] is None:
                filled[i][j] = fill
    return RawTable(name=table.name, columns=list(table.columns), cells=filled)


def one_hot_encode(table: RawTable) -> Dataset:
    """Expand categorical columns into one binary indicator per level
    (levels in lexicographic order); numeric columns pass through.

    The table must be complete (run impute_simple first). A single-level
    categorical column still yields one (constant) indicator, with a warning.
    """
    n = table.n_rows
    out_cols: list[np.ndarray] = []
    metas: list[FeatureMeta] = []
    for j, col in enumerate(table.columns):
        vals = table.column_cells(j)
        if any(v is None for v in vals):
            raise ValueError(f"column {col!r} has missing cells; impute first")
        kind = _column_kind(vals)
        if kind == "categorical":
            levels = sorted({str(v) for v in vals})
            if len(levels) == 1:
                warnings.warn(f"categorical column {col!r} has a single level")
            for lev in levels:
                indic = np.array([1.0 if str(v) == lev else 0.0 for v in vals])
                out_cols.append(indic)
                metas.append(FeatureMeta(name=f"{col}={lev}", kind=BINARY, parent=col))
        else:
            out_cols.append(np.array([float(v) for v in vals], dtype=np.float64))
            metas.append(FeatureMeta(name=col, kind=kind))
    values = np.column_stack(out_cols) if out_cols else np.zeros((n, 0))
    return Dataset(name=table.name, values=values, features=tuple(metas))


def unit_norm(ds: Dataset) -> Dataset:
    """Scale each continuous column to unit Euclidean norm over rows.

    Binary columns (raw or one-hot members) are untouched. An all-zero
    continuous column is left unchanged with a warning.
    """
    cont = [j for j, meta in enumerate(ds.features) if meta.kind == CONTINUOUS]
    scale = np.ones(ds.n_features)  # x / 1.0 == x for the columns left as they are
    # Columns are copied _NORM_BLOCK at a time into contiguous rows: each norm is
    # then the sqrt(col @ col) np.linalg.norm computes on its contiguous copy,
    # without a transposed copy of the whole table.
    for start in range(0, len(cont), _NORM_BLOCK):
        idx = cont[start:start + _NORM_BLOCK]
        block = np.ascontiguousarray(ds.values[:, idx].T)
        for j, col in zip(idx, block):
            scale[j] = math.sqrt(col @ col)
    for j in cont:
        if scale[j] == 0.0:
            warnings.warn(f"column {ds.features[j].name!r} is all zeros; left unchanged")
            scale[j] = 1.0
    # C order whatever the input's layout: reductions downstream (pearson_matrix)
    # sum in layout order, so the layout is part of the result
    return replace(ds, values=np.divide(ds.values, scale, order="C"))


def reorder_mapped_first(
    ds: Dataset,
    mapped: Sequence[str],
    weights: dict[str, float] | None = None,
) -> Dataset:
    """Move `mapped` columns to the front, in the given order, and set mapped_count.

    Unmapped columns keep their relative order. Optional per-name certainty
    weights are written into the mapped columns' metadata.
    """
    mapped = list(mapped)
    if len(set(mapped)) != len(mapped):
        raise ValueError("duplicate names in mapped list")
    idx = [ds.index_of(name) for name in mapped]  # raises on unknown names
    rest = [j for j in range(ds.n_features) if j not in set(idx)]
    order = idx + rest
    feats = []
    for pos, j in enumerate(order):
        meta = ds.features[j]
        if pos < len(mapped) and weights and meta.name in weights:
            meta = replace(meta, certainty_weight=float(weights[meta.name]))
        feats.append(meta)
    return Dataset(
        name=ds.name,
        values=ds.values[:, order],
        features=tuple(feats),
        mapped_count=len(mapped),
    )


def write_dataset_csv(ds: Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.feature_names)
        for row in ds.values:
            writer.writerow([_format_value(v) for v in row])


def _format_value(v: float) -> str:
    f = float(v)
    return str(int(f)) if f == int(f) and abs(f) < 1e15 else repr(f)


def write_mapped_sidecar(ds: Dataset, path) -> None:
    """One mapped feature name per line; ',weight' appended when not 1.0."""
    with open(path, "w") as fh:
        for meta in ds.features[: ds.mapped_count]:
            if meta.certainty_weight != 1.0:
                fh.write(f"{meta.name},{meta.certainty_weight!r}\n")
            else:
                fh.write(f"{meta.name}\n")


def read_mapped_sidecar(path) -> tuple[list[str], dict[str, float]]:
    names: list[str] = []
    weights: dict[str, float] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if "," in line:
                name, w = line.rsplit(",", 1)
                names.append(name.strip())
                try:
                    weights[name.strip()] = float(w)
                except ValueError:
                    raise ValueError(f"{path}: line {lineno}: weight {w!r} "
                                     "is not a number") from None
            else:
                names.append(line)
    return names, weights


def load_dataset(csv_path, mapped_path=None, name: str | None = None) -> Dataset:
    """Read a CSV, impute, one-hot encode, and apply the mapped sidecar if given."""
    ds = one_hot_encode(impute_simple(read_table(csv_path, name=name)))
    if mapped_path is not None:
        names, weights = read_mapped_sidecar(mapped_path)
        ds = reorder_mapped_first(ds, names, weights or None)
    return ds
