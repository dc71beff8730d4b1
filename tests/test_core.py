"""Data model, delimited-text ingestion, encodings, and preprocessing."""

import math
import tempfile
import warnings
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schemamatch.chimeric import ChimericConfig
from schemamatch.core import (
    BINARY,
    CONTINUOUS,
    MAP_KINDS,
    Dataset,
    FeatureMeta,
    RawTable,
    ScenarioSpec,
    from_dict,
    impute_simple,
    load_dataset,
    one_hot_encode,
    read_mapped_sidecar,
    read_table,
    reorder_mapped_first,
    unit_norm,
    write_dataset_csv,
    write_mapped_sidecar,
)
from schemamatch.kang import KangConfig
from schemamatch.kmf import PromotionPolicy
from schemamatch.pipeline import ExperimentConfig, MatchSettings
from schemamatch.synthgen import build_scenario
from helpers import make_dataset


# ---------------------------------------------------------------- metadata

def test_feature_meta_validation():
    with pytest.raises(ValueError):
        FeatureMeta(name="x", kind="ordinal")
    for bad in (-0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="certainty_weight"):
            FeatureMeta(name="x", certainty_weight=bad)
    m = FeatureMeta(name="x", kind=BINARY, certainty_weight=2.0)
    assert m.certainty_weight == 2.0


# ---------------------------------------------------------------- dataset

def test_dataset_validation():
    feats = (FeatureMeta(name="a"), FeatureMeta(name="b"))
    with pytest.raises(ValueError):
        Dataset(name="t", values=np.zeros(4), features=feats)
    with pytest.raises(ValueError):
        Dataset(name="t", values=np.zeros((3, 3)), features=feats)
    with pytest.raises(ValueError):
        Dataset(name="t", values=np.zeros((3, 2)),
                features=(FeatureMeta(name="a"), FeatureMeta(name="a")))
    with pytest.raises(ValueError):
        Dataset(name="t", values=np.zeros((3, 2)), features=feats, mapped_count=3)
    bad = np.zeros((3, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        Dataset(name="t", values=bad, features=feats)


def test_dataset_accessors():
    ds = make_dataset(np.arange(12.0).reshape(4, 3), mapped_count=2)
    assert ds.n_rows == 4 and ds.n_features == 3
    assert ds.mapped_names == ["c0", "c1"]
    assert ds.unmapped_names == ["c2"]
    assert ds.index_of("c2") == 2
    assert ds.column("c1").tolist() == [1.0, 4.0, 7.0, 10.0]
    with pytest.raises(KeyError):
        ds.index_of("missing")


def test_dataset_subset_rows():
    ds = make_dataset(np.arange(12.0).reshape(4, 3), mapped_count=1)
    sub = ds.subset_rows([2, 0])
    assert sub.values.tolist() == [[6.0, 7.0, 8.0], [0.0, 1.0, 2.0]]
    assert sub.mapped_count == 1
    assert sub.feature_names == ds.feature_names


# ---------------------------------------------------------------- ingestion

def _write(path, text):
    path.write_text(text)
    return path


def test_read_table_parses_and_flags_missing(tmp_path):
    p = _write(tmp_path / "t.csv", "x,y,cat\n1.5,NA,red\n2.5,7,\n,8,blue\n")
    t = read_table(p, name="t")
    assert t.columns == ["x", "y", "cat"]
    assert t.cells[0] == [1.5, None, "red"]
    assert t.cells[1] == [2.5, 7.0, None]
    assert t.cells[2] == [None, 8.0, "blue"]


def test_load_dataset_names_non_finite_cell(tmp_path):
    p = _write(tmp_path / "t.csv", "x,y\n1,2\n3,inf\n5,6\n")
    with pytest.raises(ValueError, match=r"t\.csv: line 3, column 'y'"):
        load_dataset(p)


@pytest.mark.parametrize("text, line, cells", [
    ("x,y\n1,2\n3\n5,6\n", 3, 1),
    ("x,y\n1,2\n3,4,5\n", 3, 3),
    ("x,y\n1,2\n3,4\n\n", 4, 0),  # a trailing blank line is a row of no cells
])
def test_read_table_names_a_ragged_line(tmp_path, text, line, cells):
    p = _write(tmp_path / "t.csv", text)
    with pytest.raises(ValueError) as err:
        read_table(p)
    assert str(err.value) == f"{p}: line {line} has {cells} cells, the header has 2"


def test_read_table_empty_file(tmp_path):
    p = _write(tmp_path / "e.csv", "")
    with pytest.raises(ValueError):
        read_table(p)


def test_impute_simple_mean_and_mode():
    t = RawTable(name="t", columns=["x", "b", "cat"], cells=[
        [1.0, 1.0, "u"],
        [3.0, None, "v"],
        [None, 0.0, "u"],
        [2.0, 0.0, None],
    ])
    done = impute_simple(t)
    assert done.cells[2][0] == pytest.approx(2.0)  # mean of 1, 3, 2
    assert done.cells[1][1] == 0.0  # binary mode
    assert done.cells[3][2] == "u"  # categorical mode
    # tie in the mode breaks toward sorted order, numbers before strings
    tie = RawTable(name="t", columns=["c"], cells=[["b"], ["a"], [None], [None]])
    assert impute_simple(tie).cells[2][0] == "a"
    mixed = RawTable(name="t", columns=["c"], cells=[["a"], [1.0], [None], ["b"]])
    assert impute_simple(mixed).cells[2][0] == 1.0


def test_impute_simple_all_missing_column():
    t = RawTable(name="t", columns=["x"], cells=[[None], [None]])
    with pytest.raises(ValueError):
        impute_simple(t)


def test_one_hot_encode_levels_and_kinds():
    t = RawTable(name="t", columns=["x", "flag", "cat"], cells=[
        [1.0, 0.0, "red"],
        [2.0, 1.0, "blue"],
        [3.0, 1.0, "red"],
    ])
    ds = one_hot_encode(t)
    assert ds.feature_names == ["x", "flag", "cat=blue", "cat=red"]
    kinds = {f.name: f.kind for f in ds.features}
    assert kinds["x"] == CONTINUOUS
    assert kinds["flag"] == BINARY
    assert kinds["cat=red"] == BINARY
    assert ds.column("cat=red").tolist() == [1.0, 0.0, 1.0]
    assert ds.column("cat=blue").tolist() == [0.0, 1.0, 0.0]
    parents = {f.name: f.parent for f in ds.features}
    assert parents == {"x": None, "flag": None, "cat=blue": "cat", "cat=red": "cat"}


def test_one_hot_encode_requires_complete_table():
    t = RawTable(name="t", columns=["x"], cells=[[1.0], [None]])
    with pytest.raises(ValueError):
        one_hot_encode(t)


def test_one_hot_single_level_warns():
    t = RawTable(name="t", columns=["c"], cells=[["only"], ["only"]])
    with pytest.warns(UserWarning):
        ds = one_hot_encode(t)
    assert ds.feature_names == ["c=only"]
    assert ds.column("c=only").tolist() == [1.0, 1.0]


# ---------------------------------------------------------------- preprocessing

def test_unit_norm_scales_continuous_only():
    ds = make_dataset(
        np.array([[3.0, 1.0], [4.0, 0.0]]),
        names=["x", "flag"],
        kinds=[CONTINUOUS, BINARY],
    )
    out = unit_norm(ds)
    assert np.linalg.norm(out.column("x")) == pytest.approx(1.0, abs=1e-12)
    assert out.column("x").tolist() == [0.6, 0.8]
    assert out.column("flag").tolist() == [1.0, 0.0]
    # input untouched
    assert ds.column("x").tolist() == [3.0, 4.0]


def test_unit_norm_zero_column_warns():
    ds = make_dataset(np.zeros((3, 1)))
    with pytest.warns(UserWarning):
        out = unit_norm(ds)
    assert out.column("c0").tolist() == [0.0, 0.0, 0.0]


def _reference_unit_norm(ds):
    """Per-column reference: np.linalg.norm of each continuous column, then a
    division; unit_norm must return the same bits."""
    vals = ds.values.copy()
    for j, meta in enumerate(ds.features):
        if meta.kind != CONTINUOUS:
            continue
        norm = float(np.linalg.norm(vals[:, j]))
        if norm == 0.0:
            warnings.warn(f"column {meta.name!r} is all zeros; left unchanged")
            continue
        vals[:, j] = vals[:, j] / norm
    return vals


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n_rows", [1, 37])
@pytest.mark.parametrize("width", [1, 63, 64, 65, 130])
def test_unit_norm_equals_reference(width, n_rows, order):
    rng = np.random.default_rng(70 + width)
    values = 5.0 * rng.standard_normal((n_rows, width)) + 1.0
    kinds = [CONTINUOUS] + [BINARY if rng.random() < 0.3 else CONTINUOUS
                            for _ in range(width - 1)]
    for j, kind in enumerate(kinds):
        if kind == BINARY:
            values[:, j] = values[:, j] > 1.0
    zero = width // 2  # an all-zero column, except in the one-column table
    if zero:
        values[:, zero] = 0.0
        kinds[zero] = CONTINUOUS
    ds = make_dataset(np.asarray(values, order=order), kinds=kinds)
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        out = unit_norm(ds)
    with warnings.catch_warnings(record=True) as ref_warnings:
        warnings.simplefilter("always")
        ref = _reference_unit_norm(ds)
    assert out.values.tobytes() == ref.tobytes()
    assert out.values.flags.c_contiguous == ref.flags.c_contiguous
    assert [str(w.message) for w in got_warnings] == [str(w.message) for w in ref_warnings]
    assert [str(w.message) for w in got_warnings] == (
        [f"column 'c{zero}' is all zeros; left unchanged"] if zero else [])


def test_reorder_mapped_first():
    ds = make_dataset(np.arange(8.0).reshape(2, 4))
    out = reorder_mapped_first(ds, ["c2", "c0"], weights={"c2": 0.5})
    assert out.feature_names == ["c2", "c0", "c1", "c3"]
    assert out.mapped_count == 2
    assert out.values[0].tolist() == [2.0, 0.0, 1.0, 3.0]
    assert out.features[0].certainty_weight == 0.5
    assert out.features[1].certainty_weight == 1.0
    with pytest.raises(ValueError):
        reorder_mapped_first(ds, ["c0", "c0"])
    with pytest.raises(KeyError):
        reorder_mapped_first(ds, ["nope"])


# ---------------------------------------------------------------- round trips

def test_dataset_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((6, 3))
    vals[:, 2] = (vals[:, 2] > 0).astype(float)
    ds = make_dataset(vals, mapped_count=1, kinds=[CONTINUOUS, CONTINUOUS, BINARY])
    csv_path = tmp_path / "d.csv"
    side_path = tmp_path / "d.mapped"
    write_dataset_csv(ds, csv_path)
    write_mapped_sidecar(ds, side_path)
    back = load_dataset(csv_path, side_path, name="T")
    assert back.feature_names == ds.feature_names
    assert back.mapped_count == 1
    assert np.allclose(back.values, ds.values, atol=0)
    kinds = {f.name: f.kind for f in back.features}
    assert kinds["c2"] == BINARY


def test_mapped_sidecar_weights(tmp_path):
    ds = make_dataset(np.ones((2, 2)), mapped_count=2)
    ds = Dataset(
        name="t",
        values=ds.values,
        features=(
            FeatureMeta(name="c0", certainty_weight=0.25),
            FeatureMeta(name="c1"),
        ),
        mapped_count=2,
    )
    path = tmp_path / "m.mapped"
    write_mapped_sidecar(ds, path)
    names, weights = read_mapped_sidecar(path)
    assert names == ["c0", "c1"]
    assert weights == {"c0": 0.25}


def test_read_mapped_sidecar_names_the_line_of_a_bad_weight(tmp_path):
    path = _write(tmp_path / "t.mapped", "m0,0.5\n\nm1,abc\n")
    with pytest.raises(ValueError) as err:
        read_mapped_sidecar(path)
    assert str(err.value) == f"{path}: line 3: weight 'abc' is not a number"


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_load_dataset_rejects_bad_sidecar_weight(tmp_path, weight):
    csv_path = _write(tmp_path / "t.csv", "m0,u0\n1,2\n3,5\n4,4\n")
    side = _write(tmp_path / "t.mapped", f"m0,{weight}\n")
    with pytest.raises(ValueError, match="certainty_weight of 'm0'"):
        load_dataset(csv_path, side)


# ---------------------------------------------------------------- fuzzed loading

_NAMES = ["x", "y", "c", "c=a"]  # "c=a" collides with a one-hot member of c
_NUMBER = st.integers(-3, 3).map(str) | st.floats(-1e6, 1e6).map(repr)
_TEXT = st.text("ab", min_size=1, max_size=2)
_MISSING = st.sampled_from(["", " ", "NA", "nan", "NULL", "None"])
_WEIGHT = st.sampled_from(["", "0", "0.5", "2", "-1", "nan", "inf", "-inf", "abc"])


@st.composite
def _csv_and_sidecar(draw):
    """CSV text and sidecar text. Each column holds numbers, strings or both,
    with missing cells; now and then a column or mapped name repeats or a cell
    is not finite. Mapped names mostly come from the header."""
    header = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4, unique=True))
    if draw(st.integers(0, 9)) == 7:
        header.append(header[0])
    n_rows = draw(st.integers(0, 6))
    columns = []
    for _ in header:
        kind = draw(st.sampled_from([_NUMBER, _TEXT, _NUMBER | _TEXT]))
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


@settings(max_examples=150, deadline=None, database=None)
@given(_csv_and_sidecar())
@example(("m0,u0\n1,2\n3,5\n4,4\n", "m0,nan\n"))
@example(("m0,u0\n1,2\n3,5\n4,4\n", "m0,inf\n"))
def test_load_dataset_fuzz(files):
    """Any small CSV and sidecar loads into finite values and finite,
    non-negative weights, or fails with ValueError or KeyError."""
    csv_text, sidecar = files
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = _write(Path(tmp) / "t.csv", csv_text)
        side_path = _write(Path(tmp) / "t.mapped", sidecar)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # single-level columns, overflow
                ds = load_dataset(csv_path, side_path)
        except (ValueError, KeyError):
            return
    assert np.isfinite(ds.values).all()
    for meta in ds.features:
        assert math.isfinite(meta.certainty_weight) and meta.certainty_weight >= 0


# ---------------------------------------------------------------- scenarios

# the scenario.json text format, as written for the spec below
SCENARIO_JSON = """\
{
 "map_kind": "partial",
 "gold_map": [
  [
   "x",
   "y"
  ],
  [
   "u",
   "v"
  ]
 ],
 "transformed_features": [
  [
   "y",
   "square"
  ]
 ],
 "seed": 3,
 "perm_seed": 9,
 "trial": 0,
 "perm": 0,
 "mapped": [
  "m0"
 ],
 "features_a": [
  "m0",
  "x",
  "u"
 ],
 "features_b": [
  "m0",
  "y",
  "v"
 ],
 "dropped_from_a": [
  "d"
 ],
 "dropped_from_b": [],
 "rows_a": [
  0,
  2
 ],
 "rows_b": [
  1,
  3
 ]
}"""


def test_scenario_spec_round_trip():
    spec = ScenarioSpec(
        map_kind="partial",
        gold_map=(("x", "y"), ("u", "v")),
        transformed_features=(("y", "square"),),
        seed=3,
        perm_seed=9,
        mapped=("m0",),
        features_a=("m0", "x", "u"),
        features_b=("m0", "y", "v"),
        dropped_from_a=("d",),
        rows_a=(0, 2),
        rows_b=(1, 3),
    )
    back = ScenarioSpec.from_json(spec.to_json())
    assert back == spec
    assert spec.to_json() == SCENARIO_JSON


def test_scenario_from_json_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown ScenarioSpec key.*gold_mpa"):
        ScenarioSpec.from_json('{"map_kind": "onto", "gold_map": [], "gold_mpa": []}')
    with pytest.raises(ValueError, match="ScenarioSpec must be a JSON object"):
        from_dict(ScenarioSpec, [])


@dataclass(frozen=True)
class _Knobs:
    count: int
    rate: float = 0.5
    label: str = "x"
    flag: bool = False
    limit: int | None = None
    pair: tuple[int, int] = (1, 2)


@pytest.mark.parametrize("d, field", [
    ({"count": "40"}, "count"),
    ({"count": True}, "count"),
    ({"count": 4.0}, "count"),
    ({"count": 1, "rate": "0.01"}, "rate"),
    ({"count": 1, "rate": False}, "rate"),
    ({"count": 1, "label": 3}, "label"),
    ({"count": 1, "flag": 1}, "flag"),
    ({"count": 1, "limit": "3"}, "limit"),
    ({"count": 1, "pair": [1, "2"]}, "pair"),
    ({"count": 1, "pair": 12}, "pair"),
])
def test_from_dict_rejects_mistyped_values(d, field):
    with pytest.raises(ValueError, match=rf"_Knobs\.{field} must be"):
        from_dict(_Knobs, d)


def test_from_dict_accepts_int_for_float_and_null_for_optional():
    got = from_dict(_Knobs, {"count": 3, "rate": 1, "flag": True, "limit": None,
                             "pair": [3, 4]})
    assert got == _Knobs(count=3, rate=1, flag=True, pair=(3, 4))
    assert from_dict(_Knobs, {"count": 3, "limit": 7}).limit == 7


def test_from_dict_names_missing_required_fields():
    with pytest.raises(ValueError, match="missing _Knobs key.*count"):
        from_dict(_Knobs, {"rate": 0.1})
    with pytest.raises(ValueError, match="missing ScenarioSpec key.*map_kind"):
        ScenarioSpec.from_json('{"gold_map": []}')


def test_scenario_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(map_kind="bijective", gold_map=())
    for kind in MAP_KINDS:
        assert ScenarioSpec(map_kind=kind, gold_map=()).map_kind == kind
    with pytest.raises(ValueError, match="unknown map_kind 'bijective'"):
        build_scenario(make_dataset(np.zeros((4, 3))), "bijective", 1)
    with pytest.raises(ValueError):
        ScenarioSpec(map_kind="onto", gold_map=(("a", "b"), ("a", "c")))
    with pytest.raises(ValueError):
        ScenarioSpec(map_kind="onto", gold_map=(),
                     transformed_features=(("t", "square"), ("t", "square")))


# ---------------------------------------------------------------- fuzzed configs

_SCALAR = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=4))
_JSON = st.recursive(_SCALAR, lambda kids: st.lists(kids, max_size=3)
                     | st.dictionaries(st.text(max_size=4), kids, max_size=3),
                     max_leaves=6)
# spellings the configs accept, so that generated objects also get past the names
_WORDS = st.sampled_from(["kmf", "kang", "chimeric", "auto", "rows_apply", "pearson",
                          "mutual_information", "tanh", "relu", "linear", "euclidean",
                          "normal", "threshold", "top_fraction", "permutation", "onto",
                          "partial", "k_mapped", "latent_dim", "gaussian", "x"])


def _typed(tp):
    """Values mostly of type `tp`, one in eight any JSON value."""
    if type(None) in get_args(tp):
        return st.none() | _typed(get_args(tp)[0])
    if is_dataclass(tp):
        return _objects(tp) | _JSON
    if tp is tuple or get_origin(tp) is tuple:
        item = _typed(get_args(tp)[0]) if get_args(tp) else _JSON
        return st.lists(item, max_size=4) | _JSON
    base = {int: st.integers(-2, 60), float: st.floats(-2.0, 2.0) | st.floats(),
            bool: st.booleans(), str: _WORDS}[tp]
    return st.one_of([base] * 7 + [_JSON])


def _objects(cls):
    """JSON objects built from `cls`'s keys: required keys mostly present, the
    others now and then, and in one object of four a junk key."""
    hints = get_type_hints(cls)
    keys = {f.name: _typed(hints[f.name]) for f in fields(cls)}
    required = {f.name for f in fields(cls) if f.default is MISSING
                and f.default_factory is MISSING}
    present = st.fixed_dictionaries({k: v for k, v in keys.items() if k in required},
                                    optional={k: v for k, v in keys.items()
                                              if k not in required})
    lacking = st.fixed_dictionaries({}, optional=keys)
    junk = st.dictionaries(st.sampled_from(["junk", "Seed", ""]), _JSON, min_size=1, max_size=2)
    return (present | present | lacking
            | st.tuples(present, junk).map(lambda dj: {**dj[1], **dj[0]}))


_CONFIG_CLASSES = (ChimericConfig, KangConfig, MatchSettings, PromotionPolicy,
                   ExperimentConfig, ScenarioSpec)


@pytest.mark.parametrize("cls", _CONFIG_CLASSES, ids=lambda c: c.__name__)
def test_from_dict_fuzz(cls):
    """Any generated JSON object decodes into an instance or raises ValueError."""
    @settings(max_examples=200, deadline=None, database=None)
    @given(_objects(cls))
    def check(d):
        try:
            got = from_dict(cls, d)
        except ValueError:
            return
        assert isinstance(got, cls)

    check()
