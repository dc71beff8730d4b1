"""Paired autoencoders: losses, training behavior, translation, persistence."""

import numpy as np
import pytest

from schemamatch.chimeric import (
    LOSS_KEYS,
    ChimericConfig,
    ChimericModel,
    ColumnScaler,
    TrainingDiverged,
    _orth_loss,
    chimeric_dependence,
    cross_loss,
    load_model,
    reconstruct_unshared,
    save_model,
    train,
    translate,
)
from schemamatch.core import from_dict
from schemamatch.neural import Mlp
from schemamatch.stats import mutual_information, pearson
from helpers import correlated_pair, make_dataset


def lownoise_pair(n=1500, p=8, k=4, seed=7, noise=0.15):
    """Row-disjoint pair driven by a shared rank-4 factor model with small
    idiosyncratic noise, so true matches can correlate near 1."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((p, 4))
    f = rng.standard_normal((2 * n, 4))
    x = f @ w.T + noise * rng.standard_normal((2 * n, p))
    names = [f"c{i}" for i in range(p)]
    return (make_dataset(x[:n], mapped_count=k, names=names, name="A"),
            make_dataset(x[n:], mapped_count=k, names=names, name="B"))


# ---------------------------------------------------------------- scaler

def test_column_scaler_round_trip():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 3)) * [2.0, 0.5, 7.0] + [1.0, -4.0, 0.2]
    sc = ColumnScaler.fit(x)
    z = sc.transform(x)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)
    assert np.allclose(sc.inverse(z), x, atol=1e-12)


def test_column_scaler_constant_column():
    x = np.column_stack([np.full(20, 3.0), np.arange(20.0)])
    sc = ColumnScaler.fit(x)
    assert sc.std[0] == 1.0
    z = sc.transform(x)
    assert np.allclose(z[:, 0], 0.0)
    assert np.allclose(sc.inverse(z), x, atol=1e-12)


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        ChimericConfig(latent_dim=0)
    with pytest.raises(ValueError):
        ChimericConfig(hidden=(5,))
    with pytest.raises(ValueError):
        ChimericConfig(hidden=(0, 4))
    with pytest.raises(ValueError):
        ChimericConfig(batch_size=0)
    with pytest.raises(ValueError):
        ChimericConfig(epochs=0)


def test_config_from_dict():
    cfg = ChimericConfig(latent_dim=3, hidden=(10, 5), lr=0.02)
    d = {"latent_dim": 3, "hidden": [10, 5], "lr": 0.02}
    assert from_dict(ChimericConfig, d) == cfg


# ---------------------------------------------------------------- losses

def test_cross_loss_gradient():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((5, 4))
    x = rng.standard_normal((5, 4))
    w = np.array([1.0, 0.5])
    loss, grad = cross_loss(z, x, 2, w)
    want = float(np.mean(w[None, :] * (z[:, :2] - x[:, :2]) ** 2))
    assert loss == pytest.approx(want, abs=1e-12)
    num = np.zeros_like(z)
    h = 1e-6
    for idx in np.ndindex(z.shape):
        zp = z.copy(); zp[idx] += h
        zm = z.copy(); zm[idx] -= h
        num[idx] = (cross_loss(zp, x, 2, w)[0] - cross_loss(zm, x, 2, w)[0]) / (2 * h)
    assert np.allclose(grad, num, atol=1e-7)
    assert np.all(grad[:, 2:] == 0.0)


def test_cross_loss_ignores_unmapped_columns():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((6, 5))
    x = rng.standard_normal((6, 5))
    w = np.ones(3)
    base, _ = cross_loss(z, x, 3, w)
    z2, x2 = z.copy(), x.copy()
    z2[:, 3:] = 99.0
    x2[:, 3:] = -99.0
    assert cross_loss(z2, x2, 3, w)[0] == base
    with pytest.raises(ValueError):
        cross_loss(z, x, 0, w)


def test_orth_loss_gradient():
    rng = np.random.default_rng(3)
    lat = rng.standard_normal((6, 3))
    loss, grad = _orth_loss(lat)
    gram = lat.T @ lat / 6 - np.eye(3)
    assert loss == pytest.approx(float(np.linalg.norm(gram)), abs=1e-12)
    num = np.zeros_like(lat)
    h = 1e-6
    for idx in np.ndindex(lat.shape):
        lp = lat.copy(); lp[idx] += h
        lm = lat.copy(); lm[idx] -= h
        num[idx] = (_orth_loss(lp)[0] - _orth_loss(lm)[0]) / (2 * h)
    assert np.allclose(grad, num, atol=1e-7)


def test_orth_loss_zero_at_orthonormal_latent():
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
    loss, grad = _orth_loss(q * np.sqrt(6))
    assert loss < 1e-12
    assert np.all(grad == 0.0)


# ---------------------------------------------------------------- model shell

def test_model_width_checks():
    def lin(sizes):
        return Mlp(sizes, ["linear"] * (len(sizes) - 1))

    cfg = ChimericConfig(latent_dim=2, hidden=(2, 2))
    with pytest.raises(ValueError, match="latent"):
        ChimericModel(lin([3, 2]), lin([2, 3]), lin([4, 3]), lin([3, 4]),
                      cfg, ("a0", "a1", "a2"), ("b0", "b1", "b2", "b3"), 1)
    with pytest.raises(ValueError, match="features_a"):
        ChimericModel(lin([3, 2]), lin([2, 3]), lin([4, 2]), lin([2, 4]),
                      cfg, ("a0",), ("b0", "b1", "b2", "b3"), 1)


# ---------------------------------------------------------------- training

def test_train_validation():
    ds = make_dataset(np.random.default_rng(5).standard_normal((30, 5)),
                      mapped_count=2)
    bare = make_dataset(ds.values, mapped_count=0)
    other = make_dataset(ds.values, mapped_count=1)
    small = ChimericConfig(latent_dim=2, hidden=(4, 4), epochs=1)
    with pytest.raises(ValueError, match="mapped"):
        train(bare, ds, small)
    with pytest.raises(ValueError, match="mapped"):
        train(ds, other, small)
    with pytest.raises(ValueError, match="latent_dim"):
        train(ds, ds, ChimericConfig(latent_dim=5, hidden=(4, 4), epochs=1))


def test_training_divergence_is_reported():
    ds_a, ds_b = lownoise_pair(n=64, p=5, k=2, seed=1)
    cfg = ChimericConfig(latent_dim=2, hidden=(8, 8), epochs=10, lr=1e150,
                         seed=0, activation="linear", dropout=0.0, batch_size=16)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged):
        train(ds_a, ds_b, cfg)


def test_loss_trace_structure():
    ds_a, ds_b = correlated_pair(400, 6, 3, seed=2)
    cfg = ChimericConfig(latent_dim=3, hidden=(16, 8), epochs=10, lr=1e-3, seed=1)
    model = train(ds_a, ds_b, cfg)
    trace = model.loss_trace
    assert set(trace) == set(LOSS_KEYS)
    assert all(len(trace[k]) == 10 for k in LOSS_KEYS)
    for i in range(10):
        want = (trace["ae_a"][i] + trace["ae_b"][i]
                + cfg.w_cross * (trace["ce_a"][i] + trace["ce_b"][i])
                + cfg.w_cycle * (trace["cy_a"][i] + trace["cy_b"][i])
                + cfg.w_orth * trace["orth"][i])
        assert trace["total"][i] == pytest.approx(want, abs=1e-9)
    assert trace["total"][-1] < trace["total"][0]


def test_zero_coupling_isolates_databases():
    # with no cross or cycle terms and no weight decay, database B's values
    # must not influence database A's trained networks
    rng = np.random.default_rng(5)
    ds_a = make_dataset(rng.standard_normal((200, 5)), mapped_count=2, name="A")
    ds_b1 = make_dataset(rng.standard_normal((200, 5)), mapped_count=2, name="B")
    ds_b2 = make_dataset(rng.standard_normal((200, 5)), mapped_count=2, name="B")
    cfg = ChimericConfig(latent_dim=3, hidden=(8, 8), epochs=3, lr=1e-3, seed=9,
                         w_cross=0.0, w_cycle=0.0, weight_decay=0.0)
    m1 = train(ds_a, ds_b1, cfg)
    m2 = train(ds_a, ds_b2, cfg)
    for w1, w2 in zip(m1.encoder_a.weights, m2.encoder_a.weights):
        assert np.allclose(w1, w2, atol=1e-12)
    for w1, w2 in zip(m1.decoder_a.weights, m2.decoder_a.weights):
        assert np.allclose(w1, w2, atol=1e-12)
    assert any(not np.array_equal(w1, w2)
               for w1, w2 in zip(m1.encoder_b.weights, m2.encoder_b.weights))


def test_translation_recovers_true_pairs():
    ds_a, ds_b = lownoise_pair()
    cfg = ChimericConfig(latent_dim=4, hidden=(32, 16), epochs=30, lr=1e-2, seed=3)
    model = train(ds_a, ds_b, cfg)
    z = translate(model, ds_a.values, "a_to_b")
    sim = chimeric_dependence(ds_a, z, model.features_b)
    assert sim.mode == "pearson"
    diag = np.array([sim.values[i, i] for i in range(4, 8)])
    assert diag.mean() > 0.9


# ---------------------------------------------------------------- translate

def _hand_model():
    enc_a = Mlp([3, 2], ["linear"])
    dec_a = Mlp([2, 3], ["linear"])
    enc_b = Mlp([4, 2], ["linear"])
    dec_b = Mlp([2, 4], ["linear"])
    rng = np.random.default_rng(6)
    for net in (enc_a, dec_a, enc_b, dec_b):
        net.weights[0] = rng.standard_normal(net.weights[0].shape)
        net.biases[0] = rng.standard_normal(net.biases[0].shape)
    sa = ColumnScaler(mean=np.array([1.0, -2.0, 0.5]),
                      std=np.array([2.0, 1.0, 0.25]))
    sb = ColumnScaler(mean=np.array([0.0, 3.0, -1.0, 2.0]),
                      std=np.array([1.5, 1.0, 2.0, 0.5]))
    model = ChimericModel(
        encoder_a=enc_a, decoder_a=dec_a, encoder_b=enc_b, decoder_b=dec_b,
        config=ChimericConfig(latent_dim=2, hidden=(2, 2)),
        features_a=("a0", "a1", "a2"), features_b=("b0", "b1", "b2", "b3"),
        mapped_count=1, scaler_a=sa, scaler_b=sb)
    return model


def test_translate_is_scaled_encode_decode():
    model = _hand_model()
    rng = np.random.default_rng(7)
    x = rng.standard_normal((10, 3))
    sa, sb = model.scaler_a, model.scaler_b
    lat = sa.transform(x) @ model.encoder_a.weights[0] + model.encoder_a.biases[0]
    want = sb.inverse(lat @ model.decoder_b.weights[0] + model.decoder_b.biases[0])
    assert np.allclose(translate(model, x, "a_to_b"), want, atol=1e-12)

    y = rng.standard_normal((6, 4))
    lat = sb.transform(y) @ model.encoder_b.weights[0] + model.encoder_b.biases[0]
    want = sa.inverse(lat @ model.decoder_a.weights[0] + model.decoder_a.biases[0])
    assert np.allclose(translate(model, y, "b_to_a"), want, atol=1e-12)

    with pytest.raises(ValueError, match="direction"):
        translate(model, x, "sideways")


def test_reconstruct_unshared_reads_target_column():
    model = _hand_model()
    rng = np.random.default_rng(8)
    ds = make_dataset(rng.standard_normal((12, 3)), names=["a0", "a1", "a2"])
    full = translate(model, ds.values, "a_to_b")
    got = reconstruct_unshared(model, ds, "b2", "a_to_b")
    assert np.allclose(got, full[:, 2], atol=1e-12)
    with pytest.raises(ValueError, match="target database"):
        reconstruct_unshared(model, ds, "zzz", "a_to_b")


# ---------------------------------------------------------------- dependence

def test_chimeric_dependence_pearson_recompute():
    rng = np.random.default_rng(9)
    ds = make_dataset(rng.standard_normal((40, 3)))
    z = rng.standard_normal((40, 2))
    sim = chimeric_dependence(ds, z, ["t0", "t1"])
    assert sim.col_features == ["t0", "t1"]
    for i in range(3):
        for j in range(2):
            assert sim.values[i, j] == pytest.approx(
                pearson(ds.values[:, i], z[:, j]), abs=1e-10)


def test_chimeric_dependence_mutual_information():
    rng = np.random.default_rng(10)
    vals = rng.standard_normal((60, 2))
    vals[:, 1] = 5.0  # constant feature rows get flagged
    ds = make_dataset(vals)
    z = rng.standard_normal((60, 2))
    sim = chimeric_dependence(ds, z, ["t0", "t1"], measure="mutual_information",
                              bins=5)
    for j in range(2):
        assert sim.values[0, j] == mutual_information(vals[:, 0], z[:, j], bins=5)
    assert sim.degenerate[1].all()
    assert not sim.degenerate[0].any()


def test_chimeric_dependence_validation():
    rng = np.random.default_rng(11)
    ds = make_dataset(rng.standard_normal((20, 2)))
    z = rng.standard_normal((20, 2))
    with pytest.raises(ValueError, match="width"):
        chimeric_dependence(ds, z, ["t0"])
    with pytest.raises(ValueError, match="row"):
        chimeric_dependence(ds, z[:10], ["t0", "t1"])
    with pytest.raises(ValueError, match="measure"):
        chimeric_dependence(ds, z, ["t0", "t1"], measure="spearman")


# ---------------------------------------------------------------- persistence

def test_save_load_round_trip(tmp_path):
    ds_a, ds_b = correlated_pair(120, 5, 2, seed=12)
    cfg = ChimericConfig(latent_dim=2, hidden=(8, 4), epochs=3, lr=1e-3, seed=4)
    model = train(ds_a, ds_b, cfg)
    path = tmp_path / "model.npz"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.config == cfg
    assert loaded.features_a == model.features_a
    assert loaded.features_b == model.features_b
    assert loaded.mapped_count == model.mapped_count
    assert loaded.loss_trace == model.loss_trace
    x = ds_a.values[:20]
    assert np.allclose(translate(loaded, x, "a_to_b"),
                       translate(model, x, "a_to_b"), atol=1e-12)
    y = ds_b.values[:20]
    assert np.allclose(translate(loaded, y, "b_to_a"),
                       translate(model, y, "b_to_a"), atol=1e-12)


def test_load_rejects_tampered_bias(tmp_path):
    ds_a, ds_b = correlated_pair(120, 5, 2, seed=12)
    cfg = ChimericConfig(latent_dim=2, hidden=(8, 4), epochs=1, seed=4)
    path = tmp_path / "model.npz"
    save_model(train(ds_a, ds_b, cfg), path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    arrays["da_b0"] = np.zeros(1)
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="shape mismatch"):
        load_model(path)
