"""Paired autoencoders with a shared latent space, trained so that decoding one
database's encoding with the other database's decoder reproduces the known
mapped columns. After training, translated features are correlated against raw
features to propose matches and to impute unshared columns across databases.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import Dataset, from_dict
from .neural import ACTIVATIONS, Adam, Mlp, PlateauScheduler, load_mlp_arrays, mlp_arrays
from .stats import SimilarityMatrix, discretize, mutual_information_pairs, pearson_matrix

MEASURES = ("pearson", "mutual_information")
TRANSLATION_DIRECTIONS = ("a_to_b", "b_to_a")
LOSS_KEYS = ("ae_a", "ae_b", "ce_a", "ce_b", "cy_a", "cy_b", "orth", "total")


class TrainingDiverged(RuntimeError):
    """Raised when a loss becomes non-finite during training."""


@dataclass(frozen=True)
class ChimericConfig:
    latent_dim: int = 8
    hidden: tuple[int, int] = (80, 40)
    dropout: float = 0.5
    activation: str = "tanh"
    latent_activation: str = "linear"
    output_activation: str = "linear"
    batch_size: int = 64
    epochs: int = 40
    lr: float = 1e-2
    weight_decay: float = 1e-5
    w_cross: float = 1.0
    w_cycle: float = 1.0
    w_orth: float = 0.01
    lr_factor: float = 0.5
    lr_patience: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be positive")
        if len(self.hidden) != 2 or any(h < 1 for h in self.hidden):
            raise ValueError("hidden must be two positive widths")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        for name in (self.activation, self.latent_activation, self.output_activation):
            if name not in ACTIVATIONS:
                raise ValueError(f"unknown activation {name!r}")


@dataclass
class ColumnScaler:
    """Per-column standardization fitted on training rows. The networks always
    see standardized values; translate() maps outputs back to data units, so
    callers never deal with the internal scale."""

    mean: np.ndarray
    std: np.ndarray

    @staticmethod
    def fit(values: np.ndarray) -> "ColumnScaler":
        mean = values.mean(axis=0)
        std = values.std(axis=0)
        return ColumnScaler(mean=mean, std=np.where(std == 0.0, 1.0, std))

    def transform(self, values: np.ndarray) -> np.ndarray:
        out = values - self.mean
        out /= self.std
        return out

    def inverse(self, values: np.ndarray) -> np.ndarray:
        out = values * self.std
        out += self.mean
        return out


@dataclass
class ChimericModel:
    """Four trained networks, the column scalers they were trained behind, and
    bookkeeping. Encoders share the latent width; construction enforces it."""

    encoder_a: Mlp
    decoder_a: Mlp
    encoder_b: Mlp
    decoder_b: Mlp
    config: ChimericConfig
    features_a: tuple[str, ...]
    features_b: tuple[str, ...]
    mapped_count: int
    scaler_a: ColumnScaler
    scaler_b: ColumnScaler
    loss_trace: dict[str, list[float]] = field(default_factory=dict)

    def __post_init__(self):
        if self.encoder_a.out_dim != self.encoder_b.out_dim:
            raise ValueError("encoders must share the latent dimension")
        if self.decoder_a.in_dim != self.encoder_a.out_dim:
            raise ValueError("decoder_a latent width mismatch")
        if self.decoder_b.in_dim != self.encoder_b.out_dim:
            raise ValueError("decoder_b latent width mismatch")
        if self.encoder_a.in_dim != len(self.features_a):
            raise ValueError("encoder_a width does not match features_a")
        if self.encoder_b.in_dim != len(self.features_b):
            raise ValueError("encoder_b width does not match features_b")
        for name, scaler, features in (("scaler_a", self.scaler_a, self.features_a),
                                       ("scaler_b", self.scaler_b, self.features_b)):
            if not scaler.mean.shape == scaler.std.shape == (len(features),):
                raise ValueError(f"{name} width does not match its features")


def _build_networks(p_a: int, p_b: int, cfg: ChimericConfig):
    h1, h2 = cfg.hidden
    act = cfg.activation
    enc_acts = [act, act, cfg.latent_activation]
    dec_acts = [act, act, cfg.output_activation]
    # dropout after the second hidden layer of the encoder, first of the decoder
    enc_a = Mlp([p_a, h1, h2, cfg.latent_dim], enc_acts, dropout_sites=(1,),
                dropout_rate=cfg.dropout, rng=np.random.default_rng([cfg.seed, 1]))
    dec_a = Mlp([cfg.latent_dim, h2, h1, p_a], dec_acts, dropout_sites=(0,),
                dropout_rate=cfg.dropout, rng=np.random.default_rng([cfg.seed, 2]))
    enc_b = Mlp([p_b, h1, h2, cfg.latent_dim], enc_acts, dropout_sites=(1,),
                dropout_rate=cfg.dropout, rng=np.random.default_rng([cfg.seed, 3]))
    dec_b = Mlp([cfg.latent_dim, h2, h1, p_b], dec_acts, dropout_sites=(0,),
                dropout_rate=cfg.dropout, rng=np.random.default_rng([cfg.seed, 4]))
    return enc_a, dec_a, enc_b, dec_b


def _mse(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all entries and its gradient w.r.t. pred."""
    diff = pred - target
    loss = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    return loss, grad


def cross_loss(z: np.ndarray, x: np.ndarray, k: int, weights: np.ndarray):
    """Weighted MSE of the first k translated columns against the source's own
    mapped columns. Only columns < k contribute; the gradient is zero elsewhere."""
    if k < 1:
        raise ValueError("cross loss needs at least one mapped column")
    diff = z[:, :k] - x[:, :k]
    m = diff.shape[0]
    loss = float(np.mean(weights[None, :] * diff * diff))
    grad = np.zeros_like(z)
    grad[:, :k] = 2.0 * weights[None, :] * diff / (m * k)
    return loss, grad


def _orth_loss(lat: np.ndarray, eps: float = 1e-12):
    """Frobenius distance of the batch-normalized latent Gram matrix from the
    identity, with a safe gradient at zero."""
    m, l = lat.shape
    gram = lat.T @ lat / m - np.eye(l)
    norm = float(np.linalg.norm(gram))
    if norm < eps:
        return norm, np.zeros_like(lat)
    grad = 2.0 * (lat @ gram) / (m * norm)
    return norm, grad


def _side_pass(
    f_src: Mlp, g_src: Mlp, f_dst: Mlp, g_dst: Mlp,
    x: np.ndarray, k: int, weights: np.ndarray, cfg: ChimericConfig, rng, grads: dict,
):
    """One direction of the objective: reconstruction, cross-reconstruction of
    the mapped block through the other decoder, cycle consistency, and latent
    orthogonalization. Adds each network's parameter gradients into
    grads[network], in the order computed, and returns the losses
    (ae, ce, cy, orth, total)."""
    lat, c_enc = f_src.forward(x, train=True, rng=rng)
    rec, c_dec = g_src.forward(lat, train=True, rng=rng)
    z, c_xdec = g_dst.forward(lat, train=True, rng=rng)
    lat2, c_xenc = f_dst.forward(z, train=True, rng=rng)
    cyc, c_dec2 = g_src.forward(lat2, train=True, rng=rng)

    ae, d_rec = _mse(rec, x)
    ce, d_z_ce = cross_loss(z, x, k, weights)
    cy, d_cyc = _mse(cyc, x)
    orth, d_lat_orth = _orth_loss(lat)

    # backprop: reconstruction branch
    g1, d_lat_ae = g_src.backward(c_dec, d_rec)
    # cycle branch back through g_src, f_dst
    g2, d_lat2 = g_src.backward(c_dec2, cfg.w_cycle * d_cyc)
    g3, d_z_cy = f_dst.backward(c_xenc, d_lat2)
    # chimeric output receives the cross gradient plus the cycle path
    g4, d_lat_x = g_dst.backward(c_xdec, cfg.w_cross * d_z_ce + d_z_cy)
    # encoder sees all three latent consumers
    d_lat = d_lat_ae + d_lat_x + cfg.w_orth * d_lat_orth
    g5, _ = f_src.backward(c_enc, d_lat)
    for net, part in ((g_src, g1), (g_src, g2), (f_dst, g3), (g_dst, g4), (f_src, g5)):
        if net in grads:
            for acc, g in zip(grads[net], part):
                acc += g
        else:
            grads[net] = part

    total = ae + cfg.w_cross * ce + cfg.w_cycle * cy + cfg.w_orth * orth
    return ae, ce, cy, orth, total


def _loss_and_gradient(nets, xa: np.ndarray, xb: np.ndarray, k: int, w_a: np.ndarray,
                       w_b: np.ndarray, cfg: ChimericConfig, rng):
    """The objective of one training step on a mini-batch from each database:
    both directions' losses in LOSS_KEYS order, the last being the total, and
    the total's gradient with respect to every parameter of nets = (enc_a,
    dec_a, enc_b, dec_b), one array per parameter in that order."""
    enc_a, dec_a, enc_b, dec_b = nets
    grads: dict[Mlp, list[np.ndarray]] = {}
    ae_a, ce_a, cy_a, orth_a, total_a = _side_pass(
        enc_a, dec_a, enc_b, dec_b, xa, k, w_a, cfg, rng, grads)
    ae_b, ce_b, cy_b, orth_b, total_b = _side_pass(
        enc_b, dec_b, enc_a, dec_a, xb, k, w_b, cfg, rng, grads)
    losses = np.array([ae_a, ae_b, ce_a, ce_b, cy_a, cy_b, orth_a + orth_b, total_a + total_b])
    return losses, [g for net in nets for g in grads[net]]


def train(ds_a: Dataset, ds_b: Dataset, cfg: ChimericConfig | None = None) -> ChimericModel:
    """Train the paired autoencoders on two preprocessed databases whose first K
    columns are the known-mapped block (same pairing order on both sides).

    Per step, one mini-batch is drawn independently from each database, and one
    Adam step updates all four networks. Any non-finite loss aborts with
    TrainingDiverged.
    """
    cfg = cfg or ChimericConfig()
    k = ds_a.mapped_count
    if k < 1:
        raise ValueError("training requires at least one mapped feature")
    if ds_b.mapped_count != k:
        raise ValueError("databases disagree on the mapped count")
    p_a, p_b = ds_a.n_features, ds_b.n_features
    if cfg.latent_dim >= min(p_a, p_b):
        raise ValueError("latent_dim must be smaller than both feature counts")

    w_a = np.array([f.certainty_weight for f in ds_a.features[:k]])
    w_b = np.array([f.certainty_weight for f in ds_b.features[:k]])

    nets = enc_a, dec_a, enc_b, dec_b = _build_networks(p_a, p_b, cfg)
    opt = Adam([p for net in nets for p in net.parameters()], lr=cfg.lr,
               weight_decay=cfg.weight_decay)
    sched = PlateauScheduler(cfg.lr, factor=cfg.lr_factor, patience=cfg.lr_patience)
    rng = np.random.default_rng([cfg.seed, 5])

    n_a, n_b = ds_a.n_rows, ds_b.n_rows
    # condition the optimization: networks train on standardized columns so the
    # reconstruction and orthogonalization terms live on comparable scales
    # regardless of the preprocessing's column norms
    scaler_a = ColumnScaler.fit(ds_a.values)
    scaler_b = ColumnScaler.fit(ds_b.values)
    xa_all = scaler_a.transform(ds_a.values)
    xb_all = scaler_b.transform(ds_b.values)
    steps = max(1, math.ceil(max(n_a, n_b) / cfg.batch_size))
    epoch_means = np.empty((cfg.epochs, len(LOSS_KEYS)))  # columns in LOSS_KEYS order

    for epoch in range(cfg.epochs):
        sums = np.zeros(len(LOSS_KEYS))
        for step in range(steps):
            ia = rng.choice(n_a, size=min(cfg.batch_size, n_a), replace=False)
            ib = rng.choice(n_b, size=min(cfg.batch_size, n_b), replace=False)
            losses, grad = _loss_and_gradient(nets, xa_all[ia], xb_all[ib], k, w_a, w_b,
                                              cfg, rng)
            if not math.isfinite(losses[-1]):
                terms = ", ".join(f"{key}={v}" for key, v in zip(LOSS_KEYS, losses))
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch} step {step}: {terms}")
            opt.step(grad)
            for net in nets:
                net.mark_updated()
            sums += losses
        epoch_means[epoch] = sums / steps
        opt.lr = sched.update(epoch_means[epoch, -1])
    trace = {key: col.tolist() for key, col in zip(LOSS_KEYS, epoch_means.T)}

    return ChimericModel(
        encoder_a=enc_a, decoder_a=dec_a, encoder_b=enc_b, decoder_b=dec_b,
        config=cfg,
        features_a=tuple(ds_a.feature_names),
        features_b=tuple(ds_b.feature_names),
        mapped_count=k,
        scaler_a=scaler_a,
        scaler_b=scaler_b,
        loss_trace=trace,
    )


def translate(model: ChimericModel, values: np.ndarray, direction: str = "a_to_b") -> np.ndarray:
    """Deterministic (no-dropout) translation of rows from one database's
    feature space into the other's: decode_other(encode_own(x)), returned in
    the target database's data units."""
    if direction not in TRANSLATION_DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    values = np.asarray(values, dtype=np.float64)
    if direction == "a_to_b":
        enc, dec = model.encoder_a, model.decoder_b
        s_in, s_out = model.scaler_a, model.scaler_b
    else:
        enc, dec = model.encoder_b, model.decoder_a
        s_in, s_out = model.scaler_b, model.scaler_a
    return s_out.inverse(dec.predict(enc.predict(s_in.transform(values))))


def chimeric_dependence(
    ds: Dataset,
    z: np.ndarray,
    z_features,
    measure: str = "pearson",
) -> SimilarityMatrix:
    """Dependence of every raw feature on every translated feature over the same
    rows. measure: "pearson" (default) or "mutual_information" on 8 quantile
    bins."""
    z = np.asarray(z, dtype=np.float64)
    z_features = list(z_features)
    if z.shape[1] != len(z_features):
        raise ValueError("translated matrix width does not match feature names")
    if z.shape[0] != ds.n_rows:
        raise ValueError("row mismatch between dataset and translation")
    if measure == "pearson":
        values, degen = pearson_matrix(ds.values, z)
    elif measure == "mutual_information":
        codes = [discretize(col, 8) for col in ds.values.T] + [discretize(col, 8) for col in z.T]
        p, q = ds.n_features, z.shape[1]
        pairs = [(i, p + j) for i in range(p) for j in range(q)]
        values = mutual_information_pairs(codes, pairs).reshape(p, q)
        degen = np.zeros(values.shape, dtype=bool)
        flat = values.std(axis=1) == 0
        degen[flat, :] = True
    else:
        raise ValueError(f"unknown measure {measure!r}")
    return SimilarityMatrix(ds.feature_names, z_features, values, degen)


def reconstruct_unshared(
    model: ChimericModel, ds: Dataset, feature: str, direction: str = "a_to_b"
) -> np.ndarray:
    """Surrogate values for a feature that exists only in the other database:
    translate ds's rows and read off the target column."""
    z = translate(model, ds.values, direction)  # rejects an unknown direction
    targets = model.features_b if direction == "a_to_b" else model.features_a
    if feature not in targets:
        raise ValueError(f"{feature!r} is not a feature of the target database")
    return z[:, list(targets).index(feature)]


def save_model(model: ChimericModel, path) -> None:
    meta = json.dumps(
        {
            "config": asdict(model.config),
            "features_a": list(model.features_a),
            "features_b": list(model.features_b),
            "mapped_count": model.mapped_count,
            "loss_trace": model.loss_trace,
        }
    )
    arrays = {"meta": np.frombuffer(meta.encode(), dtype=np.uint8)}
    for tag, net in (("ea", model.encoder_a), ("da", model.decoder_a),
                     ("eb", model.encoder_b), ("db", model.decoder_b)):
        arrays.update(mlp_arrays(net, f"{tag}_"))
    for tag, scaler in (("sa", model.scaler_a), ("sb", model.scaler_b)):
        arrays[f"{tag}_mean"] = scaler.mean
        arrays[f"{tag}_std"] = scaler.std
    np.savez(path, **arrays)


def load_model(path) -> ChimericModel:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        cfg = from_dict(ChimericConfig, meta["config"])
        nets = _build_networks(len(meta["features_a"]), len(meta["features_b"]), cfg)
        for tag, net in zip(("ea", "da", "eb", "db"), nets):
            load_mlp_arrays(net, data, f"{tag}_")
        scaler_a, scaler_b = (
            ColumnScaler(mean=data[f"{tag}_mean"].astype(np.float64),
                         std=data[f"{tag}_std"].astype(np.float64))
            for tag in ("sa", "sb")
        )
    return ChimericModel(
        *nets,
        config=cfg,
        features_a=tuple(meta["features_a"]),
        features_b=tuple(meta["features_b"]),
        mapped_count=meta["mapped_count"],
        scaler_a=scaler_a,
        scaler_b=scaler_b,
        loss_trace=meta["loss_trace"],
    )
