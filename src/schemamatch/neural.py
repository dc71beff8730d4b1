"""Minimal dense-network engine: fixed-architecture MLPs with hand-written
backpropagation, Adam, and a reduce-on-plateau learning-rate schedule.

Everything runs in float64. `backward` returns both the parameter gradients and
the gradient with respect to the network input, so multiple networks can be
chained (encoder/decoder compositions) by passing gradients through.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

_ACTIVATIONS = ("linear", "tanh", "relu", "sigmoid")


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "linear":
        return z
    if name == "tanh":
        return np.tanh(z)
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    raise ValueError(f"unknown activation {name!r}")


def _activate_grad(name: str, z: np.ndarray, h: np.ndarray) -> np.ndarray:
    """d activation / d preactivation, from preactivation z and output h."""
    if name == "linear":
        return np.ones_like(z)
    if name == "tanh":
        return 1.0 - h * h
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "sigmoid":
        return h * (1.0 - h)
    raise ValueError(f"unknown activation {name!r}")


@dataclass
class _LayerCache:
    inputs: np.ndarray
    pre: np.ndarray
    post: np.ndarray  # activation output before dropout
    mask: np.ndarray | None  # inverted dropout mask, already scaled


class ForwardCache:
    """Per-application forward state consumed exactly once by backward."""

    def __init__(self, layers: list[_LayerCache], version: int, train: bool):
        self.layers = layers
        self.version = version
        self.train = train


class Mlp:
    """Fully connected network with one activation tag per weight layer.

    `dropout_sites` are 0-based weight-layer indices; inverted Bernoulli
    dropout is applied after that layer's activation during training only.
    Weights start uniform on ±sqrt(6 / (fan_in + fan_out)), biases at zero.
    """

    def __init__(self, sizes, activations, dropout_sites=(), dropout_rate=0.0, rng=None):
        sizes = [int(s) for s in sizes]
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError("sizes must list at least two positive layer widths")
        activations = list(activations)
        if len(activations) != len(sizes) - 1:
            raise ValueError("need one activation per weight layer")
        for a in activations:
            if a not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")
        if not 0.0 <= dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        sites = sorted(set(int(i) for i in dropout_sites))
        if any(i < 0 or i >= len(sizes) - 1 for i in sites):
            raise ValueError("dropout site out of range")
        rng = np.random.default_rng(rng)
        self.sizes = sizes
        self.activations = activations
        self.dropout_sites = tuple(sites)
        self.dropout_rate = float(dropout_rate)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        self._version = 0  # bumped whenever parameters are updated

    @property
    def in_dim(self) -> int:
        return self.sizes[0]

    @property
    def out_dim(self) -> int:
        return self.sizes[-1]

    def parameters(self) -> list[np.ndarray]:
        """Live parameter references, ordered [W0, b0, W1, b1, ...]."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def mark_updated(self) -> None:
        self._version += 1

    def forward(self, x, train: bool = False, rng=None):
        """Run the network; returns (output, cache). Dropout needs `rng` when
        training with a nonzero rate."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"expected input of width {self.in_dim}, got {x.shape}")
        layers: list[_LayerCache] = []
        a = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            pre = a @ w + b
            post = _activate(self.activations[i], pre)
            mask = None
            out = post
            if train and self.dropout_rate > 0.0 and i in self.dropout_sites:
                if rng is None:
                    raise ValueError("training forward with dropout needs an rng")
                keep = 1.0 - self.dropout_rate
                mask = (rng.random(post.shape) < keep).astype(np.float64) / keep
                out = post * mask
            layers.append(_LayerCache(inputs=a, pre=pre, post=post, mask=mask))
            a = out
        return a, ForwardCache(layers, self._version, train)

    def backward(self, cache: ForwardCache, grad_output):
        """Backpropagate d(loss)/d(output); returns (param_grads, grad_input).

        param_grads matches parameters() ordering. Raises if the cache predates
        a parameter update (stale) or the gradient shape is wrong.
        """
        if cache.version != self._version:
            raise ValueError("stale forward cache: parameters changed since forward")
        g = np.asarray(grad_output, dtype=np.float64)
        last = cache.layers[-1]
        expect = (last.inputs.shape[0], self.out_dim)
        if g.shape != expect:
            raise ValueError(f"grad_output shape {g.shape} != {expect}")
        w_grads: list[np.ndarray] = [None] * len(self.weights)
        b_grads: list[np.ndarray] = [None] * len(self.biases)
        for i in range(len(self.weights) - 1, -1, -1):
            layer = cache.layers[i]
            if layer.mask is not None:
                g = g * layer.mask
            dz = g * _activate_grad(self.activations[i], layer.pre, layer.post)
            w_grads[i] = layer.inputs.T @ dz
            b_grads[i] = dz.sum(axis=0)
            g = dz @ self.weights[i].T
        grads = []
        for wg, bg in zip(w_grads, b_grads):
            grads.append(wg)
            grads.append(bg)
        return grads, g


class Adam:
    """Adam with optional additive weight decay (lambda * theta added to grads)."""

    def __init__(self, params, lr=1e-2, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=0.0):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.t = 0

    def step(self, grads) -> None:
        if len(grads) != len(self.params):
            raise ValueError("gradient list length mismatch")
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            if g.shape != p.shape:
                raise ValueError("gradient shape mismatch")
            if self.weight_decay:
                g = g + self.weight_decay * p
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


class PlateauScheduler:
    """Multiply the learning rate by `factor` when the best loss has not improved
    by a relative `threshold` for `patience` consecutive updates."""

    def __init__(self, lr, factor=0.5, patience=5, threshold=1e-4, min_lr=1e-6):
        if not 0 < factor < 1:
            raise ValueError("factor must be in (0, 1)")
        self.lr = float(lr)
        self.factor = float(factor)
        self.patience = int(patience)
        self.threshold = float(threshold)
        self.min_lr = float(min_lr)
        self.best = math.inf
        self.bad_epochs = 0

    def update(self, loss: float) -> float:
        loss = float(loss)
        if loss < self.best * (1.0 - self.threshold):
            self.best = loss
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs >= self.patience:
                self.lr = max(self.lr * self.factor, self.min_lr)
                self.bad_epochs = 0
        return self.lr


def mlp_arrays(mlp: Mlp, prefix: str = "") -> dict[str, np.ndarray]:
    """One network's parameters as checkpoint arrays named
    `{prefix}w{i}` / `{prefix}b{i}`, in layer order."""
    arrays = {}
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        arrays[f"{prefix}w{i}"] = w
        arrays[f"{prefix}b{i}"] = b
    return arrays


def load_mlp_arrays(mlp: Mlp, data, prefix: str = "") -> None:
    """Replace a network's parameters with arrays written by mlp_arrays; every
    weight and bias shape is validated against the network's architecture."""
    for i in range(len(mlp.weights)):
        w = data[f"{prefix}w{i}"]
        b = data[f"{prefix}b{i}"]
        if w.shape != mlp.weights[i].shape or b.shape != mlp.biases[i].shape:
            raise ValueError(f"checkpoint {prefix}layer {i} shape mismatch")
        mlp.weights[i] = w.astype(np.float64)
        mlp.biases[i] = b.astype(np.float64)


def save_mlp(mlp: Mlp, path) -> None:
    """Serialize architecture and parameters to an .npz checkpoint."""
    meta = json.dumps(
        {
            "sizes": mlp.sizes,
            "activations": mlp.activations,
            "dropout_sites": list(mlp.dropout_sites),
            "dropout_rate": mlp.dropout_rate,
        }
    )
    np.savez(path, meta=np.frombuffer(meta.encode(), dtype=np.uint8),
             **mlp_arrays(mlp))


def load_mlp(path) -> Mlp:
    """Load a checkpoint; array shapes are validated against the stored sizes."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        mlp = Mlp(
            meta["sizes"],
            meta["activations"],
            dropout_sites=meta["dropout_sites"],
            dropout_rate=meta["dropout_rate"],
        )
        load_mlp_arrays(mlp, data)
    return mlp
