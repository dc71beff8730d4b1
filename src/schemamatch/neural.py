"""Minimal dense-network engine: fixed-architecture MLPs with hand-written
backpropagation, Adam, and a reduce-on-plateau learning-rate schedule.

Everything runs in float64. `backward` returns both the parameter gradients and
the gradient with respect to the network input, so multiple networks can be
chained (encoder/decoder compositions) by passing gradients through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("linear", "tanh", "relu", "sigmoid")

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults
PLATEAU_THRESHOLD, PLATEAU_MIN_LR = 1e-4, 1e-6  # relative improvement; lr floor


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


def _backprop_activation(name: str, h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """d loss / d preactivation from the output h and g = d loss / d h. Each
    derivative is a function of h (relu's h > 0 is exactly z > 0)."""
    if name == "linear":
        return g
    if name == "tanh":
        return g * (1.0 - h * h)
    if name == "relu":
        return g * (h > 0.0)
    if name == "sigmoid":
        return g * (h * (1.0 - h))
    raise ValueError(f"unknown activation {name!r}")


@dataclass
class _LayerCache:
    inputs: np.ndarray
    post: np.ndarray  # activation output before dropout
    mask: np.ndarray | None  # inverted dropout mask, already scaled


class ForwardCache:
    """Per-application forward state consumed exactly once by backward."""

    def __init__(self, layers: list[_LayerCache], version: int):
        self.layers = layers
        self.version = version


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
            if a not in ACTIVATIONS:
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
            post = _activate(self.activations[i], a @ w + b)
            mask = None
            out = post
            if train and self.dropout_rate > 0.0 and i in self.dropout_sites:
                if rng is None:
                    raise ValueError("training forward with dropout needs an rng")
                keep = 1.0 - self.dropout_rate
                mask = (rng.random(post.shape) < keep).astype(np.float64) / keep
                out = post * mask
            layers.append(_LayerCache(inputs=a, post=post, mask=mask))
            a = out
        return a, ForwardCache(layers, self._version)

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
        grads: list[np.ndarray] = [None] * (2 * len(self.weights))
        for i in range(len(self.weights) - 1, -1, -1):
            layer = cache.layers[i]
            if layer.mask is not None:
                g = g * layer.mask
            dz = _backprop_activation(self.activations[i], layer.post, g)
            grads[2 * i] = layer.inputs.T @ dz
            grads[2 * i + 1] = dz.sum(axis=0)
            g = dz @ self.weights[i].T
        return grads, g


class Adam:
    """Adam with optional additive weight decay (lambda * theta added to grads)."""

    def __init__(self, params, lr=1e-2, weight_decay=0.0):
        self.params = list(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.t = 0

    def step(self, grads) -> None:
        if len(grads) != len(self.params):
            raise ValueError("gradient list length mismatch")
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            if g.shape != p.shape:
                raise ValueError("gradient shape mismatch")
            if self.weight_decay:
                g = g + self.weight_decay * p
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)


class PlateauScheduler:
    """Multiply the learning rate by `factor`, down to PLATEAU_MIN_LR, when the
    best loss has not improved by a relative PLATEAU_THRESHOLD for `patience`
    consecutive updates."""

    def __init__(self, lr, factor=0.5, patience=5):
        if not 0 < factor < 1:
            raise ValueError("factor must be in (0, 1)")
        self.lr = float(lr)
        self.factor = float(factor)
        self.patience = int(patience)
        self.best = math.inf
        self.bad_epochs = 0

    def update(self, loss: float) -> float:
        loss = float(loss)
        if loss < self.best * (1.0 - PLATEAU_THRESHOLD):
            self.best = loss
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs >= self.patience:
                self.lr = max(self.lr * self.factor, PLATEAU_MIN_LR)
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
