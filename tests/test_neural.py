"""Network engine: gradients vs central finite differences, optimizer and
scheduler recurrences, dropout statistics, and checkpointing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from schemamatch.neural import (
    ACTIVATIONS,
    Adam,
    Mlp,
    PlateauScheduler,
    _activate,
    _backprop_activation,
    load_mlp_arrays,
    mlp_arrays,
)

SMOOTH = ("linear", "tanh", "sigmoid")


def random_net(rng, activations=SMOOTH):
    depth = int(rng.integers(2, 4))  # 2 or 3 weight layers
    sizes = [int(rng.integers(1, 6)) for _ in range(depth + 1)]
    acts = [str(rng.choice(activations)) for _ in range(depth)]
    return Mlp(sizes, acts, rng=rng)


def loss_and_grads(net, x, w_out):
    """Scalar loss sum(w_out * out) with analytic parameter and input grads."""
    out, cache = net.forward(x)
    loss = float(np.sum(w_out * out))
    grads, g_in = net.backward(cache, w_out)
    return loss, grads, g_in


def numeric_grad(f, arr, h=1e-6):
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        keep = arr[idx]
        arr[idx] = keep + h
        up = f()
        arr[idx] = keep - h
        down = f()
        arr[idx] = keep
        g[idx] = (up - down) / (2 * h)
        it.iternext()
    return g


def max_rel_error(analytic, numeric):
    scale = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / scale))


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(60)
    worst = 0.0
    for _ in range(20):
        net = random_net(rng)
        x = rng.standard_normal((int(rng.integers(1, 5)), net.in_dim))
        w_out = rng.standard_normal((x.shape[0], net.out_dim))
        _, grads, g_in = loss_and_grads(net, x, w_out)
        params = net.parameters()
        for p, g in zip(params, grads):
            num = numeric_grad(lambda: loss_and_grads(net, x, w_out)[0], p)
            worst = max(worst, max_rel_error(g, num))
        num_in = numeric_grad(lambda: loss_and_grads(net, x, w_out)[0], x)
        worst = max(worst, max_rel_error(g_in, num_in))
    assert worst < 1e-4, f"max relative gradient error {worst:.2e}"


def test_relu_gradient_away_from_kink():
    rng = np.random.default_rng(61)
    net = Mlp([3, 4, 2], ["relu", "linear"], rng=rng)
    # regenerate inputs until no preactivation sits near the kink
    for _ in range(50):
        x = rng.standard_normal((3, 3))
        if np.abs(x @ net.weights[0] + net.biases[0]).min() > 1e-2:
            break
    w_out = rng.standard_normal((3, 2))
    _, grads, _ = loss_and_grads(net, x, w_out)
    for p, g in zip(net.parameters(), grads):
        num = numeric_grad(lambda: loss_and_grads(net, x, w_out)[0], p)
        assert max_rel_error(g, num) < 1e-4


def _derivative_from_preactivation(name, z):
    """Each activation's derivative written in terms of z, as textbooks do."""
    if name == "linear":
        return np.ones_like(z)
    if name == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    s = 1.0 / (1.0 + np.exp(-z))
    return s * (1.0 - s)


_EDGE_Z = [0.0, -0.0, -1.0, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0, 1e300, -1e300]


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(ACTIVATIONS),
    z=hnp.arrays(np.float64, st.integers(1, 12),
                 elements=st.one_of(st.sampled_from(_EDGE_Z),
                                    st.floats(-1e300, 1e300, allow_nan=False))),
    seed=st.integers(0, 2**32 - 1),
)
def test_backprop_activation_equals_derivative_from_preactivation(name, z, seed):
    """Backward reads only the activation output; the gradient it builds is
    bit-identical to g times the derivative computed from the preactivation,
    relu's h > 0 included (h = max(z, 0) is positive exactly when z is)."""
    g = np.random.default_rng(seed).standard_normal(z.shape)
    with np.errstate(over="ignore"):  # sigmoid's exp(-z) saturates at large negative z
        h = _activate(name, z)
        want = g * _derivative_from_preactivation(name, z)
    assert np.array_equal(_backprop_activation(name, h, g), want)


def test_forward_shapes_and_validation():
    rng = np.random.default_rng(62)
    net = Mlp([3, 5, 2], ["tanh", "linear"], rng=rng)
    out, _ = net.forward(np.zeros((7, 3)))
    assert out.shape == (7, 2)
    with pytest.raises(ValueError):
        net.forward(np.zeros((7, 4)))
    with pytest.raises(ValueError):
        Mlp([3], ["tanh"])
    with pytest.raises(ValueError):
        Mlp([3, 2], ["tanh", "tanh"])
    with pytest.raises(ValueError):
        Mlp([3, 2], ["softplus"])
    with pytest.raises(ValueError):
        Mlp([3, 2], ["tanh"], dropout_rate=1.0)
    with pytest.raises(ValueError):
        Mlp([3, 2], ["tanh"], dropout_sites=(1,))


def test_stale_cache_rejected():
    rng = np.random.default_rng(63)
    net = Mlp([2, 3, 2], ["tanh", "linear"], rng=rng)
    x = rng.standard_normal((4, 2))
    _, cache = net.forward(x)
    net.mark_updated()
    with pytest.raises(ValueError, match="stale"):
        net.backward(cache, np.ones((4, 2)))


def test_backward_shape_check():
    rng = np.random.default_rng(64)
    net = Mlp([2, 3, 2], ["tanh", "linear"], rng=rng)
    _, cache = net.forward(rng.standard_normal((4, 2)))
    with pytest.raises(ValueError):
        net.backward(cache, np.ones((4, 3)))


# ---------------------------------------------------------------- dropout

def test_dropout_needs_rng_and_only_in_training():
    rng = np.random.default_rng(65)
    net = Mlp([2, 8, 2], ["tanh", "linear"], dropout_sites=(0,), dropout_rate=0.5,
              rng=rng)
    x = rng.standard_normal((5, 2))
    with pytest.raises(ValueError, match="rng"):
        net.forward(x, train=True)
    # evaluation forward is deterministic and mask-free
    out1, c1 = net.forward(x)
    out2, _ = net.forward(x)
    assert np.array_equal(out1, out2)
    assert all(layer.mask is None for layer in c1.layers)


def test_dropout_mask_statistics():
    rng = np.random.default_rng(66)
    net = Mlp([2, 6, 2], ["tanh", "linear"], dropout_sites=(0,), dropout_rate=0.5,
              rng=rng)
    x = rng.standard_normal((4, 2))
    _, cache = net.forward(x, train=True, rng=rng)
    mask = cache.layers[0].mask
    assert mask is not None and cache.layers[1].mask is None
    assert set(np.unique(mask)) <= {0.0, 2.0}  # inverted scaling by 1/keep


def test_dropout_expectation_matches_eval():
    # E[dropped activation] equals the eval activation; compare the mean of the
    # dropped hidden layer over many draws against the deterministic pass
    rng = np.random.default_rng(67)
    net = Mlp([3, 16, 2], ["tanh", "linear"], dropout_sites=(0,), dropout_rate=0.5,
              rng=rng)
    x = rng.standard_normal((2, 3))
    _, eval_cache = net.forward(x)
    eval_hidden = eval_cache.layers[0].post
    total = np.zeros_like(eval_hidden)
    n = 10000
    for _ in range(n):
        _, c = net.forward(x, train=True, rng=rng)
        total += c.layers[0].post * c.layers[0].mask
    avg = total / n
    denom = np.abs(eval_hidden).mean()
    assert np.abs(avg - eval_hidden).mean() / denom < 0.02


# ---------------------------------------------------------------- Adam

def adam_reference(grads, lr, b1=0.9, b2=0.999, eps=1e-8, wd=0.0, theta0=0.0):
    """Textbook scalar Adam recurrence."""
    theta, m, v = theta0, 0.0, 0.0
    path = []
    for t, g in enumerate(grads, start=1):
        g = g + wd * theta
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        theta = theta - lr * mhat / (np.sqrt(vhat) + eps)
        path.append(theta)
    return path


def test_adam_matches_scalar_recurrence():
    rng = np.random.default_rng(68)
    gs = rng.standard_normal(50)
    for wd in (0.0, 0.1):
        p = np.array([0.7])
        opt = Adam([p], lr=0.05, weight_decay=wd)
        ref = adam_reference(gs, lr=0.05, wd=wd, theta0=0.7)
        for g, want in zip(gs, ref):
            opt.step([np.array([g])])
            assert p[0] == pytest.approx(want, abs=1e-10)


def test_adam_updates_in_place_and_validates():
    p = np.ones((2, 2))
    opt = Adam([p], lr=0.1)
    opt.step([np.ones((2, 2))])
    assert not np.array_equal(p, np.ones((2, 2)))
    with pytest.raises(ValueError):
        opt.step([np.ones((2, 2)), np.ones(2)])
    with pytest.raises(ValueError):
        opt.step([np.ones(3)])


def test_one_adam_over_two_groups_equals_two_adams():
    """Adam updates each element on its own, so one instance over two parameter
    groups leaves the same bits as one instance per group, lr changes included."""
    rng = np.random.default_rng(72)
    shapes = [(3, 4), (4,), (4, 2), (2,)]
    group_a = [rng.standard_normal(s) for s in shapes]
    group_b = [rng.standard_normal(s) for s in shapes[::-1]]
    joint = [p.copy() for p in group_a + group_b]
    opt_a = Adam(group_a, lr=1e-2, weight_decay=1e-5)
    opt_b = Adam(group_b, lr=1e-2, weight_decay=1e-5)
    opt = Adam(joint, lr=1e-2, weight_decay=1e-5)
    for step in range(20):
        if step == 10:
            opt_a.lr = opt_b.lr = opt.lr = 5e-3
        grads_a = [rng.standard_normal(p.shape) for p in group_a]
        grads_b = [rng.standard_normal(p.shape) for p in group_b]
        opt_a.step(grads_a)
        opt_b.step(grads_b)
        opt.step(grads_a + grads_b)
    for p, q in zip(group_a + group_b, joint):
        assert np.array_equal(p, q)


def test_adam_minimizes_quadratic():
    p = np.array([5.0])
    opt = Adam([p], lr=0.1)
    for _ in range(500):
        opt.step([2.0 * p])  # d/dp of p^2
    assert abs(p[0]) < 1e-2


# ---------------------------------------------------------------- scheduler

def test_plateau_halves_on_constant_loss():
    # the first update establishes the best; after that, constant loss halves
    # the rate every `patience` updates
    sched = PlateauScheduler(1.0, factor=0.5, patience=2)
    lrs = [sched.update(1.0) for _ in range(7)]
    assert lrs == [1.0, 1.0, 0.5, 0.5, 0.25, 0.25, 0.125]


def test_plateau_improvement_resets_counter():
    sched = PlateauScheduler(1.0, factor=0.5, patience=2)
    sched.update(1.0)
    assert sched.update(0.9) == 1.0  # real improvement
    assert sched.update(0.9) == 1.0  # bad 1
    assert sched.update(0.89999999) == 0.5  # below relative threshold: bad 2
    with pytest.raises(ValueError):
        PlateauScheduler(1.0, factor=1.5)


def test_plateau_respects_min_lr():
    sched = PlateauScheduler(1e-5, factor=0.1, patience=1)
    for _ in range(5):
        lr = sched.update(1.0)
    assert lr == 1e-6


# ---------------------------------------------------------------- training sanity

def test_autoencoder_reduces_reconstruction_error():
    rng = np.random.default_rng(69)
    # strongly correlated 2-D data is compressible to 1 effective direction
    x = rng.standard_normal((64, 1)) @ np.array([[1.0, 0.8]])
    x += 0.05 * rng.standard_normal(x.shape)
    enc = Mlp([2, 2, 2], ["tanh", "linear"], rng=np.random.default_rng(1))
    dec = Mlp([2, 2, 2], ["tanh", "linear"], rng=np.random.default_rng(2))
    opt = Adam(enc.parameters() + dec.parameters(), lr=1e-2)

    def step():
        lat, ce = enc.forward(x)
        out, cd = dec.forward(lat)
        diff = out - x
        loss = float(np.mean(diff * diff))
        gd, glat = dec.backward(cd, 2.0 * diff / diff.size)
        ge, _ = enc.backward(ce, glat)
        opt.step(ge + gd)
        enc.mark_updated()
        dec.mark_updated()
        return loss

    first = step()
    for _ in range(199):
        last = step()
    assert last < 0.5 * first


# ---------------------------------------------------------------- checkpoints

def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(70)
    net = Mlp([3, 5, 2], ["tanh", "sigmoid"], dropout_sites=(0,), dropout_rate=0.3,
              rng=rng)
    path = tmp_path / "net.npz"
    np.savez(path, **mlp_arrays(net, "n_"))
    back = Mlp([3, 5, 2], ["tanh", "sigmoid"], dropout_sites=(0,), dropout_rate=0.3)
    with np.load(path) as data:
        load_mlp_arrays(back, data, "n_")
    x = rng.standard_normal((4, 3))
    assert np.array_equal(back.forward(x)[0], net.forward(x)[0])


def test_load_rejects_tampered_shapes(tmp_path):
    rng = np.random.default_rng(71)
    net = Mlp([3, 5, 2], ["tanh", "linear"], rng=rng)
    path = tmp_path / "net.npz"
    arrays = mlp_arrays(net)
    arrays["w0"] = np.zeros((3, 9))
    np.savez(path, **arrays)
    with np.load(path) as data, pytest.raises(ValueError, match="shape mismatch"):
        load_mlp_arrays(net, data)
