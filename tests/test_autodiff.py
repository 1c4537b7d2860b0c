from collections import Counter

import numpy as np
import pytest

from conftest import (
    brute_scatter_max,
    brute_scatter_max_routing,
    check_grads,
    softmax_chain,
    spread_values,
)

from pointcast import autodiff as ad
from pointcast.indexing import group_by_keys
from pointcast.optim import adam_init, adam_step, lr_at_epoch


def rand_table(rng, n, n_keys=4):
    return group_by_keys(rng.integers(0, n_keys, size=n))


# ---------------------------------------------------------------------------
# forward semantics


def test_linear_identity():
    x = ad.constant(np.arange(6.0).reshape(2, 3))
    w = ad.constant(np.eye(3))
    b = ad.constant(np.zeros((1, 3)))
    np.testing.assert_array_equal(ad.linear(x, w, b).data, x.data)


def test_linear_zero_input_broadcasts_bias():
    x = ad.constant(np.zeros((4, 3)))
    w = ad.constant(np.ones((3, 2)))
    b = ad.constant(np.array([[5.0, -1.0]]))
    y = ad.linear(x, w, b)
    np.testing.assert_array_equal(y.data, np.tile([[5.0, -1.0]], (4, 1)))


def test_linear_shape_mismatch():
    with pytest.raises(ValueError):
        ad.linear(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((4, 2))))


def test_relu_values():
    x = ad.constant(np.array([[-1.0, 2.0, 0.0]]))
    np.testing.assert_array_equal(ad.relu(x).data, [[0.0, 2.0, 0.0]])


def test_concat_cols_order():
    a = ad.constant(np.ones((4, 3)))
    b = ad.constant(np.zeros((4, 5)))
    y = ad.concat_cols(a, b)
    assert y.data.shape == (4, 8)
    np.testing.assert_array_equal(y.data[:, :3], 1.0)
    np.testing.assert_array_equal(y.data[:, 3:], 0.0)


def test_layer_norm_row_statistics(rng):
    x = ad.constant(rng.normal(size=(8, 16)))
    gain = ad.constant(np.ones((1, 16)))
    bias = ad.constant(np.zeros((1, 16)))
    y = ad.layer_norm(x, gain, bias).data
    np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-6)
    np.testing.assert_allclose(y.var(axis=1), 1.0, atol=1e-6)


def test_gather_rows_identity(rng):
    x = ad.constant(rng.normal(size=(5, 3)))
    np.testing.assert_array_equal(ad.gather_rows(x, np.arange(5)).data, x.data)


def test_gather_rows_fanout_backward():
    x = ad.parameter(np.array([[1.0, 2.0]]))
    y = ad.gather_rows(x, np.array([0, 0, 0]))
    assert y.data.shape == (3, 2)
    ad.backward(ad.sum_all(y))
    np.testing.assert_array_equal(x.grad, [[3.0, 3.0]])


def test_gather_rows_out_of_range():
    x = ad.constant(np.zeros((2, 2)))
    with pytest.raises(IndexError):
        ad.gather_rows(x, np.array([2]))


def test_scatter_mean_pairs():
    table = group_by_keys(np.array([0, 0]))
    x = ad.constant(np.array([[1.0, 3.0], [3.0, 5.0]]))
    np.testing.assert_array_equal(ad.scatter_mean(x, table).data, [[2.0, 4.0]])


def test_scatter_mean_singletons_identity(rng):
    x = ad.constant(rng.normal(size=(6, 4)))
    table = group_by_keys(np.arange(6))
    np.testing.assert_array_equal(ad.scatter_mean(x, table).data, x.data)


def test_scatter_mean_conservation(rng):
    for _ in range(20):
        n = int(rng.integers(1, 64))
        x = rng.normal(size=(n, 5))
        table = rand_table(rng, n, n_keys=int(rng.integers(1, 8)))
        out = ad.scatter_mean(ad.constant(x), table).data
        counts = table.counts()[:, None]
        np.testing.assert_allclose((out * counts).sum(axis=0), x.sum(axis=0), atol=1e-9)


def test_scatter_mean_gather_idempotent(rng):
    x = ad.constant(rng.normal(size=(12, 3)))
    table = rand_table(rng, 12)
    once = ad.scatter_mean(x, table)
    spread = ad.gather_rows(once, table.group_of)
    twice = ad.scatter_mean(spread, table)
    np.testing.assert_allclose(once.data, twice.data, atol=1e-12)


def test_scatter_max_values():
    table = group_by_keys(np.array([0, 0]))
    x = ad.constant(np.array([[1.0, 5.0], [3.0, 2.0]]))
    np.testing.assert_array_equal(ad.scatter_max(x, table).data, [[3.0, 5.0]])


def test_scatter_max_matches_bruteforce(rng):
    for _ in range(20):
        n = int(rng.integers(1, 64))
        x = rng.normal(size=(n, 3))
        table = rand_table(rng, n, n_keys=int(rng.integers(1, 6)))
        got = ad.scatter_max(ad.constant(x), table).data
        ref = brute_scatter_max(x, table.group_of, table.n_groups)
        np.testing.assert_array_equal(got, ref)


def test_scatter_max_gradient_routing():
    # gradient goes only to the per-column argmax; ties pick the lowest index
    table = group_by_keys(np.array([0, 0, 0]))
    x = ad.parameter(np.array([[1.0, 7.0], [5.0, 7.0], [5.0, 2.0]]))
    y = ad.scatter_max(x, table)
    ad.backward(ad.sum_all(y))
    np.testing.assert_array_equal(x.grad, [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])


def test_scatter_max_tie_heavy_matches_bruteforce(rng):
    # values from {0, 1, 2} make most column maxima ties across many groups
    for _ in range(30):
        n = int(rng.integers(1, 120))
        table = rand_table(rng, n, n_keys=int(rng.integers(1, 40)))
        x = ad.parameter(rng.integers(0, 3, size=(n, 4)).astype(np.float64))
        g = rng.normal(size=(table.n_groups, 4))
        y = ad.scatter_max(x, table)
        np.testing.assert_array_equal(
            y.data, brute_scatter_max(x.data, table.group_of, table.n_groups)
        )
        ad.backward(ad.sum_all(ad.mul(y, ad.constant(g))))
        np.testing.assert_array_equal(
            x.grad, brute_scatter_max_routing(x.data, table.group_of, table.n_groups, g)
        )


def test_segment_softmax_matches_primitive_chain(rng):
    # the table always holds a single-member group; odd trials draw logits
    # from {0, 1, 2}, so most column maxima are ties
    for trial in range(30):
        n = int(rng.integers(2, 80))
        keys = np.concatenate([[-1], rng.integers(0, int(rng.integers(1, 30)), size=n - 1)])
        table = group_by_keys(keys)
        if trial % 2:
            data = rng.integers(0, 3, size=(n, 3)).astype(np.float64)
        else:
            data = rng.normal(scale=3.0, size=(n, 3))
        g = rng.normal(size=(n, 3))
        x, x_ref = ad.parameter(data), ad.parameter(data.copy())
        w, w_ref = ad.segment_softmax(x, table), softmax_chain(x_ref, table)
        np.testing.assert_allclose(w.data, w_ref.data, rtol=1e-14, atol=0)
        sums = ad.scatter_add_rows(w, table.group_of, table.n_groups).data
        np.testing.assert_allclose(sums, 1.0, rtol=1e-14)
        ad.backward(ad.sum_all(ad.mul(w, ad.constant(g))))
        ad.backward(ad.sum_all(ad.mul(w_ref, ad.constant(g))))
        np.testing.assert_allclose(x.grad, x_ref.grad, rtol=0, atol=1e-14 * np.abs(g).max())
        # the single-member group (row 0) has weight 1 and no gradient
        np.testing.assert_array_equal(w.data[0], 1.0)
        np.testing.assert_array_equal(x.grad[0], 0.0)


def test_scatter_add_rows_semantics():
    x = ad.constant(np.array([[1.0], [2.0], [4.0]]))
    y = ad.scatter_add_rows(x, np.array([1, 1, 0]), n_rows=3)
    np.testing.assert_array_equal(y.data, [[4.0], [3.0], [0.0]])


def test_smooth_l1_zero_at_match(rng):
    x = rng.normal(size=(3, 4))
    assert ad.smooth_l1(ad.constant(x), x).item() == 0.0


def test_smooth_l1_linear_region():
    val = ad.smooth_l1(ad.constant([[1.5]]), np.array([[0.0]]), beta=1.0)
    assert val.item() == pytest.approx(1.0)


def test_smooth_l1_gradient_quadratic_region():
    p = ad.parameter(np.array([[0.3]]))
    ad.backward(ad.smooth_l1(p, np.array([[0.0]]), beta=1.0))
    np.testing.assert_allclose(p.grad, [[0.3]])


def test_div_and_exp_values(rng):
    a = rng.uniform(1, 2, size=(3, 3))
    b = rng.uniform(1, 2, size=(3, 3))
    np.testing.assert_allclose(ad.div(ad.constant(a), ad.constant(b)).data, a / b)
    np.testing.assert_allclose(ad.exp(ad.constant(a)).data, np.exp(a))


def test_scale_rows_semantics(rng):
    x = rng.normal(size=(4, 3))
    w = rng.normal(size=(4, 1))
    np.testing.assert_allclose(ad.scale_rows(ad.constant(x), ad.constant(w)).data, x * w)


def test_forward_determinism(rng):
    x = rng.normal(size=(6, 5))
    w = rng.normal(size=(5, 4))

    def run():
        return ad.relu(ad.linear(ad.constant(x), ad.constant(w))).data

    assert np.array_equal(run(), run())


# ---------------------------------------------------------------------------
# backward


def test_backward_sum_gives_ones(rng):
    x = ad.parameter(rng.normal(size=(4, 3)))
    ad.backward(ad.sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones((4, 3)))


def test_backward_requires_scalar():
    x = ad.parameter(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ad.backward(x)


def test_backward_disconnected_leaf_zero(rng):
    x = ad.parameter(rng.normal(size=(2, 2)))
    unused = ad.parameter(rng.normal(size=(3, 3)))
    grads = ad.backward(ad.sum_all(x), leaves=[x, unused])
    np.testing.assert_array_equal(grads[unused], np.zeros((3, 3)))
    np.testing.assert_array_equal(grads[x], np.ones((2, 2)))


def test_backward_accumulates_shared_subgraph(rng):
    x = ad.parameter(rng.normal(size=(3, 3)))
    y = ad.add(x, x)
    ad.backward(ad.sum_all(y))
    np.testing.assert_array_equal(x.grad, 2.0 * np.ones((3, 3)))


def test_backward_runs_each_reachable_vjp_once(rng):
    x = ad.parameter(rng.normal(size=(3, 2)))
    a, b, c = ad.relu(x), ad.exp(x), ad.scale(x, 2.0)  # x feeds three ops
    ab = ad.mul(a, b)
    d = ad.add(ad.add(ab, c), a)  # a feeds two ops
    unreachable = ad.scale(b, 3.0)  # built from the graph, not on the loss's path
    loss = ad.sum_all(d)
    calls = Counter()

    def counted(name, vjp):
        def wrapper(g):
            calls[name] += 1
            return vjp(g)

        return wrapper

    nodes = {"a": a, "b": b, "c": c, "ab": ab, "abc": d._parents[0], "d": d,
             "loss": loss, "unreachable": unreachable}
    for name, node in nodes.items():
        node._vjp = counted(name, node._vjp)
    ad.backward(loss)
    assert calls == Counter({name: 1 for name in nodes if name != "unreachable"})
    mask = (x.data > 0).astype(np.float64)
    np.testing.assert_allclose(x.grad, mask * np.exp(x.data) * (1.0 + x.data) + 2.0 + mask,
                               rtol=1e-14)


def test_backward_composite_finite_differences(rng):
    x = ad.parameter(rng.normal(size=(3, 4)))
    w = ad.parameter(rng.normal(size=(4, 2)))
    b = ad.parameter(rng.normal(size=(1, 2)))
    gain = ad.parameter(np.ones((1, 2)))
    bias = ad.parameter(np.zeros((1, 2)))
    target = rng.normal(size=(3, 2))

    def make_loss():
        h = ad.layer_norm(ad.linear(x, w, b), gain, bias)
        return ad.smooth_l1(h, target)

    check_grads(make_loss, [x, w, b, gain, bias])


# ---------------------------------------------------------------------------
# per-primitive finite-difference sweep


def _primitive_cases(rng, n, c):
    """(name, make_loss, tensors) triples covering every differentiable primitive.

    Each op's output contracts to a scalar through a fixed random linear
    probe: the vjp still sees a generic upstream gradient, but the
    scalarization itself is smooth, so the only kinks in play are the op's
    own (and those get inputs sampled away from them).
    """
    table = rand_table(rng, n, n_keys=3)
    idx = rng.integers(0, n, size=n + 2)
    add_idx = rng.integers(0, n, size=n)
    w = ad.parameter(rng.normal(size=(c, c)) * 0.5)
    b = ad.parameter(rng.normal(size=(1, c)))
    gain = ad.parameter(rng.uniform(0.5, 1.5, size=(1, c)))
    bias = ad.parameter(rng.normal(size=(1, c)))

    def fresh(kinky=False):
        data = spread_values(rng, (n, c)) if kinky else rng.normal(size=(n, c))
        return ad.parameter(data)

    def probe(shape):
        r = ad.constant(rng.normal(size=shape))
        return lambda y: ad.sum_all(ad.mul(y, r))

    x_lin, x_relu, x_ln = fresh(), fresh(True), fresh()
    x_cat_a, x_cat_b = fresh(), fresh()
    x_slice, x_gather, x_mean = fresh(), fresh(), fresh()
    x_smean, x_smax, x_sadd = fresh(), fresh(True), fresh()
    x_add_a, x_add_b = fresh(), fresh()
    x_sub_a, x_sub_b = fresh(), fresh()
    x_mul_a, x_mul_b = fresh(), fresh()
    x_div_a = fresh()
    x_div_b = ad.parameter(rng.uniform(0.5, 2.0, size=(n, c)))
    x_exp = ad.parameter(rng.uniform(-1.0, 1.0, size=(n, c)))
    x_scale, x_srows = fresh(), fresh()
    w_rows = ad.parameter(rng.normal(size=(n, 1)))
    x_sl1 = fresh(True)  # spread grid keeps |x| clear of the 0.77 kink
    x_sum = fresh()
    x_ssm = fresh()

    lo, hi = sorted(rng.choice(c + 1, size=2, replace=False).tolist()) if c > 1 else (0, 1)
    p_nc = probe((n, c))
    p_gather = probe((n + 2, c))
    p_groups = probe((table.n_groups, c))
    p_cat = probe((n, 2 * c))
    p_slice = probe((n, hi - lo))
    p_row = probe((1, c))

    return [
        ("linear", lambda: p_nc(ad.linear(x_lin, w, b)), [x_lin, w, b]),
        ("relu", lambda: p_nc(ad.relu(x_relu)), [x_relu]),
        ("layer_norm", lambda: p_nc(ad.layer_norm(x_ln, gain, bias)), [x_ln, gain, bias]),
        ("concat_cols", lambda: p_cat(ad.concat_cols(x_cat_a, x_cat_b)), [x_cat_a, x_cat_b]),
        ("slice_cols", lambda: p_slice(ad.slice_cols(x_slice, lo, hi)), [x_slice]),
        ("gather_rows", lambda: p_gather(ad.gather_rows(x_gather, idx)), [x_gather]),
        ("scatter_mean", lambda: p_groups(ad.scatter_mean(x_smean, table)), [x_smean]),
        ("scatter_max", lambda: p_groups(ad.scatter_max(x_smax, table)), [x_smax]),
        ("scatter_add_rows", lambda: p_nc(ad.scatter_add_rows(x_sadd, add_idx, n)), [x_sadd]),
        ("mean_rows", lambda: p_row(ad.mean_rows(x_mean)), [x_mean]),
        ("add", lambda: p_nc(ad.add(x_add_a, x_add_b)), [x_add_a, x_add_b]),
        ("sub", lambda: p_nc(ad.sub(x_sub_a, x_sub_b)), [x_sub_a, x_sub_b]),
        ("mul", lambda: p_nc(ad.mul(x_mul_a, x_mul_b)), [x_mul_a, x_mul_b]),
        ("div", lambda: p_nc(ad.div(x_div_a, x_div_b)), [x_div_a, x_div_b]),
        ("exp", lambda: p_nc(ad.exp(x_exp)), [x_exp]),
        ("scale", lambda: p_nc(ad.scale(x_scale, -1.7)), [x_scale]),
        ("scale_rows", lambda: p_nc(ad.scale_rows(x_srows, w_rows)), [x_srows, w_rows]),
        ("smooth_l1", lambda: ad.smooth_l1(x_sl1, np.zeros((n, c)), beta=0.77), [x_sl1]),
        ("sum_all", lambda: ad.scale(ad.sum_all(x_sum), 1.0 / x_sum.data.size), [x_sum]),
        ("segment_softmax", lambda: p_nc(ad.segment_softmax(x_ssm, table)), [x_ssm]),
    ]


def test_every_primitive_matches_finite_differences():
    rng = np.random.default_rng(99)
    for trial in range(5):
        n, c = int(rng.integers(2, 9)), int(rng.integers(2, 6))
        for name, make_loss, tensors in _primitive_cases(rng, n, c):
            try:
                check_grads(make_loss, tensors)
            except AssertionError as exc:
                raise AssertionError(f"{name} gradient mismatch (trial {trial})") from exc


# ---------------------------------------------------------------------------
# adam


def test_adam_zero_gradient_no_move():
    p = ad.parameter(np.array([[1.0, -2.0]]))
    params = {"p": p}
    state = adam_init(params)
    adam_step(params, {"p": np.zeros((1, 2))}, state, lr=0.1)
    np.testing.assert_array_equal(p.data, [[1.0, -2.0]])


def test_adam_first_step_signed_unit():
    p = ad.parameter(np.array([[1.0, 1.0]]))
    params = {"p": p}
    state = adam_init(params)
    g = np.array([[0.3, -4.0]])
    adam_step(params, {"p": g}, state, lr=0.05)
    step = p.data - np.array([[1.0, 1.0]])
    # bias-corrected first step is -lr * sign(g), up to eps
    np.testing.assert_allclose(step, -0.05 * np.sign(g), rtol=1e-6)
    assert np.all(np.abs(step) <= 0.05 + 1e-12)


def test_adam_quadratic_convergence_matches_scalar_recurrence():
    # independent recurrence in plain python floats
    m = v = 0.0
    w_ref = 1.0
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    for t in range(1, 101):
        g = 2.0 * w_ref
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w_ref -= lr * (m / (1 - b1**t)) / ((v / (1 - b2**t)) ** 0.5 + eps)

    p = ad.parameter(np.array([[1.0]]))
    params = {"p": p}
    state = adam_init(params)
    for _ in range(100):
        p.zero_grad()
        loss = ad.mul(p, p)
        ad.backward(ad.sum_all(loss))
        adam_step(params, {"p": p.grad}, state, lr=lr)
    assert p.data[0, 0] == pytest.approx(w_ref, abs=1e-12)
    assert abs(p.data[0, 0]) < 0.1


def test_adam_shape_mismatch():
    p = ad.parameter(np.zeros((2, 2)))
    params = {"p": p}
    state = adam_init(params)
    with pytest.raises(ValueError):
        adam_step(params, {"p": np.zeros((1, 2))}, state, lr=0.1)


def test_lr_schedule():
    lrs = [lr_at_epoch(e, 1e-3) for e in (0, 10, 20, 30, 35)]
    np.testing.assert_allclose(lrs, [1e-3, 1e-4, 1e-5, 1e-6, 1e-6])
