import weakref
from collections import Counter

import numpy as np
import pytest

from conftest import (
    brute_scatter_max,
    brute_scatter_max_routing,
    brute_scatter_mean,
    check_grads,
    conv_chain,
    norm_act_ref,
    softmax_chain,
    spread_values,
)

from pointcast import autodiff as ad
from pointcast.indexing import CONV_OFFSETS, GroupTable, group_by_keys, kernel_map
from pointcast.optim import adam_init, adam_step, lr_at_epoch


def rand_table(rng, n, n_keys=4):
    return group_by_keys(rng.integers(0, n_keys, size=n))


def rand_neighbor_table(rng, n, n_extra):
    """Pairs that name every one of n rows once, plus ``n_extra`` repeats, shuffled."""
    nbrs = rng.permutation(np.concatenate([np.arange(n), rng.integers(0, n, size=n_extra)]))
    return GroupTable.from_group_of(nbrs, n)


def rand_voxels(rng, n):
    """n distinct voxel coordinates around the origin, filling about half of a square."""
    side = int(np.ceil(np.sqrt(2 * n)))
    cells = rng.choice(side * side, size=n, replace=False)
    return np.stack(np.divmod(cells, side), axis=1) - side // 2


def grad_of(t):
    return t.grad if t.grad is not None else np.zeros_like(t.data)


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


def norm_act_inputs(rng, case):
    """(x, gain, bias) for one oracle case of ``norm_act``."""
    x = rng.normal(size=(7, 5))
    gain = rng.uniform(0.5, 1.5, size=(1, 5))
    bias = rng.normal(size=(1, 5))
    if case == "constant-row":
        x[2] = 0.75  # zero variance: the row normalizes to 0 and leaves the bias
    elif case == "single-column":
        x, gain, bias = x[:, :1], gain[:, :1], bias[:, :1]
    elif case == "zero-pre":
        # exact-zero pre-activations: a whole column, and a constant row's column
        gain[0, 1] = bias[0, 1] = 0.0
        x[3] = -2.0
        bias[0, 4] = 0.0
    elif case == "nan-row":
        x[4, 2] = np.nan
    elif case == "steep-c2":
        # at C = 2 a row this close to constant makes the norm steep: central
        # differences at h = 1e-4 are 0.18% off on it, so no FD case covers it
        x, gain, bias = x[:, :2], gain[:, :2], bias[:, :2]
        x[5] = [0.25, 0.25 + 3.3e-3]
    return x, gain, bias


@pytest.mark.parametrize("act", [True, False], ids=["act", "no-act"])
@pytest.mark.parametrize("case", ["random", "constant-row", "single-column", "zero-pre",
                                  "nan-row", "steep-c2"])
def test_norm_act_matches_layer_norm_relu_reference(rng, case, act):
    x, gain, bias = norm_act_inputs(rng, case)
    g = rng.normal(size=x.shape)
    want_y, want_vjp = norm_act_ref(x, gain, bias, act)
    xt, gt, bt = (ad.parameter(a.copy()) for a in (x, gain, bias))
    y = ad.norm_act(xt, gt, bt, act)
    with ad.no_grad():
        # unrecorded, the output overwrites the normalized copy: same bytes
        assert ad.norm_act(xt, gt, bt, act).data.tobytes() == y.data.tobytes()
    ad.backward(ad.sum_all(ad.mul(y, ad.constant(g))))
    for name, got, want in zip(("y", "gx", "ggain", "gbias"),
                               (y.data, xt.grad, gt.grad, bt.grad), (want_y, *want_vjp(g))):
        # NaN positions must match too (assert_allclose's equal_nan)
        np.testing.assert_allclose(got, want, rtol=1e-13,
                                   atol=1e-13 * np.abs(np.nan_to_num(want)).max(),
                                   err_msg=f"{case}, act={act}: {name}")
    if case == "nan-row":
        assert np.isnan(y.data[4]).all() and np.isnan(xt.grad[4]).all()
        assert np.isfinite(np.delete(y.data, 4, axis=0)).all()


@pytest.mark.parametrize("act", [True, False], ids=["act", "no-act"])
def test_norm_act_leaves_a_shared_upstream_gradient_alone(rng, act):
    # add hands the same gradient array to both of its parents
    x, gain, bias = norm_act_inputs(rng, "random")
    x2 = rng.normal(size=x.shape)
    g = rng.normal(size=x.shape)
    xt, x2t = ad.parameter(x.copy()), ad.parameter(x2.copy())
    gt, bt = ad.constant(gain), ad.constant(bias)
    y = ad.add(ad.norm_act(xt, gt, bt, act), ad.norm_act(x2t, gt, bt, act))
    ad.backward(ad.sum_all(ad.mul(y, ad.constant(g))))
    for got, xs in ((xt.grad, x), (x2t.grad, x2)):
        want = norm_act_ref(xs, gain, bias, act)[1](g)[0]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


def test_layer_norm_is_norm_act_without_relu(rng):
    x, gain, bias = (ad.constant(a) for a in norm_act_inputs(rng, "random"))
    assert ad.layer_norm(x, gain, bias).data.tobytes() == \
        ad.norm_act(x, gain, bias, act=False).data.tobytes()


def _dense_inputs(rng, blocks):
    """(x, w, b, gain, bias) data for ``dense``: one (9, 4) input, or four column blocks."""
    table = rand_neighbor_table(rng, 5, n_extra=4)
    if blocks:
        # a Tensor, a gathered Tensor, a constant array and a constant Tensor
        x = [rng.normal(size=(9, 2)), (rng.normal(size=(5, 3)), table), rng.normal(size=(9, 2)),
             ad.constant(rng.normal(size=(9, 1)))]
    else:
        x = rng.normal(size=(9, 4))
    c_in = 8 if blocks else 4
    return x, [rng.normal(size=(c_in, 6)), rng.normal(size=(1, 6)),
               rng.uniform(0.5, 1.5, size=(1, 6)), rng.normal(size=(1, 6))]


def _dense_tensors(x, params):
    """Fresh parameters for the Tensor blocks of ``x`` and for ``params``; constants stay."""
    def fresh(blk):
        if isinstance(blk, tuple):
            return (ad.parameter(blk[0].copy()), blk[1])
        if isinstance(blk, np.ndarray):
            return ad.parameter(blk.copy())
        return blk

    if isinstance(x, list):
        x = [fresh(x[0]), fresh(x[1]), x[2], x[3]]
    else:
        x = fresh(x)
    return x, [ad.parameter(v.copy()) for v in params]


def _grad_leaves(x, params):
    blocks = x if isinstance(x, list) else [x]
    tensors = [b[0] if isinstance(b, tuple) else b for b in blocks]
    return [t for t in tensors if isinstance(t, ad.Tensor) and t.requires_grad] + params


@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
@pytest.mark.parametrize("blocks", [False, True], ids=["tensor", "blocks"])
@pytest.mark.parametrize("act", [True, False], ids=["act", "no-act"])
def test_dense_is_norm_act_of_linear_bit_for_bit(rng, act, blocks, bias):
    x_data, param_data = _dense_inputs(rng, blocks)
    g = rng.normal(size=(9, 6))
    outs, grads = [], []
    for fused in (True, False):
        x, (w, b, gain, beta) = _dense_tensors(x_data, param_data)
        b = b if bias else None
        if fused:
            y = ad.dense(x, w, b, gain, beta, act)
        else:
            y = ad.norm_act(ad.linear(x, w, b), gain, beta, act)
        with ad.no_grad():
            # unrecorded, the output overwrites the normalized pre-activation: same bytes
            assert ad.dense(x, w, b, gain, beta, act).data.tobytes() == y.data.tobytes()
        ad.backward(ad.sum_all(ad.mul(y, ad.constant(g))))
        outs.append(y.data.tobytes())
        grads.append([t.grad.tobytes() for t in _grad_leaves(x, [w, gain, beta])
                      + ([b] if bias else [])])
    assert outs[0] == outs[1]
    assert len(grads[0]) == (6 if blocks else 5) - (not bias)
    assert grads[0] == grads[1]


def test_dense_goes_through_op_once_per_call(rng, monkeypatch):
    x_data, param_data = _dense_inputs(rng, blocks=True)
    x, (w, b, gain, bias) = _dense_tensors(x_data, param_data)
    built, op = [], ad._op
    monkeypatch.setattr(ad, "_op", lambda *args: built.append(op(*args)) or built[-1])
    y = ad.dense(x, w, b, gain, bias, act=True)
    # the constant blocks are not parents; the VJP returns one gradient per parent
    assert built == [y] and y._parents == (x[0], x[1][0], w, b, gain, bias)
    assert [v.shape for v in y._vjp(np.ones((9, 6)))] == [
        (9, 2), (5, 3), (8, 6), (1, 6), (1, 6), (1, 6)]
    with ad.no_grad():
        y = ad.dense(x, w, b, gain, bias, act=True)
    assert len(built) == 2 and built[1] is y and y._parents == ()


def test_dense_graph_keeps_two_arrays_per_layer(rng):
    # the linear node's output is the third (rows, D) array a separate
    # linear and norm_act keep; dense normalizes it in place into xhat
    import tracemalloc

    x, w = ad.constant(rng.normal(size=(4000, 8))), ad.parameter(rng.normal(size=(8, 32)))
    b, gain, bias = (ad.parameter(rng.normal(size=(1, 32))) for _ in range(3))
    layer_bytes = 4000 * 32 * 8
    held = {}
    for name, build in (("dense", lambda: ad.dense(x, w, b, gain, bias, act=True)),
                        ("chain", lambda: ad.norm_act(ad.linear(x, w, b), gain, bias, True))):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = build()
            held[name] = (tracemalloc.get_traced_memory()[0] - before) / layer_bytes
        finally:
            tracemalloc.stop()
        del y
    assert 2.0 <= held["dense"] < 2.1 and 3.0 <= held["chain"] < 3.1, held


def test_dense_shape_mismatch(rng):
    x, w, b = ad.parameter(rng.normal(size=(4, 3))), ad.parameter(np.zeros((3, 2))), None
    with pytest.raises(ValueError, match="gain/bias"):
        ad.dense(x, w, b, ad.parameter(np.ones((1, 3))), ad.parameter(np.zeros((1, 3))), True)
    with pytest.raises(ValueError):
        ad.dense(x, ad.parameter(np.zeros((2, 2))), b, ad.parameter(np.ones((1, 2))),
                 ad.parameter(np.zeros((1, 2))), True)


def test_gather_rows_identity(rng):
    x = ad.constant(rng.normal(size=(5, 3)))
    table = GroupTable.from_group_of(np.arange(5), 5)
    np.testing.assert_array_equal(ad.gather_rows(x, table).data, x.data)


def test_gather_rows_fanout_backward():
    x = ad.parameter(np.array([[1.0, 2.0]]))
    y = ad.gather_rows(x, GroupTable.from_group_of(np.array([0, 0, 0]), 1))
    assert y.data.shape == (3, 2)
    ad.backward(ad.sum_all(y))
    np.testing.assert_array_equal(x.grad, [[3.0, 3.0]])


def test_gather_rows_out_of_range():
    # a table with a group past x's last row does not fit x
    x = ad.constant(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ad.gather_rows(x, GroupTable.from_group_of(np.array([0, 1, 2]), 3))


def test_gather_and_scatter_add_rows_match_bruteforce(rng):
    for _ in range(30):
        n = int(rng.integers(1, 40))
        table = rand_neighbor_table(rng, n, n_extra=int(rng.integers(0, 3 * n)))
        m = len(table.group_of)
        x, z = ad.parameter(rng.normal(size=(n, 3))), ad.parameter(rng.normal(size=(m, 3)))
        gy, gs = rng.normal(size=(m, 3)), rng.normal(size=(n, 3))
        y, s = ad.gather_rows(x, table), ad.scatter_add_rows(z, table)
        ad.backward(ad.sum_all(ad.mul(y, ad.constant(gy))))
        ad.backward(ad.sum_all(ad.mul(s, ad.constant(gs))))
        ref_y, ref_gx = np.zeros((m, 3)), np.zeros((n, 3))
        ref_s, ref_gz = np.zeros((n, 3)), np.zeros((m, 3))
        for i, grp in enumerate(table.group_of):
            ref_y[i] = x.data[grp]
            ref_gx[grp] += gy[i]
            ref_s[grp] += z.data[i]
            ref_gz[i] = gs[grp]
        np.testing.assert_array_equal(y.data, ref_y)
        np.testing.assert_allclose(x.grad, ref_gx, rtol=1e-13, atol=1e-13 * np.abs(gy).max())
        np.testing.assert_allclose(s.data, ref_s, rtol=1e-13, atol=1e-13 * np.abs(z.data).max())
        np.testing.assert_array_equal(z.grad, ref_gz)


@pytest.mark.parametrize("coords", [
    [[3, -2]],                                      # a single voxel: the center tap alone
    [[-7, -7], [0, 0], [5, -3], [-2, 4]],           # isolated voxels: no off-center pairs
    [[i, j] for i in (-1, 0, 1) for j in (-1, 0, 1)],  # a 3x3 block: all nine taps present
    [[-1, -1], [-1, 0], [0, -1], [0, 0], [-2, 1], [1, -2], [-3, -3]],
    "random",
])
def test_submanifold_conv_matches_tap_chain(rng, coords):
    coord_sets = ([rand_voxels(rng, int(rng.integers(1, 40))) for _ in range(30)]
                  if coords == "random" else [np.asarray(coords, dtype=np.int64)])
    for coords in coord_sets:
        pairs = kernel_map(coords)
        c, d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        data = [rng.normal(size=(len(coords), c)),
                *(rng.normal(size=(c, d)) for _ in CONV_OFFSETS), rng.normal(size=(1, d))]
        tensors = [ad.parameter(a) for a in data]
        tensors_ref = [ad.parameter(a.copy()) for a in data]
        y = ad.submanifold_conv(tensors[0], pairs, tensors[1:-1], tensors[-1])
        y_ref = conv_chain(tensors_ref[0], pairs, tensors_ref[1:-1], tensors_ref[-1])
        np.testing.assert_allclose(y.data, y_ref.data, rtol=1e-13,
                                   atol=1e-13 * np.abs(y_ref.data).max())
        g = ad.constant(rng.normal(size=y.data.shape))
        ad.backward(ad.sum_all(ad.mul(y, g)))
        ad.backward(ad.sum_all(ad.mul(y_ref, g)))
        for t, t_ref in zip(tensors, tensors_ref):
            ref = grad_of(t_ref)
            np.testing.assert_allclose(grad_of(t), ref, rtol=1e-13,
                                       atol=1e-13 * max(np.abs(ref).max(), 1.0))


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
    spread = ad.gather_rows(once, table)
    twice = ad.scatter_mean(spread, table)
    np.testing.assert_allclose(once.data, twice.data, atol=1e-12)


def test_scatter_mean_matches_bruteforce(rng):
    # the CSR sum adds members in another order than a per-group mean: last bits only
    for _ in range(30):
        n = int(rng.integers(1, 200))
        x = rng.normal(size=(n, 4))
        table = rand_table(rng, n, n_keys=int(rng.integers(1, 40)))
        got = ad.scatter_mean(ad.constant(x), table).data
        ref = brute_scatter_mean(x, table.group_of, table.n_groups)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13 * np.abs(x).max())


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


def test_scatter_max_no_grad_then_backward_routes_ties_and_nans():
    # groups {0, 2, 4} and {1, 3}; column 0 ties, column 1 has a NaN in group 0
    table = group_by_keys(np.array([7, 3, 7, 3, 7]))
    x = ad.parameter(np.array([[1.0, 3.0], [2.0, 0.0], [5.0, np.nan], [2.0, 4.0], [5.0, 1.0]]))
    with ad.no_grad():
        y0 = ad.scatter_max(x, table)
    assert y0._parents == () and y0._vjp is None
    np.testing.assert_array_equal(y0.data, [[5.0, np.nan], [2.0, 4.0]])
    y = ad.scatter_max(x, table)
    assert y.data.tobytes() == y0.data.tobytes()
    ad.backward(ad.sum_all(ad.mul(y, ad.constant([[10.0, 20.0], [30.0, 40.0]]))))
    # ties go to the lowest member (rows 2 and 1); a NaN max goes to the group's first row
    np.testing.assert_array_equal(
        x.grad, [[0.0, 20.0], [30.0, 0.0], [10.0, 0.0], [0.0, 40.0], [0.0, 0.0]]
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
        sums = ad.scatter_add_rows(w, table).data
        np.testing.assert_allclose(sums, 1.0, rtol=1e-14)
        ad.backward(ad.sum_all(ad.mul(w, ad.constant(g))))
        ad.backward(ad.sum_all(ad.mul(w_ref, ad.constant(g))))
        np.testing.assert_allclose(x.grad, x_ref.grad, rtol=0, atol=1e-14 * np.abs(g).max())
        # the single-member group (row 0) has weight 1 and no gradient
        np.testing.assert_array_equal(w.data[0], 1.0)
        np.testing.assert_array_equal(x.grad[0], 0.0)


def test_block_linear_matches_gather_concat_linear(rng):
    # plain, gathered and constant blocks, a constant Tensor, and one tensor in
    # two blocks (x under two tables, a twice), against the concatenated copies
    for trial in range(20):
        n, extra = int(rng.integers(1, 30)), int(rng.integers(0, 60))
        t1, t2 = (rand_neighbor_table(rng, n, n_extra=extra) for _ in range(2))
        p, d = n + extra, int(rng.integers(1, 7))
        ca, cx, cr, cc = (int(rng.integers(1, 6)) for _ in range(4))
        rel, const = rng.normal(size=(p, cr)), rng.normal(size=(p, cc))
        g = rng.normal(size=(p, d))
        data = [rng.normal(size=(p, ca)), rng.normal(size=(n, cx)),
                rng.normal(size=(ca + 2 * cx + cr + cc + ca, d)), rng.normal(size=(1, d))]
        a, x, w, b = (ad.parameter(v) for v in data)
        a_ref, x_ref, w_ref, b_ref = (ad.parameter(v.copy()) for v in data)
        if trial % 2:
            b, b_ref = None, None
        y = ad.linear([a, (x, t1), rel, (x, t2), ad.constant(const), a], w, b)
        cat = ad.concat_cols(a_ref, ad.gather_rows(x_ref, t1), ad.constant(rel),
                             ad.gather_rows(x_ref, t2), ad.constant(const), a_ref)
        y_ref = ad.linear(cat, w_ref, b_ref)
        np.testing.assert_allclose(y.data, y_ref.data, rtol=1e-13,
                                   atol=1e-13 * np.abs(y_ref.data).max())
        ad.backward(ad.sum_all(ad.mul(y, ad.constant(g))))
        ad.backward(ad.sum_all(ad.mul(y_ref, ad.constant(g))))
        pairs = [(a, a_ref), (x, x_ref), (w, w_ref)] + ([(b, b_ref)] if b is not None else [])
        for t, t_ref in pairs:
            np.testing.assert_allclose(t.grad, t_ref.grad, rtol=1e-13,
                                       atol=1e-13 * np.abs(t_ref.grad).max())


def test_block_linear_one_tensor_is_plain_linear(rng):
    x, w, b = (ad.parameter(rng.normal(size=s)) for s in ((6, 4), (4, 3), (1, 3)))
    y1, y2 = ad.linear(x, w, b), ad.linear([x], w, b)
    assert y1.data.tobytes() == y2.data.tobytes()
    g = ad.constant(rng.normal(size=(6, 3)))
    grads = [ad.backward(ad.sum_all(ad.mul(y, g)), leaves=[x, w, b]) for y in (y1, y2)]
    for t in (x, w, b):
        # the second backward added the same gradient onto the first
        np.testing.assert_array_equal(grads[1][t], 2.0 * grads[0][t])


def test_block_linear_constant_blocks_get_no_gradient_work(rng):
    # only tensors that need a gradient are parents; the VJP returns one per parent
    x, w = ad.parameter(rng.normal(size=(5, 2))), ad.parameter(rng.normal(size=(6, 3)))
    y = ad.linear([ad.constant(rng.normal(size=(5, 2))), x, rng.normal(size=(5, 2))], w)
    assert y._parents == (x, w)
    assert [v.shape for v in y._vjp(np.ones((5, 3)))] == [(5, 2), (6, 3)]


def test_block_linear_gathered_rows_do_not_depend_on_other_groups(rng):
    # a lone group goes through gemm like many do, so adding groups (another
    # instance in the scene) leaves the first group's rows and gradient
    # bit-identical
    w = ad.constant(rng.normal(size=(24, 24)))
    o, g = rng.normal(size=(3, 24)), rng.normal(size=(4, 24))
    seen = []
    for k in (1, 2, 3):
        table = GroupTable.from_group_of(np.repeat(np.arange(k), 4), k)
        x = ad.parameter(o[:k])
        y = ad.linear([(x, table)], w)
        probe = np.zeros(y.shape)
        probe[:4] = g
        ad.backward(ad.sum_all(ad.mul(y, ad.constant(probe))))
        seen.append((y.data[:4].tobytes(), x.grad[0].tobytes()))
    assert seen[0] == seen[1] == seen[2]


def test_block_linear_shape_mismatch(rng):
    table = rand_neighbor_table(rng, 4, n_extra=3)
    x, b = ad.parameter(rng.normal(size=(4, 3))), ad.parameter(np.zeros((1, 2)))
    with pytest.raises(ValueError):  # rel has 7 rows, the table 7 pairs, but w 3 rows
        ad.linear([(x, table), np.zeros((7, 2))], ad.parameter(np.zeros((3, 2))), b)
    with pytest.raises(ValueError):  # 6 rows of rel against 7 pairs
        ad.linear([(x, table), np.zeros((6, 2))], ad.parameter(np.zeros((5, 2))), b)
    with pytest.raises(ValueError):  # the table's 4 groups against 3 rows
        ad.linear([(ad.parameter(np.zeros((3, 3))), table)], ad.parameter(np.zeros((3, 2))), b)
    with pytest.raises(ValueError):  # bias width
        ad.linear([x], ad.parameter(np.zeros((3, 2))), ad.parameter(np.zeros((1, 3))))


def test_scatter_add_rows_semantics():
    x = ad.constant(np.array([[1.0], [2.0], [4.0]]))
    y = ad.scatter_add_rows(x, GroupTable.from_group_of(np.array([1, 1, 0]), 2))
    np.testing.assert_array_equal(y.data, [[4.0], [3.0]])


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


def test_backward_refuses_loss_without_graph(rng):
    x = ad.parameter(rng.normal(size=(2, 2)))
    with ad.no_grad():
        loss = ad.sum_all(x)
    with pytest.raises(ValueError, match="no graph"):
        ad.backward(loss)
    with pytest.raises(ValueError, match="no graph"):
        ad.backward(ad.constant([[1.0]]))
    assert x.grad is None


def test_no_grad_restores_after_nesting_and_exceptions():
    assert ad._grad_enabled
    with ad.no_grad():
        with ad.no_grad():
            assert not ad._grad_enabled
        assert not ad._grad_enabled
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("inside")
        assert not ad._grad_enabled
    assert ad._grad_enabled
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("inside")
    assert ad._grad_enabled


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


def test_backward_frees_each_node_once_its_vjp_has_run(rng):
    x, w = ad.parameter(rng.normal(size=(4, 3))), ad.parameter(rng.normal(size=(3, 3)))
    table = GroupTable.from_group_of(np.array([0, 0, 1, 1]), 2)
    h = ad.relu(ad.linear([x, (ad.scatter_max(x, table), table)], ad.parameter(
        rng.normal(size=(6, 3)))))
    loss = ad.sum_all(ad.linear(h, w))
    interior, stack = [], [loss]
    while stack:
        node = stack.pop()
        if node._vjp is not None:
            interior.append(node)
            stack.extend(node._parents)
    assert len(interior) == 5
    h_data = weakref.ref(h.data)
    ad.backward(loss)
    grad = x.grad.copy()
    for node in interior:
        # no parent links and no closure left; the value stays readable
        assert node._parents == () and node._vjp is ad._freed_vjp
        assert node.data is not None
    assert h_data() is not None  # h is still referenced here
    # a second sweep through a spent node raises instead of treating it as a leaf
    with pytest.raises(RuntimeError, match="already swept"):
        ad.backward(loss)
    with pytest.raises(RuntimeError, match="already swept"):
        ad.backward(ad.sum_all(h))
    np.testing.assert_array_equal(x.grad, grad)
    del h, interior, node, stack
    assert h_data() is None  # loss no longer holds the graph
    assert loss.item() == loss.data[0, 0]


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


def bias_clear_of_relu_kink(x, gain):
    """A (1, C) bias that puts every pre-activation of ``norm_act`` half a gap from 0.

    Per column, the bias moves zero to the middle of the widest gap between
    the sorted values of ``xhat * gain``, so both signs stay in play. Two gaps
    of width 0.25 just past the smallest and the largest value count too, so
    a column whose values (nearly) coincide still gets a real gap: at C = 2
    every row normalizes to about (-1, 1), and a column can hold one sign.
    """
    xc = x - x.mean(axis=1, keepdims=True)
    v = np.sort(xc / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + 1e-8) * gain, axis=0)
    v = np.vstack([v[:1] - 0.25, v, v[-1:] + 0.25])
    k, cols = np.diff(v, axis=0).argmax(axis=0), np.arange(v.shape[1])
    return -(v[k, cols] + v[k + 1, cols])[None] / 2


def norm_act_fd_inputs(rng, n, c, gain):
    """Inputs of the two ``norm_act`` FD cases: ``x``, ``x_act`` and a bias for ``x_act``.

    Entries are pairwise at least 0.05 apart, so every row's spread is far
    above the FD step: a nearly constant row makes the norm too steep for
    central differences at h = 1e-4 (see the "steep-c2" oracle case).
    """
    x, x_act = (spread_values(rng, (n, c)) for _ in range(2))
    return x, x_act, bias_clear_of_relu_kink(x_act, gain)


def _primitive_cases(rng, n, c):
    """(name, make_loss, tensors) triples covering every differentiable primitive.

    Each op's output contracts to a scalar through a fixed random linear
    probe: the vjp still sees a generic upstream gradient, but the
    scalarization itself is smooth, so the only kinks in play are the op's
    own (and those get inputs sampled away from them).
    """
    table = rand_table(rng, n, n_keys=3)
    gather_table = rand_neighbor_table(rng, n, n_extra=2)
    mean_idx = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
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

    # the third draw is unused; it keeps every later draw, and criterion 1's stream, in place
    x_lin, x_relu, _ = fresh(), fresh(True), fresh()
    # a child generator does not advance rng, so the norm cases' inputs leave
    # every other case's inputs unchanged; norm_act's cases come last for the
    # same reason. Their rows are spread: a nearly constant row makes the norm
    # too steep for central differences
    child = rng.spawn(1)[0]
    x_na, x_na_act, bias_act = (
        ad.parameter(v) for v in norm_act_fd_inputs(child, n, c, gain.data))
    x_ln = ad.parameter(spread_values(child, (n, c)))
    # dense draws from the same child, after the norm cases. An orthogonal
    # weight maps its input onto spread pre-activation rows, and its bias
    # keeps them clear of the relu kink
    w_dense = ad.parameter(np.linalg.qr(child.normal(size=(c, c)))[0])
    pre_dense = spread_values(child, (n, c))
    x_dense = ad.parameter((pre_dense - b.data) @ w_dense.data.T)
    bias_dense = ad.parameter(bias_clear_of_relu_kink(pre_dense, gain.data))
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
    x_pair = fresh()
    pair_table = rand_neighbor_table(rng, n, n_extra=3)
    rel = rng.normal(size=(n + 3, 2))
    w_pair = ad.parameter(rng.normal(size=(c + 2, c)) * 0.5)
    x_conv = fresh()
    conv_map = kernel_map(rand_voxels(rng, n))
    conv_taps = [ad.parameter(rng.normal(size=(c, c)) * 0.5) for _ in CONV_OFFSETS]

    lo, hi = sorted(rng.choice(c + 1, size=2, replace=False).tolist()) if c > 1 else (0, 1)
    p_nc = probe((n, c))
    p_gather = probe((n + 2, c))
    p_groups = probe((table.n_groups, c))
    p_cat = probe((n, 2 * c))
    p_slice = probe((n, hi - lo))
    p_row = probe((1, c))
    p_pairs = probe((n + 3, c))

    return [
        ("linear", lambda: p_nc(ad.linear(x_lin, w, b)), [x_lin, w, b]),
        ("relu", lambda: p_nc(ad.relu(x_relu)), [x_relu]),
        ("layer_norm", lambda: p_nc(ad.layer_norm(x_ln, gain, bias)), [x_ln, gain, bias]),
        ("concat_cols", lambda: p_cat(ad.concat_cols(x_cat_a, x_cat_b)), [x_cat_a, x_cat_b]),
        ("slice_cols", lambda: p_slice(ad.slice_cols(x_slice, lo, hi)), [x_slice]),
        ("gather_rows", lambda: p_gather(ad.gather_rows(x_gather, gather_table)), [x_gather]),
        ("scatter_mean", lambda: p_groups(ad.scatter_mean(x_smean, table)), [x_smean]),
        ("scatter_max", lambda: p_groups(ad.scatter_max(x_smax, table)), [x_smax]),
        ("scatter_add_rows", lambda: p_groups(ad.scatter_add_rows(x_sadd, table)), [x_sadd]),
        ("mean_rows", lambda: p_row(ad.mean_rows(x_mean, mean_idx)), [x_mean]),
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
        ("linear_blocks", lambda: p_pairs(ad.linear([(x_pair, pair_table), rel], w_pair, b)),
         [x_pair, w_pair, b]),
        ("submanifold_conv", lambda: p_nc(ad.submanifold_conv(x_conv, conv_map, conv_taps, b)),
         [x_conv, *conv_taps, b]),
        ("norm_act", lambda: p_nc(ad.norm_act(x_na, gain, bias, act=False)), [x_na, gain, bias]),
        ("norm_act+relu", lambda: p_nc(ad.norm_act(x_na_act, gain, bias_act, act=True)),
         [x_na_act, gain, bias_act]),
        ("dense+relu", lambda: p_nc(ad.dense(x_dense, w_dense, b, gain, bias_dense, act=True)),
         [x_dense, w_dense, b, gain, bias_dense]),
    ]


@pytest.mark.parametrize("size", ["sweep", "15x2"])
def test_norm_act_fd_cases_hold_on_every_draw(size):
    # the sweep's (n, c) draws and criterion 1's 15 x 2, both act settings
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n, c = (int(rng.integers(2, 9)), int(rng.integers(2, 6))) if size == "sweep" else (15, 2)
        gain = ad.parameter(rng.uniform(0.5, 1.5, size=(1, c)))
        bias = ad.parameter(rng.normal(size=(1, c)))
        x, x_act, bias_act = (ad.parameter(v) for v in norm_act_fd_inputs(rng, n, c, gain.data))
        pre = ad.norm_act(ad.constant(x_act.data), gain, bias_act, act=False).data
        assert np.abs(pre).min() > 0.05, f"seed {seed}: a pre-activation sits on the kink"
        probe = ad.constant(rng.normal(size=(n, c)))
        for xt, b, act in ((x, bias, False), (x_act, bias_act, True)):
            try:
                check_grads(lambda: ad.sum_all(ad.mul(ad.norm_act(xt, gain, b, act), probe)),
                            [xt, gain, b])
            except AssertionError as exc:
                raise AssertionError(f"seed {seed}, {n} x {c}, act={act}") from exc


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


def test_adam_in_place_matches_out_of_place_formula_bit_for_bit(rng):
    # the textbook expressions, each array rebuilt at every step
    def reference(p, m, v, g, t, lr, b1=0.9, b2=0.999, eps=1e-8):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v

    shapes = {"w": (5, 3), "b": (1, 3), "skipped": (2, 2)}
    params = {k: ad.parameter(rng.normal(size=shape)) for k, shape in shapes.items()}
    state = adam_init(params)
    ref = {k: (t.data.copy(), np.zeros(shape), np.zeros(shape))
           for (k, t), shape in zip(params.items(), shapes.values())}
    skipped = params["skipped"].data.copy()
    for t in range(1, 7):
        grads = {k: rng.normal(size=shapes[k]) * 10.0 ** rng.integers(-6, 3) for k in ("w", "b")}
        adam_step(params, grads, state, lr=3e-2)
        for k, g in grads.items():
            ref[k] = reference(*ref[k], g, t, lr=3e-2)
        for k in grads:
            p, m, v = ref[k]
            assert params[k].data.tobytes() == p.tobytes(), (k, t)
            assert state.m[k].tobytes() == m.tobytes() and state.v[k].tobytes() == v.tobytes()
    assert params["skipped"].data.tobytes() == skipped.tobytes()
    assert not state.m["skipped"].any() and not state.v["skipped"].any()
    assert state.step == 6


def test_adam_shape_mismatch():
    p = ad.parameter(np.zeros((2, 2)))
    params = {"p": p}
    state = adam_init(params)
    with pytest.raises(ValueError):
        adam_step(params, {"p": np.zeros((1, 2))}, state, lr=0.1)


def test_lr_schedule():
    lrs = [lr_at_epoch(e, 1e-3) for e in (0, 10, 20, 30, 35)]
    np.testing.assert_allclose(lrs, [1e-3, 1e-4, 1e-5, 1e-6, 1e-6])
