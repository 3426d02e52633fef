"""Gradient, determinism, shape and memory checks for the tape engine."""

import gc
import weakref

import numpy as np
import pytest

from mxmnet.autodiff import (
    ShapeError,
    Tape,
    Tensor,
    abs_val,
    add,
    backward,
    gather,
    matmul,
    mul,
    scale,
    segment_sum,
    sub,
    sum_all,
    swish,
)
from conftest import central_diff, rel_gap

FD_TOL = 1e-6
FD_STEP = 1e-5


def _grad_of(build, tensors):
    """Record build(), backprop, return each tensor's gradient."""
    with Tape() as tape:
        out = build()
    backward(out, tape)
    return [t.grad for t in tensors]


def test_sum_grad_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    (g,) = _grad_of(lambda: sum_all(x), [x])
    assert np.array_equal(g, np.ones((2, 3)))


def test_square_grad_is_two_x():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((4, 2))
    x = Tensor(data.copy(), requires_grad=True)
    (g,) = _grad_of(lambda: sum_all(mul(x, x)), [x])
    assert np.allclose(g, 2.0 * data, atol=1e-14)


def test_elementwise_grads_match_fd():
    rng = np.random.default_rng(11)
    for trial in range(5):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4))
        w = rng.standard_normal((3, 4))  # projection, keeps the output scalar
        tw = Tensor(w)
        for op, ref in [
            (add, lambda: float(np.sum((a + b) * w))),
            (sub, lambda: float(np.sum((a - b) * w))),
            (mul, lambda: float(np.sum((a * b) * w))),
        ]:
            ta = Tensor(a, requires_grad=True)
            tb = Tensor(b, requires_grad=True)
            ga, gb = _grad_of(lambda: sum_all(mul(op(ta, tb), tw)), [ta, tb])
            assert rel_gap(ga, central_diff(ref, a, FD_STEP)) < FD_TOL
            assert rel_gap(gb, central_diff(ref, b, FD_STEP)) < FD_TOL


def test_scale_and_reductions_match_fd():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((5, 3))
    tx = Tensor(x, requires_grad=True)
    (g,) = _grad_of(lambda: scale(sum_all(tx), 2.5), [tx])
    assert rel_gap(g, central_diff(lambda: 2.5 * float(x.sum()), x, FD_STEP)) < FD_TOL
    tx = Tensor(x, requires_grad=True)
    (g,) = _grad_of(lambda: scale(sum_all(mul(tx, tx)), 1.0 / x.size), [tx])
    assert rel_gap(g, central_diff(lambda: float((x * x).mean()), x, FD_STEP)) < FD_TOL
    tx = Tensor(x, requires_grad=True)
    (g,) = _grad_of(lambda: sum_all(abs_val(tx)), [tx])
    assert np.array_equal(g, np.sign(x))


def test_matmul_forward_matches_triple_loop():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((3, 5))
    out = matmul(Tensor(a), Tensor(b))
    want = np.zeros((4, 5))
    for i in range(4):
        for j in range(5):
            for k in range(3):
                want[i, j] += a[i, k] * b[k, j]
    assert np.allclose(out.data, want, atol=1e-13)


def test_matmul_grads_match_fd():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((3, 5))
    w = rng.standard_normal((4, 5))
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    ga, gb = _grad_of(lambda: sum_all(mul(matmul(ta, tb), Tensor(w))), [ta, tb])
    ref = lambda: float(np.sum((a @ b) * w))
    assert rel_gap(ga, central_diff(ref, a, FD_STEP)) < FD_TOL
    assert rel_gap(gb, central_diff(ref, b, FD_STEP)) < FD_TOL


def test_add_bias_grads_match_fd():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((6, 3))
    b = rng.standard_normal(3)
    w = rng.standard_normal((6, 3))
    m = rng.standard_normal((3, 3))
    tx = Tensor(x, requires_grad=True)
    tm = Tensor(m, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    gx, gm, gb = _grad_of(
        lambda: sum_all(mul(matmul(tx, tm, tb), Tensor(w))), [tx, tm, tb]
    )
    ref = lambda: float(np.sum((x @ m + b) * w))
    assert rel_gap(gx, central_diff(ref, x, FD_STEP)) < FD_TOL
    assert rel_gap(gm, central_diff(ref, m, FD_STEP)) < FD_TOL
    assert rel_gap(gb, central_diff(ref, b, FD_STEP)) < FD_TOL


class _NoTranspose(np.ndarray):
    """An array whose transpose fails, to show that nothing asked for it."""

    @property
    def T(self):
        raise AssertionError("transpose taken for a product nobody needs")


def test_matmul_skips_grads_of_constant_operands():
    rng = np.random.default_rng(17)
    const = Tensor(rng.standard_normal((5, 4)))
    w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    bias = Tensor(rng.standard_normal(3))
    with Tape() as tape:
        out = sum_all(matmul(const, w, bias))
    w.data = w.data.view(_NoTranspose)  # g @ w.T is only needed for const
    backward(out, tape)
    assert const.grad is None
    assert bias.grad is None
    assert np.allclose(w.grad, np.tile(const.data.sum(axis=0)[:, None], (1, 3)))


def test_matmul_row_block_grads_match_fd():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((7, 5))
    bias = rng.standard_normal(5)
    w = rng.standard_normal((4, 5))
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    tbias = Tensor(bias, requires_grad=True)
    ga, gb, gbias = _grad_of(
        lambda: sum_all(mul(matmul(ta, tb, tbias, rows=(2, 5)), Tensor(w))),
        [ta, tb, tbias],
    )
    ref = lambda: float(np.sum((a @ b[2:5] + bias) * w))
    assert rel_gap(ga, central_diff(ref, a, FD_STEP)) < FD_TOL
    assert rel_gap(gb[2:5], central_diff(ref, b, FD_STEP)[2:5]) < FD_TOL
    assert rel_gap(gbias, central_diff(ref, bias, FD_STEP)) < FD_TOL
    assert np.array_equal(gb[:2], np.zeros((2, 5)))
    assert np.array_equal(gb[5:], np.zeros((2, 5)))


def test_gather_accumulates_repeated_rows():
    x = Tensor(np.eye(3), requires_grad=True)
    idx = np.array([0, 2, 0, 0])
    (g,) = _grad_of(lambda: sum_all(gather(x, idx)), [x])
    want = np.zeros((3, 3))
    want[0] = 3.0
    want[2] = 1.0
    assert np.array_equal(g, want)


def test_gather_grad_matches_fd():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, 3))
    idx = np.array([4, 1, 1, 0, 3, 4])
    w = rng.standard_normal((6, 3))
    tx = Tensor(x, requires_grad=True)
    (g,) = _grad_of(lambda: sum_all(mul(gather(tx, idx), Tensor(w))), [tx])
    ref = lambda: float(np.sum(x[idx] * w))
    assert rel_gap(g, central_diff(ref, x, FD_STEP)) < FD_TOL


def test_gather_grad_matches_add_at_reference():
    # Backward sums each row's gradient in a different order than np.add.at,
    # so agreement is to rounding, scaled by the gradient mass.
    rng = np.random.default_rng(18)
    cases = [np.array([], dtype=np.int64), np.array([3, 3, 3]), np.array([0, 5])]
    cases += [rng.integers(0, 6, size=int(rng.integers(1, 60))) for _ in range(20)]
    for idx in cases:
        x = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        w = rng.standard_normal((idx.size, 4))
        (g,) = _grad_of(lambda: sum_all(mul(gather(x, idx), Tensor(w))), [x])
        want = np.zeros((6, 4))
        np.add.at(want, idx, w)
        assert np.all(np.abs(g - want) <= 1e-12 * np.abs(w).sum())
        untouched = np.setdiff1d(np.arange(6), idx)
        assert np.array_equal(g[untouched], np.zeros((untouched.size, 4)))


def test_segment_sum_matches_loop_oracle():
    rng = np.random.default_rng(9)
    for trial in range(10):
        rows = rng.integers(0, 30, size=1).item()
        x = rng.standard_normal((rows, 4))
        seg = rng.integers(0, 6, size=rows)
        out = segment_sum(Tensor(x), seg, 6)
        want = np.zeros((6, 4))
        for r in range(rows):
            want[seg[r]] += x[r]
        assert np.allclose(out.data, want, atol=1e-12)


def _segment_sum_loop(data, segments, num):
    """Per-segment loop over rows in canonical row-byte order."""
    out = np.zeros((num,) + data.shape[1:])
    if data.shape[0] == 0:
        return out
    rows = np.ascontiguousarray(data.reshape(data.shape[0], -1))
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")
    order = order[np.argsort(segments[order], kind="stable")]
    seg_sorted = segments[order]
    data_sorted = data[order]
    starts = np.flatnonzero(np.r_[True, seg_sorted[1:] != seg_sorted[:-1]])
    bounds = np.r_[starts, seg_sorted.size]
    for k in range(starts.size):
        lo, hi = bounds[k], bounds[k + 1]
        out[seg_sorted[lo]] = data_sorted[lo:hi].sum(axis=0)
    return out


def test_segment_sum_matches_canonical_loop():
    # The loop adds rows in another order than the vectorized sum, so the
    # two agree to rounding, scaled by each segment's row mass.
    rng = np.random.default_rng(19)
    for trial in range(30):
        rows = int(rng.integers(0, 50))
        x = rng.standard_normal((rows, 4)) * 10.0 ** rng.integers(-3, 4, size=(rows, 1))
        seg = rng.integers(0, 8, size=rows)
        got = segment_sum(Tensor(x), seg, 8).data
        want = _segment_sum_loop(x, seg, 8)
        mass = np.zeros((8, 4))
        np.add.at(mass, seg, np.abs(x))
        assert np.all(np.abs(got - want) <= 1e-12 * mass.sum(axis=1, keepdims=True))


def test_segment_sum_empty_segments_are_zero():
    x = np.ones((3, 2))
    out = segment_sum(Tensor(x), np.array([0, 0, 4]), 6)
    assert np.array_equal(out.data[1], np.zeros(2))
    assert np.array_equal(out.data[5], np.zeros(2))
    assert np.array_equal(out.data[0], np.full(2, 2.0))


def test_segment_sum_row_order_is_bit_identical():
    # Summation must not depend on how the incoming rows are ordered.
    rng = np.random.default_rng(10)
    for trial in range(20):
        n = int(rng.integers(2, 40))
        x = rng.standard_normal((n, 5))
        seg = rng.integers(0, 7, size=n)
        base = segment_sum(Tensor(x), seg, 7).data.tobytes()
        perm = rng.permutation(n)
        shuffled = segment_sum(Tensor(x[perm]), seg[perm], 7).data.tobytes()
        assert base == shuffled


def test_segment_sum_grad_matches_fd():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((8, 3))
    seg = np.array([0, 1, 1, 3, 0, 2, 3, 3])
    w = rng.standard_normal((4, 3))
    tx = Tensor(x, requires_grad=True)
    (g,) = _grad_of(lambda: sum_all(mul(segment_sum(tx, seg, 4), Tensor(w))), [tx])

    def ref():
        acc = np.zeros((4, 3))
        np.add.at(acc, seg, x)
        return float(np.sum(acc * w))

    assert rel_gap(g, central_diff(ref, x, FD_STEP)) < FD_TOL


def test_swish_value_and_grad():
    x = np.array([[1.0]])
    out = swish(Tensor(x))
    assert abs(out.data[0, 0] - 1.0 / (1.0 + np.exp(-1.0))) < 1e-15

    rng = np.random.default_rng(14)
    data = rng.standard_normal((4, 4)) * 3.0
    tx = Tensor(data, requires_grad=True)
    (g,) = _grad_of(lambda: sum_all(swish(tx)), [tx])
    ref = lambda: float(np.sum(data / (1.0 + np.exp(-data))))
    assert rel_gap(g, central_diff(ref, data, FD_STEP)) < FD_TOL


def test_swish_is_stable_at_extremes():
    out = swish(Tensor(np.array([[-745.0, 745.0, -1e30, 1e3]])))
    assert np.all(np.isfinite(out.data))
    assert abs(out.data[0, 0]) < 1e-300  # deep in the left tail, no overflow
    assert out.data[0, 2] == 0.0


def test_swish_grad_is_finite_at_extremes():
    data = np.array([[-745.0, 745.0, -1e30, 1e3]])
    x = Tensor(data, requires_grad=True)
    with Tape() as tape:
        out = swish(x)
        total = sum_all(out)
    backward(total, tape)
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-data))
    assert np.all(np.isfinite(x.grad))
    assert np.array_equal(x.grad, s + out.data * (1.0 - s))
    assert np.array_equal(x.grad, [[0.0, 1.0, 0.0, 1.0]])


def test_composite_graph_matches_fd():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((4, 5))
    b = rng.standard_normal(5)
    tx = Tensor(x, requires_grad=True)
    tw = Tensor(w, requires_grad=True)
    tb = Tensor(b, requires_grad=True)

    def build():
        return sum_all(swish(matmul(tx, tw, tb)))

    gx, gw, gb = _grad_of(build, [tx, tw, tb])

    def ref():
        z = x @ w + b
        return float(np.sum(z / (1.0 + np.exp(-z))))

    assert rel_gap(gx, central_diff(ref, x, FD_STEP)) < FD_TOL
    assert rel_gap(gw, central_diff(ref, w, FD_STEP)) < FD_TOL
    assert rel_gap(gb, central_diff(ref, b, FD_STEP)) < FD_TOL


def test_reused_tensor_accumulates():
    x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    (g,) = _grad_of(lambda: sum_all(add(x, x)), [x])
    assert np.array_equal(g, np.full((1, 2), 2.0))


def test_backward_skips_dead_branches():
    x = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
    with Tape() as tape:
        dead = mul(x, x)  # recorded but never feeds the output
        live = sum_all(x)
    backward(live, tape)
    assert dead.grad is None
    assert np.array_equal(x.grad, np.ones((1, 2)))


def test_ops_outside_tape_are_not_recorded():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = add(x, x)  # no active tape
    assert np.array_equal(y.data, np.full((2, 2), 2.0))
    with Tape() as tape:
        z = mul(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))))
    assert len(tape) == 0  # no differentiable input, nothing recorded
    assert np.array_equal(z.data, np.ones((2, 2)))


def test_backward_rejects_non_scalars():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as tape:
        y = add(x, x)
    with pytest.raises(ShapeError):
        backward(y, tape)


def test_shape_mismatches_raise():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((3, 2)))
    with pytest.raises(ShapeError):
        add(a, b)
    with pytest.raises(ShapeError):
        mul(a, b)
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))), Tensor(np.ones(2)))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((5, 2))), rows=(0, 2))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((5, 2))), rows=(3, 6))


def test_gradient_accumulates_across_tapes():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as t1:
        y1 = sum_all(x)
    backward(y1, t1)
    with Tape() as t2:
        y2 = sum_all(x)
    backward(y2, t2)
    assert np.array_equal(x.grad, np.full((2, 2), 2.0))


def test_backward_frees_intermediate_grads():
    rng = np.random.default_rng(19)
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    with Tape() as tape:
        h = swish(matmul(x, w))
        out = sum_all(mul(gather(h, [0, 2, 2]), gather(h, [1, 1, 3])))
    backward(out, tape)
    assert len(tape) == 6
    assert all(op.slot.grad is None for op in tape.ops)
    first = (x.grad.copy(), w.grad.copy())
    backward(out, tape)  # nothing stale is left behind: a rerun adds the same again
    assert np.array_equal(x.grad, 2.0 * first[0])
    assert np.array_equal(w.grad, 2.0 * first[1])


def test_leaf_grads_own_their_buffers():
    rng = np.random.default_rng(20)
    for op in (add, sub):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        ga, gb = _grad_of(lambda: sum_all(op(a, b)), [a, b])
        assert ga.flags.writeable and gb.flags.writeable
        assert not np.shares_memory(ga, gb)
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    (g,) = _grad_of(lambda: sum_all(x), [x])
    assert g.flags.writeable
    (g,) = _grad_of(lambda: scale(sum_all(x), 3.0), [x])
    assert np.array_equal(g, np.full((2, 3), 4.0))


def test_matmul_output_is_freed_during_forward():
    # No rule reads a matmul's output, so once the caller drops the tensor
    # its array is gone before backward runs.
    rng = np.random.default_rng(21)
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    with Tape() as tape:
        h = matmul(x, w)
        ref = weakref.ref(h.data)
        out = sum_all(swish(h))
    del h
    assert ref() is None
    backward(out, tape)
    z = x.data @ w.data
    s = 1.0 / (1.0 + np.exp(-z))
    assert np.allclose(w.grad, x.data.T @ (s + z * s * (1.0 - s)), rtol=1e-12)


def test_swish_output_lives_until_backward():
    # swish's rule reads its own output, so the tape keeps that array.
    x = Tensor(np.array([[0.5, -1.0]]), requires_grad=True)
    with Tape() as tape:
        y = swish(x)
        ref = weakref.ref(y.data)
        out = sum_all(y)
    del y
    assert ref() is not None
    backward(out, tape)
    del tape
    assert ref() is None


def test_held_output_does_not_pin_the_graph():
    # The final output outlives its tape (training keeps the loss to read
    # it); its slot must not reach the rules, or every array they read
    # would stay alive with it.
    rng = np.random.default_rng(22)
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    with Tape() as tape:
        h = swish(matmul(x, w))
        ref = weakref.ref(h.data)
        out = scale(sum_all(h), 0.5)
    del h
    backward(out, tape)
    assert ref() is not None
    del tape
    assert ref() is None
    assert out.item() == 0.5 * float(np.sum(swish(Tensor(x.data @ w.data)).data))


def test_tensors_are_freed_without_the_cycle_collector():
    # Untaped forwards (evaluation) and leaves rely on reference counting
    # alone: no tensor may sit in a reference cycle, or its array would
    # wait for the cyclic collector.
    rng = np.random.default_rng(23)
    w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    gc.disable()
    try:
        leaf = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        untaped = swish(matmul(leaf, w))
        refs = [weakref.ref(leaf.data), weakref.ref(untaped.data)]
        del leaf, untaped
        assert all(r() is None for r in refs)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        with Tape() as tape:
            out = sum_all(swish(matmul(x, w)))
        backward(out, tape)
        refs = [weakref.ref(x.data), weakref.ref(x.grad)]
        del x, tape, out
        assert all(r() is None for r in refs)
    finally:
        gc.enable()
