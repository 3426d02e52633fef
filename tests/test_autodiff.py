"""Gradient, determinism, shape and memory checks for the tape engine."""

import gc
import weakref

import numpy as np
import pytest

from mxmnet import autodiff
from mxmnet.autodiff import (
    ShapeError,
    Tape,
    Tensor,
    add,
    backward,
    gather,
    matmul,
    mul,
    segment_sum,
    sum_all,
    swish,
    swish_gate,
)
from conftest import central_diff, rel_gap

FD_TOL = 1e-6
FD_STEP = 1e-5


def _grad_of(build, tensors, seed=1.0):
    """Record build(), backprop from ``seed``, return each tensor's gradient."""
    with Tape() as tape:
        out = build()
    backward(out, tape, seed)
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
    (g,) = _grad_of(lambda: sum_all(tx), [tx], 2.5)
    assert rel_gap(g, central_diff(lambda: 2.5 * float(x.sum()), x, FD_STEP)) < FD_TOL
    tx = Tensor(x, requires_grad=True)
    (g,) = _grad_of(lambda: sum_all(mul(tx, tx)), [tx], 1.0 / x.size)
    assert rel_gap(g, central_diff(lambda: float((x * x).mean()), x, FD_STEP)) < FD_TOL


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


def test_segment_sum_is_the_transpose_of_gather():
    # segment_sum's forward and gather's backward are one scatter-sum, so
    # for upstream w they agree bit for bit.
    rng = np.random.default_rng(10)
    n, k = 7, 5
    cases = [np.array([], dtype=np.int64), np.array([3, 3, 3]), np.array([6, 0])]
    cases += [np.sort(rng.integers(0, n, size=int(rng.integers(1, 60)))) for _ in range(20)]
    cases += [rng.integers(0, n, size=int(rng.integers(1, 60))) for _ in range(20)]
    for idx in cases:
        w = rng.standard_normal((idx.size, k)) * 10.0 ** rng.integers(-3, 4, size=(idx.size, 1))
        x = Tensor(rng.standard_normal((n, k)), requires_grad=True)
        (g,) = _grad_of(lambda: sum_all(mul(gather(x, idx), Tensor(w))), [x])
        got = segment_sum(Tensor(w), idx, n).data
        assert got.tobytes() == g.tobytes()


def test_an_ascending_index_skips_the_sort_with_the_same_bytes(monkeypatch):
    # An ascending index is its own stable sort; the scatter-sum skips the
    # argsort and the reordered copy and gives the sorted route's bytes.
    rng = np.random.default_rng(12)
    n, k = 9, 4
    cases = [np.array([0]), np.array([4, 4, 4]), np.arange(n), np.array([0, 0, 8, 8])]
    cases += [np.sort(rng.integers(0, n, size=int(rng.integers(1, 80)))) for _ in range(20)]
    data = [
        rng.standard_normal((idx.size, k)) * 10.0 ** rng.integers(-3, 4, size=(idx.size, 1))
        for idx in cases
    ]
    wants = []
    for idx, w in zip(cases, data):
        order = np.argsort(idx, kind="stable")
        starts = np.flatnonzero(np.r_[True, idx[order][1:] != idx[order][:-1]])
        want = np.zeros((n, k))
        want[idx[order][starts]] = np.add.reduceat(w[order], starts, axis=0)
        wants.append(want)

    def no_sort(*args, **kwargs):
        raise AssertionError("an ascending index was sorted")

    monkeypatch.setattr(np, "argsort", no_sort)
    for idx, w, want in zip(cases, data, wants):
        assert segment_sum(Tensor(w), idx, n).data.tobytes() == want.tobytes()


def test_gather_and_segment_sum_check_their_index():
    x = Tensor(np.ones((4, 2)))
    for bad, err in (([[0, 1]], ShapeError), ([0, 4], IndexError), ([-1], IndexError)):
        with pytest.raises(err):
            gather(x, bad)
        with pytest.raises(err):
            segment_sum(Tensor(np.ones((len(bad), 2))), bad, 4)
    with pytest.raises(ShapeError):
        segment_sum(x, [0, 1, 2], 4)  # one id short of the rows


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


# Pre-activations for the fused steps: standard normal, and with entries
# near and past exp's overflow edge, as in test_swish_is_stable_at_extremes.
_EXTREMES = np.array([-745.0, 745.0, -1e30, 1e3, -709.5, 40.0])


def _pre_activation(rng, shape, extremes):
    x = rng.standard_normal(shape) * 3.0
    if extremes:
        x.flat[: _EXTREMES.size] = _EXTREMES
    return x


def _value_and_grads(build, arrays, needs_grad, proj):
    """build(*tensors), projected onto ``proj`` and backpropagated from
    0.75: the built value and each tensor's gradient (``None`` for those
    that need none)."""
    tensors = [Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays, needs_grad)]
    with Tape() as tape:
        y = build(*tensors)
        out = sum_all(mul(y, Tensor(proj)))
    backward(out, tape, 0.75)
    return y.data, [t.grad for t in tensors]


def _assert_same_bytes(fused, unfused):
    (y_f, grads_f), (y_u, grads_u) = fused, unfused
    assert y_f.shape == y_u.shape and y_f.tobytes() == y_u.tobytes()
    for g_f, g_u in zip(grads_f, grads_u):
        if g_u is None:
            assert g_f is None
        else:
            assert g_f.shape == g_u.shape and g_f.tobytes() == g_u.tobytes()


@pytest.mark.parametrize(
    "bias, rows, constant_left, extremes",
    [
        (False, None, False, False),
        (True, None, False, False),
        (True, (2, 7), False, False),
        (False, (0, 5), False, False),
        (True, None, True, False),
        (True, (2, 7), False, True),
    ],
    ids=["plain", "bias", "row block", "row block without bias", "constant left", "extremes"],
)
def test_swish_matmul_has_the_bytes_of_swish_then_matmul(bias, rows, constant_left, extremes):
    rng = np.random.default_rng(31)
    x = _pre_activation(rng, (9, 5), extremes)
    w = rng.standard_normal((9 if rows else 5, 4))
    b = rng.standard_normal(4)
    proj = rng.standard_normal((9, 4))
    arrays, needs = [x, w, b], [not constant_left, True, True]

    def build(fused):
        def run(tx, tw, tb):
            tb = tb if bias else None
            if fused:
                return matmul(tx, tw, tb, rows=rows, swish_a=True)
            return matmul(swish(tx), tw, tb, rows=rows)

        return run

    fused = _value_and_grads(build(True), arrays, needs, proj)
    _assert_same_bytes(fused, _value_and_grads(build(False), arrays, needs, proj))
    assert np.all(np.isfinite(fused[0])) and all(
        g is None or np.all(np.isfinite(g)) for g in fused[1]
    )


@pytest.mark.parametrize(
    "needs_grad, extremes",
    [
        ((True, False, True), False),
        ((True, True, True), False),
        ((False, False, True), False),
        ((True, False, False), False),
        ((True, True, True), True),
    ],
    ids=["constant basis", "every operand", "constant messages", "constant weight", "extremes"],
)
def test_swish_gate_has_the_bytes_of_swish_then_a_gated_mul(needs_grad, extremes):
    rng = np.random.default_rng(32)
    x = _pre_activation(rng, (8, 5), extremes)
    basis = rng.standard_normal((8, 3))
    w = rng.standard_normal((3, 5))
    proj = rng.standard_normal((8, 5))
    fused = _value_and_grads(swish_gate, [x, basis, w], needs_grad, proj)
    unfused = _value_and_grads(
        lambda tx, tbasis, tw: mul(swish(tx), matmul(tbasis, tw)),
        [x, basis, w],
        needs_grad,
        proj,
    )
    _assert_same_bytes(fused, unfused)
    assert np.all(np.isfinite(fused[0])) and all(
        g is None or np.all(np.isfinite(g)) for g in fused[1]
    )


def _np_swish(x):
    return x / (1.0 + np.exp(-x))


def test_swish_matmul_grads_match_fd():
    rng = np.random.default_rng(33)
    x = rng.standard_normal((4, 3)) * 2.0
    b = rng.standard_normal((6, 5))
    bias = rng.standard_normal(5)
    proj = rng.standard_normal((4, 5))
    tx, tb, tbias = (Tensor(a, requires_grad=True) for a in (x, b, bias))
    grads = _grad_of(
        lambda: sum_all(mul(matmul(tx, tb, tbias, rows=(1, 4), swish_a=True), Tensor(proj))),
        [tx, tb, tbias],
    )
    ref = lambda: float(np.sum((_np_swish(x) @ b[1:4] + bias) * proj))
    for got, arr in zip(grads, (x, b, bias)):
        assert rel_gap(got, central_diff(ref, arr, FD_STEP)) < FD_TOL


def test_swish_gate_grads_match_fd():
    rng = np.random.default_rng(34)
    x = rng.standard_normal((6, 4)) * 2.0
    basis = rng.standard_normal((6, 3))
    w = rng.standard_normal((3, 4))
    proj = rng.standard_normal((6, 4))
    tensors = [Tensor(a, requires_grad=True) for a in (x, basis, w)]
    grads = _grad_of(lambda: sum_all(mul(swish_gate(*tensors), Tensor(proj))), tensors)
    ref = lambda: float(np.sum(_np_swish(x) * (basis @ w) * proj))
    for got, arr in zip(grads, (x, basis, w)):
        assert rel_gap(got, central_diff(ref, arr, FD_STEP)) < FD_TOL


@pytest.mark.parametrize(
    "fused, unfused",
    [
        (
            lambda x, basis, w: matmul(x, w, swish_a=True),
            lambda x, basis, w: matmul(swish(x), w),
        ),
        (swish_gate, lambda x, basis, w: mul(swish(x), matmul(basis, w))),
    ],
    ids=["matmul", "gate"],
)
def test_a_fused_step_frees_its_activation_during_forward(monkeypatch, fused, unfused):
    # A fused step drops the sigmoid and the activation it computed before
    # it returns, and its rule computes them afresh; the plain swish keeps
    # both on the tape until the tape goes.
    made = []
    sigmoid_swish = autodiff._sigmoid_swish

    def tracked(x):
        s, y = sigmoid_swish(x)
        made.extend((weakref.ref(s), weakref.ref(y)))
        return s, y

    monkeypatch.setattr(autodiff, "_sigmoid_swish", tracked)
    rng = np.random.default_rng(35)
    x = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
    basis = Tensor(rng.standard_normal((6, 3)))
    w = Tensor(rng.standard_normal((3 if fused is swish_gate else 4, 4)), requires_grad=True)
    for build, kept in ((fused, False), (unfused, True)):
        made.clear()
        with Tape() as tape:
            out = sum_all(build(x, basis, w))
        assert len(made) == 2
        assert all((ref() is not None) == kept for ref in made)
        backward(out, tape)
        del tape, out
        assert all(ref() is None for ref in made)


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
    for seed in ((), (2.0,)):
        with pytest.raises(ShapeError):
            backward(y, tape, *seed)
    assert x.grad is None


def test_a_power_of_two_seed_scales_every_leaf_gradient_exactly():
    # Scaling by a power of two is exact in every rule, so the seeded leaf
    # gradients are that multiple of the unseeded ones, bit for bit.
    rng = np.random.default_rng(24)
    x0 = rng.standard_normal((5, 3))
    w0 = rng.standard_normal((3, 4))
    b0 = rng.standard_normal(4)

    def grads(seed):
        x, w, b = (Tensor(a, requires_grad=True) for a in (x0, w0, b0))
        with Tape() as tape:
            h = swish(matmul(x, w, b))
            e = mul(gather(h, [0, 2, 2, 4]), gather(h, [1, 1, 3, 0]))
            out = sum_all(segment_sum(e, [0, 0, 1, 2], 3))
        if seed is None:
            backward(out, tape)
        else:
            backward(out, tape, seed)
        return [t.grad for t in (x, w, b)]

    plain = grads(None)
    for seed in (1.0, 2.0, 0.25, -8.0):
        for got, want in zip(grads(seed), plain):
            assert np.array_equal(got, seed * want)


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
    with pytest.raises(ShapeError, match=r"^matmul needs 2-d operands, got \(3,\) and \(3, 2\)$"):
        matmul(Tensor(np.ones(3)), b)
    with pytest.raises(ShapeError, match=r"^swish_gate needs 2-d operands"):
        swish_gate(Tensor(np.ones(3)), a, b)
    with pytest.raises(ShapeError, match=r"^swish_gate: messages \(2, 3\), basis \(3, 3\)"):
        swish_gate(a, Tensor(np.ones((3, 3))), Tensor(np.ones((3, 3))))
    with pytest.raises(ShapeError, match=r"^swish_gate: messages \(2, 3\), basis \(2, 4\)"):
        swish_gate(a, Tensor(np.ones((2, 4))), Tensor(np.ones((4, 2))))
    with pytest.raises(ShapeError, match=r"^gather needs a 2-d tensor, got shape \(3,\)$"):
        gather(Tensor(np.ones(3)), [0])
    with pytest.raises(ShapeError, match=r"^item\(\) needs a scalar, got shape \(2, 3\)$"):
        a.item()


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
    for op in (add, mul):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        ga, gb = _grad_of(lambda: sum_all(op(a, b)), [a, b])
        assert ga.flags.writeable and gb.flags.writeable
        assert not np.shares_memory(ga, gb)
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    (g,) = _grad_of(lambda: sum_all(x), [x])
    assert g.flags.writeable
    (g,) = _grad_of(lambda: sum_all(x), [x], 3.0)
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
    # The final output outlives its tape (training reads the prediction
    # to compute the loss); its slot must not reach the rules, or every
    # array they read would stay alive with it.
    rng = np.random.default_rng(22)
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    with Tape() as tape:
        h = swish(matmul(x, w))
        ref = weakref.ref(h.data)
        out = sum_all(h)
    del h
    backward(out, tape, 0.5)
    assert ref() is not None
    del tape
    assert ref() is None
    assert out.item() == float(np.sum(swish(Tensor(x.data @ w.data)).data))


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
