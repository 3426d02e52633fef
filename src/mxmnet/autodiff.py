"""Reverse-mode automatic differentiation over dense float64 tensors.

Every operation records one step onto the active :class:`Tape`.  Steps are
appended in execution order, which is already a valid topological order, so
:func:`backward` simply walks the recorded list in reverse and applies each
step's gradient rule.  A fresh tape is built per forward pass; graph shape
may change freely between passes.

Design constraints honoured here:

* all payloads are float64 numpy arrays (numpy is the raw array backend,
  the differentiation logic lives entirely in this module);
* gradients accumulate additively, so a tensor consumed by several ops (or
  several ``backward`` calls on one tape) sums its contributions;
* each step keeps only what its gradient rule reads, and forms a backward
  product only for operands that need a gradient;
* ``backward`` frees the gradient of each step's output as soon as that
  step's rule has run, so at any moment it holds only the gradients of
  tensors whose producing step is still to come; leaf gradients stay.  A
  first gradient is adopted without a copy, so rules hand over fresh
  arrays or their output's own gradient, which ``backward`` drops right
  after; ``add`` copies it only when both operands need it;
* ``matmul`` takes an optional bias, so a dense layer is one step, and may
  read a row block of its right operand, so a layer on concatenated
  features can run per part; ``swish`` keeps its sigmoid for backward
  instead of recomputing it;
* ``segment_sum`` adds rows per segment in a canonical order (sorted by raw
  row bytes within each segment), so permuting its input rows returns a
  bit-identical result;
* the active tape is thread local: independent tapes on separate threads do
  not interfere.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "TapeOp",
    "ShapeError",
    "backward",
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "gather",
    "segment_sum",
    "swish",
    "sum_all",
    "abs_val",
]


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class Tensor:
    """A dense float64 array plus an optional gradient buffer.

    ``requires_grad`` marks trainable leaves; derived tensors inherit the
    flag from their inputs.  ``grad`` is lazily allocated by ``backward``
    and always matches ``data`` in shape; on a tensor that an op produced,
    ``backward`` sets it back to ``None`` once that op has consumed it.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # keeps 0-d shape intact
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != ():
            raise ShapeError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class TapeOp:
    """One recorded step: its output and the rule that backpropagates it."""

    __slots__ = ("name", "output", "backward_fn")

    def __init__(self, name, output, backward_fn):
        self.name = name
        self.output = output
        self.backward_fn = backward_fn


_ACTIVE = threading.local()


def _current_tape():
    return getattr(_ACTIVE, "tape", None)


class Tape:
    """Ordered record of operations for one forward pass.

    Used as a context manager; entering makes it the active tape for the
    current thread, leaving restores the previous one (tapes may nest).
    """

    def __init__(self):
        self.ops: list[TapeOp] = []

    def __enter__(self):
        self._prev = _current_tape()
        _ACTIVE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE.tape = self._prev
        return False

    def __len__(self):
        return len(self.ops)


def _record(name, output, backward_fn):
    tape = _current_tape()
    if tape is not None and output.requires_grad:
        tape.ops.append(TapeOp(name, output, backward_fn))
    return output


def _accumulate(t: Tensor, g: np.ndarray):
    # A first gradient is adopted, so ``g`` must be a fresh float64 array
    # that nothing else holds or will write to.  Products of 0-d operands
    # come back as numpy scalars and are boxed into 0-d arrays.
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if isinstance(g, np.ndarray) else np.array(g)
    else:
        t.grad += g


def backward(output: Tensor, tape: Tape):
    """Accumulate d(output)/d(leaf) into ``grad`` of every tracked tensor.

    ``output`` must be a scalar recorded on ``tape``.  Leaf grad buffers are
    not cleared first, so backward passes over separate tapes that share
    parameters add up (gradient accumulation over a batch).

    Once a step's rule has run, the gradient of that step's output (``output``
    included) is set back to ``None``: nothing later on the tape reads it, and
    dropping it right away keeps peak memory to the gradients still in use.
    Only tensors no step produced, the leaves, keep their ``grad``.
    """
    if output.data.shape != ():
        raise ShapeError(
            f"backward needs a scalar output, got shape {output.data.shape}"
        )
    if output.grad is None:
        output.grad = np.zeros((), dtype=np.float64)
    output.grad += 1.0
    for op in reversed(tape.ops):
        if op.output.grad is not None:
            op.backward_fn()
            op.output.grad = None


def _require_grad(*tensors) -> bool:
    return any(t.requires_grad for t in tensors)


def _same_shape(name, a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{name}: shapes differ, {a.data.shape} vs {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors with identical shapes."""
    _same_shape("add", a, b)
    out = Tensor(a.data + b.data, _require_grad(a, b))

    def backward_fn():
        # ``backward`` drops out.grad after this rule, so the first operand
        # that needs it adopts it and only a second one gets a copy.
        g = out.grad
        _accumulate(a, g)
        _accumulate(b, g.copy() if a.requires_grad and b.requires_grad else g)

    return _record("add", out, backward_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise difference, shapes must match."""
    _same_shape("sub", a, b)
    out = Tensor(a.data - b.data, _require_grad(a, b))

    def backward_fn():
        g = out.grad
        _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, -g)

    return _record("sub", out, backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product, shapes must match."""
    _same_shape("mul", a, b)
    out = Tensor(a.data * b.data, _require_grad(a, b))

    def backward_fn():
        g = out.grad
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
            _accumulate(b, g * a.data)

    return _record("mul", out, backward_fn)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python constant (not differentiated through)."""
    c = float(c)
    out = Tensor(a.data * c, a.requires_grad)

    def backward_fn():
        _accumulate(a, out.grad * c)

    return _record("scale", out, backward_fn)


def matmul(
    a: Tensor,
    b: Tensor,
    bias: Tensor | None = None,
    rows: tuple[int, int] | None = None,
) -> Tensor:
    """Matrix product of a (m, k) tensor with a (k, n) tensor.

    An optional length-n ``bias`` is added to every row of the product, so
    a dense layer records one step.  With ``rows=(lo, hi)`` the right
    operand is the row block ``b[lo:hi]``, so ``k`` must be ``hi - lo``; the
    weight gradient lands in those rows of ``b.grad`` and the other rows
    receive zero.
    """
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(
            f"matmul needs 2-d operands, got {a.data.shape} and {b.data.shape}"
        )
    if rows is None:
        lo, hi = 0, b.data.shape[0]
    else:
        lo, hi = rows
        if not 0 <= lo <= hi <= b.data.shape[0]:
            raise ShapeError(
                f"matmul: row block {lo}:{hi} outside the {b.data.shape[0]} rows of b"
            )
    if a.data.shape[1] != hi - lo:
        raise ShapeError(
            f"matmul: inner dimensions differ, {a.data.shape} x "
            f"{b.data.shape} rows {lo}:{hi}"
        )
    operands = (a, b)
    product = a.data @ b.data[lo:hi]
    if bias is not None:
        if bias.data.shape != (b.data.shape[1],):
            raise ShapeError(
                f"matmul: bias of shape {bias.data.shape} for a product of "
                f"shape {product.shape}"
            )
        product += bias.data
        operands = (a, b, bias)
    out = Tensor(product, _require_grad(*operands))

    def backward_fn():
        g = out.grad
        if a.requires_grad:
            _accumulate(a, g @ b.data[lo:hi].T)
        if b.requires_grad:
            gb = a.data.T @ g
            if rows is None:
                _accumulate(b, gb)
            else:
                if b.grad is None:
                    b.grad = np.zeros(b.data.shape)
                b.grad[lo:hi] += gb
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g.sum(axis=0))

    return _record("matmul", out, backward_fn)


def _ordered_segment_sum(data, segments, order, num):
    """Sum rows of ``data`` into ``num`` buckets by ``segments``.

    ``order`` must sort ``segments`` ascending; each bucket adds its rows in
    that order.  Empty buckets come out as zero rows.
    """
    out = np.zeros((num,) + data.shape[1:], dtype=np.float64)
    if order.size:
        keys = segments[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        out[keys[starts]] = np.add.reduceat(data[order], starts, axis=0)
    return out


def gather(x: Tensor, index) -> Tensor:
    """Select rows of a 2-d tensor; repeated indices scatter-add on backward."""
    if x.data.ndim != 2:
        raise ShapeError(f"gather needs a 2-d tensor, got shape {x.data.shape}")
    idx = np.asarray(index, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather index must be 1-d, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
        raise IndexError(
            f"gather index out of range for {x.data.shape[0]} rows: "
            f"[{idx.min()}, {idx.max()}]"
        )
    out = Tensor(x.data[idx], x.requires_grad)

    def backward_fn():
        order = np.argsort(idx, kind="stable")
        _accumulate(x, _ordered_segment_sum(out.grad, idx, order, x.data.shape[0]))

    return _record("gather", out, backward_fn)


def _segment_reduce(data: np.ndarray, segments: np.ndarray, num: int) -> np.ndarray:
    if data.shape[0] == 0:
        return np.zeros((num,) + data.shape[1:], dtype=np.float64)
    # Canonical within-segment order: sort rows by raw bytes so the sum is
    # bit-identical under any permutation of the input rows.
    rows = np.ascontiguousarray(data.reshape(data.shape[0], -1))
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")
    order = order[np.argsort(segments[order], kind="stable")]
    return _ordered_segment_sum(data, segments, order, num)


def segment_sum(x: Tensor, segments, num_segments: int) -> Tensor:
    """Sum rows of ``x`` into ``num_segments`` buckets.

    Empty buckets come out as zero rows.  Accumulation order inside a bucket
    is canonical (row-byte order), making the result independent of the
    order the rows arrive in, bit for bit.
    """
    seg = np.asarray(segments, dtype=np.int64)
    if seg.ndim != 1 or seg.shape[0] != x.data.shape[0]:
        raise ShapeError(
            f"segment_sum: {seg.shape} segment ids for {x.data.shape[0]} rows"
        )
    if seg.size and (seg.min() < 0 or seg.max() >= num_segments):
        raise IndexError(
            f"segment id out of range [0, {num_segments}): "
            f"[{seg.min()}, {seg.max()}]"
        )
    out = Tensor(_segment_reduce(x.data, seg, num_segments), x.requires_grad)

    def backward_fn():
        _accumulate(x, out.grad[seg])

    return _record("segment_sum", out, backward_fn)


def swish(x: Tensor) -> Tensor:
    """x * sigmoid(x), the activation used throughout the model.

    The sigmoid is computed once as 1 / (1 + exp(-x)) and kept for
    backward.  Below x of about -709, exp overflows to inf, which yields
    the correct limit 0, so that overflow is not reported.
    """
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor(x.data * s, x.requires_grad)

    def backward_fn():
        # d/dx x s(x) = s + x s (1 - s) = s + out (1 - s)
        d = 1.0 - s
        d *= out.data
        d += s
        d *= out.grad
        _accumulate(x, d)

    return _record("swish", out, backward_fn)


def sum_all(x: Tensor) -> Tensor:
    """Reduce every element to one scalar by summation."""
    out = Tensor(x.data.sum(), x.requires_grad)

    def backward_fn():
        _accumulate(x, np.full(x.data.shape, out.grad))

    return _record("sum_all", out, backward_fn)


def abs_val(x: Tensor) -> Tensor:
    """Elementwise absolute value; subgradient 0 at exactly 0."""
    out = Tensor(np.abs(x.data), x.requires_grad)

    def backward_fn():
        _accumulate(x, out.grad * np.sign(x.data))

    return _record("abs_val", out, backward_fn)
