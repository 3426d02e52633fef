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
* gradients live in :class:`GradSlot` objects, whose only field is
  ``grad``.  A recorded step gets a fresh slot, which both its output
  tensor and its :class:`TapeOp` point at; a leaf (a parameter or a
  feature tensor) is its own slot.  A slot reaches no step or rule, so an
  output held after its tape is gone keeps nothing else alive;
* neither the tape nor any rule holds a tensor.  A rule captures the
  slots of its operands that need a gradient and the arrays it reads, no
  more: ``swish`` its sigmoid and its output, ``mul`` the other operand
  only for an operand that needs a gradient, ``matmul`` its left operand
  for the weight gradient and the row block of its right operand for the
  input gradient, ``abs_val`` its input; ``add``, ``sub``, ``scale``,
  ``gather``, ``segment_sum`` and ``sum_all`` read no array.  So once the
  caller drops an intermediate tensor, numpy frees every array no rule
  reads during forward;
* ``backward`` takes each step's output gradient out of its slot before
  the step's rule runs, so at any moment it holds only the gradients of
  tensors whose producing step is still to come; leaf gradients stay.  A
  first gradient is adopted without a copy, so rules hand over fresh
  arrays or the gradient they were passed; ``add`` copies it only when
  both operands need it;
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
    "GradSlot",
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


class GradSlot:
    """Holder of one tensor's gradient; references nothing else."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad = None


class Tensor(GradSlot):
    """A dense float64 array plus the slot its gradient goes to.

    ``requires_grad`` marks trainable leaves; derived tensors inherit the
    flag from their inputs.  When a step on a tape produced the tensor,
    ``slot`` is that step's :class:`GradSlot`, which ``backward`` fills and
    empties again once the step's rule has run, and the tensor's own
    ``grad`` stays ``None``.  Otherwise ``slot`` is ``None`` and the tensor
    is its own slot (a leaf): ``grad`` is then the accumulated gradient,
    lazily allocated by ``backward`` and matching ``data`` in shape.  (A
    leaf does not point ``slot`` at itself: that reference cycle would
    leave every untaped intermediate to the cyclic garbage collector.)
    """

    __slots__ = ("data", "requires_grad", "slot")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # keeps 0-d shape intact
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.slot = None

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
    """One recorded step: the slot of its output's gradient and the rule
    ``backward_fn(grad)`` that backpropagates that gradient into the slots
    of the step's operands."""

    __slots__ = ("name", "slot", "backward_fn")

    def __init__(self, name, slot, backward_fn):
        self.name = name
        self.slot = slot
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
        output.slot = GradSlot()
        tape.ops.append(TapeOp(name, output.slot, backward_fn))
    return output


def _slot_of(t: Tensor):
    """The slot a rule sends ``t``'s gradient to, ``None`` if it needs none."""
    if not t.requires_grad:
        return None
    return t if t.slot is None else t.slot


def _accumulate(slot, g: np.ndarray):
    # A first gradient is adopted, so ``g`` must be a fresh float64 array
    # that nothing else holds or will write to.  Products of 0-d operands
    # come back as numpy scalars and are boxed into 0-d arrays.
    if slot is None:
        return
    if slot.grad is None:
        slot.grad = g if isinstance(g, np.ndarray) else np.array(g)
    else:
        slot.grad += g


def backward(output: Tensor, tape: Tape):
    """Accumulate d(output)/d(leaf) into ``grad`` of every tracked leaf.

    ``output`` must be a scalar recorded on ``tape``.  Leaf grad buffers are
    not cleared first, so backward passes over separate tapes that share
    parameters add up (gradient accumulation over a batch), and a second
    pass over one tape adds the same leaf gradients again.

    Each step's output gradient (``output``'s included) is taken out of its
    slot before the step's rule runs: nothing later on the tape reads it,
    and dropping it right away keeps peak memory to the gradients still in
    use.  Only the leaves keep their ``grad``.
    """
    if output.data.shape != ():
        raise ShapeError(
            f"backward needs a scalar output, got shape {output.data.shape}"
        )
    seed = output if output.slot is None else output.slot
    if seed.grad is None:
        seed.grad = np.zeros((), dtype=np.float64)
    seed.grad += 1.0
    for op in reversed(tape.ops):
        slot = op.slot
        g = slot.grad
        if g is not None:
            slot.grad = None
            op.backward_fn(g)


def _require_grad(*tensors) -> bool:
    return any(t.requires_grad for t in tensors)


def _same_shape(name, a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{name}: shapes differ, {a.data.shape} vs {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors with identical shapes."""
    _same_shape("add", a, b)
    sa, sb = _slot_of(a), _slot_of(b)
    out = Tensor(a.data + b.data, _require_grad(a, b))

    def backward_fn(g):
        # The first operand that needs ``g`` adopts it; only a second one
        # gets a copy.
        _accumulate(sa, g)
        _accumulate(sb, g.copy() if sa is not None and sb is not None else g)

    return _record("add", out, backward_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise difference, shapes must match."""
    _same_shape("sub", a, b)
    sa, sb = _slot_of(a), _slot_of(b)
    out = Tensor(a.data - b.data, _require_grad(a, b))

    def backward_fn(g):
        _accumulate(sa, g)
        if sb is not None:
            _accumulate(sb, -g)

    return _record("sub", out, backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product, shapes must match."""
    _same_shape("mul", a, b)
    sa, sb = _slot_of(a), _slot_of(b)
    a_data = a.data if sb is not None else None
    b_data = b.data if sa is not None else None
    out = Tensor(a.data * b.data, _require_grad(a, b))

    def backward_fn(g):
        if sa is not None:
            _accumulate(sa, g * b_data)
        if sb is not None:
            _accumulate(sb, g * a_data)

    return _record("mul", out, backward_fn)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python constant (not differentiated through)."""
    c = float(c)
    sa = _slot_of(a)
    out = Tensor(a.data * c, a.requires_grad)

    def backward_fn(g):
        _accumulate(sa, g * c)

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
    block = b.data[lo:hi]
    product = a.data @ block
    if bias is not None:
        if bias.data.shape != (b.data.shape[1],):
            raise ShapeError(
                f"matmul: bias of shape {bias.data.shape} for a product of "
                f"shape {product.shape}"
            )
        product += bias.data
        operands = (a, b, bias)
    sa, sb = _slot_of(a), _slot_of(b)
    s_bias = None if bias is None else _slot_of(bias)
    a_data = a.data if sb is not None else None
    b_block = block if sa is not None else None
    b_shape = b.data.shape
    out = Tensor(product, _require_grad(*operands))

    def backward_fn(g):
        if sa is not None:
            _accumulate(sa, g @ b_block.T)
        if sb is not None:
            gb = a_data.T @ g
            if rows is None:
                _accumulate(sb, gb)
            else:
                if sb.grad is None:
                    sb.grad = np.zeros(b_shape)
                sb.grad[lo:hi] += gb
        if s_bias is not None:
            _accumulate(s_bias, g.sum(axis=0))

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
    n = x.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(
            f"gather index out of range for {n} rows: [{idx.min()}, {idx.max()}]"
        )
    sx = _slot_of(x)
    out = Tensor(x.data[idx], x.requires_grad)

    def backward_fn(g):
        order = np.argsort(idx, kind="stable")
        _accumulate(sx, _ordered_segment_sum(g, idx, order, n))

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
    sx = _slot_of(x)
    out = Tensor(_segment_reduce(x.data, seg, num_segments), x.requires_grad)

    def backward_fn(g):
        _accumulate(sx, g[seg])

    return _record("segment_sum", out, backward_fn)


def swish(x: Tensor) -> Tensor:
    """x * sigmoid(x), the activation used throughout the model.

    The sigmoid is computed once as 1 / (1 + exp(-x)) and kept for
    backward, with the output; the input is not kept.  Below x of about
    -709, exp overflows to inf, which yields the correct limit 0, so that
    overflow is not reported.
    """
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-x.data))
    y = x.data * s
    sx = _slot_of(x)
    out = Tensor(y, x.requires_grad)

    def backward_fn(g):
        # d/dx x s(x) = s + x s (1 - s) = s + y (1 - s)
        d = 1.0 - s
        d *= y
        d += s
        d *= g
        _accumulate(sx, d)

    return _record("swish", out, backward_fn)


def sum_all(x: Tensor) -> Tensor:
    """Reduce every element to one scalar by summation."""
    shape = x.data.shape
    sx = _slot_of(x)
    out = Tensor(x.data.sum(), x.requires_grad)

    def backward_fn(g):
        _accumulate(sx, np.full(shape, g))

    return _record("sum_all", out, backward_fn)


def abs_val(x: Tensor) -> Tensor:
    """Elementwise absolute value; subgradient 0 at exactly 0."""
    x_data = x.data
    sx = _slot_of(x)
    out = Tensor(np.abs(x_data), x.requires_grad)

    def backward_fn(g):
        _accumulate(sx, g * np.sign(x_data))

    return _record("abs_val", out, backward_fn)
