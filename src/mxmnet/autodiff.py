"""Reverse-mode automatic differentiation over dense float64 tensors.

Every operation records one step onto the active :class:`Tape`.  Steps are
appended in execution order, which is already a valid topological order, so
:func:`backward` simply walks the recorded list in reverse and applies each
step's gradient rule, starting from a scalar output and the gradient the
caller gives for it (a loss computed in plain floats stays off the tape).
A fresh tape is built per forward pass; graph shape may change freely
between passes.

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
  input gradient, ``swish_gate`` its pre-activation and the basis and
  weight it reads; ``add``, ``gather``, ``segment_sum`` and ``sum_all``
  read no array.  So once the caller drops an intermediate tensor, numpy
  frees every array no rule reads during forward;
* ``backward`` takes each step's output gradient out of its slot before
  the step's rule runs, so at any moment it holds only the gradients of
  tensors whose producing step is still to come; leaf gradients stay.  A
  first gradient is adopted without a copy, so rules hand over fresh
  arrays or the gradient they were passed; ``add`` copies it only when
  both operands need it;
* ``matmul`` takes an optional bias, so a dense layer is one step, and may
  read a row block of its right operand, so a layer on concatenated
  features can run per part;
* swish folds into the step that consumes it: ``matmul(x, w,
  swish_a=True)`` multiplies ``swish(x)``, and ``swish_gate(x, basis, w)``
  is ``swish(x) * (basis @ w)``.  Each keeps only the pre-activation
  ``x`` where the unfused steps keep the sigmoid, the activation and, for
  the gate, the gate itself.  Backward recomputes them with the code the
  forward ran, so values and gradients have the unfused steps' bytes.  The
  model keeps a plain ``swish`` where its output feeds a gather, an add or
  a product with another activation;
* ``gather`` and ``segment_sum`` are exact transposes: ``gather``'s
  backward and ``segment_sum``'s forward are one scatter-sum, which adds
  each bucket's rows in input order (deterministic for a given input, not
  under a permutation of the rows);
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
    "mul",
    "matmul",
    "gather",
    "segment_sum",
    "swish",
    "swish_gate",
    "sum_all",
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


def backward(output: Tensor, tape: Tape, grad: float = 1.0):
    """Accumulate ``grad`` * d(output)/d(leaf) into ``grad`` of every
    tracked leaf.

    ``output`` must be a scalar recorded on ``tape``; ``grad`` is the
    gradient of whatever the caller computes from it, such as a loss, with
    respect to ``output``.  Leaf grad buffers are not cleared first, so
    backward passes over separate tapes that share parameters add up
    (gradient accumulation over a batch), and a second pass over one tape
    adds the same leaf gradients again.

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
    seed.grad += grad
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


def matmul(
    a: Tensor,
    b: Tensor,
    bias: Tensor | None = None,
    rows: tuple[int, int] | None = None,
    swish_a: bool = False,
) -> Tensor:
    """Matrix product of a (m, k) tensor with a (k, n) tensor.

    An optional length-n ``bias`` is added to every row of the product, so
    a dense layer records one step.  With ``rows=(lo, hi)`` the right
    operand is the row block ``b[lo:hi]``, so ``k`` must be ``hi - lo``; the
    weight gradient lands in those rows of ``b.grad`` and the other rows
    receive zero.  With ``swish_a`` the left operand is a pre-activation:
    the step multiplies ``swish(a)``, drops it, and recomputes it in
    backward, with the bytes of ``matmul(swish(a), b, ...)``.
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
    product = (_sigmoid_swish(a.data)[1] if swish_a else a.data) @ block
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
    # The weight gradient reads the left operand; with swish_a the input
    # gradient reads it too, to recompute the activation.
    a_data = a.data if sb is not None or (swish_a and sa is not None) else None
    b_block = block if sa is not None else None
    b_shape = b.data.shape
    out = Tensor(product, _require_grad(*operands))

    def backward_fn(g):
        s, left = _sigmoid_swish(a_data) if swish_a else (None, a_data)
        if sa is not None:
            ga = g @ b_block.T
            _accumulate(sa, _swish_grad(ga, s, left) if swish_a else ga)
        if sb is not None:
            gb = left.T @ g
            if rows is None:
                _accumulate(sb, gb)
            else:
                if sb.grad is None:
                    sb.grad = np.zeros(b_shape)
                sb.grad[lo:hi] += gb
        if s_bias is not None:
            _accumulate(s_bias, g.sum(axis=0))

    return _record("matmul", out, backward_fn)


def _index(op, index, num, rows=None):
    """``index`` as a 1-d int64 array of ids in ``[0, num)``, of length
    ``rows`` when given."""
    idx = np.asarray(index, dtype=np.int64)
    if idx.ndim != 1 or (rows is not None and idx.shape[0] != rows):
        want = "1-d" if rows is None else f"1-d of length {rows}"
        raise ShapeError(f"{op}: index must be {want}, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= num):
        raise IndexError(
            f"{op}: index out of range [0, {num}): [{idx.min()}, {idx.max()}]"
        )
    return idx


def _scatter_sum(data, index, num):
    """Sum rows of ``data`` into ``num`` buckets by ``index``.

    Each bucket adds its rows in input order; empty buckets come out as
    zero rows.  An ascending ``index`` is its own stable sort, so it skips
    the sort and the reordered copy of ``data``.  Most of the model's
    ``segment_sum`` calls pass ascending indices; local step 2's reverse
    targets and ``gather``'s backward over edge sources, triple edge ids or
    atomic numbers do not, and sort.
    """
    out = np.zeros((num,) + data.shape[1:], dtype=np.float64)
    if index.size:
        keys, rows = index, data
        if np.any(index[1:] < index[:-1]):
            order = np.argsort(index, kind="stable")
            keys, rows = index[order], data[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        out[keys[starts]] = np.add.reduceat(rows, starts, axis=0)
    return out


def gather(x: Tensor, index) -> Tensor:
    """Select rows of a 2-d tensor; backward is :func:`segment_sum`'s sum."""
    if x.data.ndim != 2:
        raise ShapeError(f"gather needs a 2-d tensor, got shape {x.data.shape}")
    n = x.data.shape[0]
    idx = _index("gather", index, n)
    sx = _slot_of(x)
    out = Tensor(x.data[idx], x.requires_grad)

    def backward_fn(g):
        _accumulate(sx, _scatter_sum(g, idx, n))

    return _record("gather", out, backward_fn)


def segment_sum(x: Tensor, segments, num_segments: int) -> Tensor:
    """Sum rows of ``x`` into ``num_segments`` buckets, the transpose of
    :func:`gather`.

    Empty buckets come out as zero rows.  Each bucket adds its rows in
    input order, so the result is deterministic for a given input, and
    bit-identical to the gradient ``gather(_, segments)`` sends back.
    """
    seg = _index("segment_sum", segments, num_segments, x.data.shape[0])
    sx = _slot_of(x)
    out = Tensor(_scatter_sum(x.data, seg, num_segments), x.requires_grad)

    def backward_fn(g):
        _accumulate(sx, g[seg])

    return _record("segment_sum", out, backward_fn)


def _sigmoid_swish(x: np.ndarray):
    """``(sigmoid(x), swish(x))``, the sigmoid computed as 1 / (1 + exp(-x))
    in one buffer.

    Every rule that recomputes an activation calls this, as its forward
    did, so it gets the forward's bytes.  Below x of about -709, exp
    overflows to inf, which yields the correct limit 0, so that overflow is
    not reported.
    """
    s = np.negative(x, out=np.empty_like(x))
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    return s, x * s


def _swish_grad(g, s, y):
    """The gradient of swish's input, written over ``g``, the gradient of
    its output ``y`` (a fresh array the caller hands over), given its
    sigmoid ``s``."""
    # d/dx x s(x) = s + x s (1 - s) = s + y (1 - s)
    d = 1.0 - s
    d *= y
    d += s
    g *= d
    return g


def swish(x: Tensor) -> Tensor:
    """x * sigmoid(x), the activation used throughout the model.

    The sigmoid and the output are kept for backward; the input is not.
    Where a matmul or a gate consumes the output, ``matmul`` with
    ``swish_a`` and :func:`swish_gate` keep the input alone instead.
    """
    s, y = _sigmoid_swish(x.data)
    sx = _slot_of(x)
    out = Tensor(y, x.requires_grad)

    def backward_fn(g):
        _accumulate(sx, _swish_grad(g, s, y))

    return _record("swish", out, backward_fn)


def swish_gate(x: Tensor, basis: Tensor, w: Tensor) -> Tensor:
    """``swish(x) * (basis @ w)``: messages ``x``, activated and gated
    elementwise by a linear image of a basis.

    The rule keeps ``x`` and reads ``basis`` and ``w``, which the caller
    holds anyway; backward recomputes the activation and the gate, so the
    step keeps one array of the output's shape where ``mul(swish(x),
    matmul(basis, w))`` keeps three (sigmoid, activation and gate), with
    the same bytes.
    """
    if x.data.ndim != 2 or basis.data.ndim != 2 or w.data.ndim != 2:
        raise ShapeError(
            f"swish_gate needs 2-d operands, got {x.data.shape}, "
            f"{basis.data.shape} and {w.data.shape}"
        )
    (m, n), k = x.data.shape, basis.data.shape[1]
    if basis.data.shape[0] != m or w.data.shape != (k, n):
        raise ShapeError(
            f"swish_gate: messages {x.data.shape}, basis {basis.data.shape} "
            f"and weight {w.data.shape} do not fit"
        )
    sx, s_basis, s_w = _slot_of(x), _slot_of(basis), _slot_of(w)
    x_data, basis_data, w_data = x.data, basis.data, w.data
    out = Tensor(
        _sigmoid_swish(x_data)[1] * (basis_data @ w_data),
        _require_grad(x, basis, w),
    )

    def backward_fn(g):
        s, y = _sigmoid_swish(x_data)
        if sx is not None:
            g_y = basis_data @ w_data
            g_y *= g
            _accumulate(sx, _swish_grad(g_y, s, y))
        if s_basis is not None or s_w is not None:
            g_gate = y
            g_gate *= g
            if s_basis is not None:
                _accumulate(s_basis, g_gate @ w_data.T)
            if s_w is not None:
                _accumulate(s_w, basis_data.T @ g_gate)

    return _record("swish_gate", out, backward_fn)


def sum_all(x: Tensor) -> Tensor:
    """Reduce every element to one scalar by summation."""
    shape = x.data.shape
    sx = _slot_of(x)
    out = Tensor(x.data.sum(), x.requires_grad)

    def backward_fn(g):
        _accumulate(sx, np.full(shape, g))

    return _record("sum_all", out, backward_fn)
