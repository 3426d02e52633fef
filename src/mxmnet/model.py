"""The two-layer multiplex message-passing model.

One block (repeated ``n_layers`` times) runs, in this order:

1. global-layer message passing: two identical passes over the global
   edges with a residual stack between them;
2. a cross-layer map carrying node state from the global to the local
   layer (a row-wise two-layer MLP whose output replaces the destination
   embeddings);
3. local-layer message passing: a three-step scheme that folds in two-hop
   angles, then one-hop angles (the same triples), then aggregates per node;
4. an output head reading the local state into one scalar per node;
5. the reverse cross-layer map back to the global layer.

The prediction is the sum of the per-node head outputs over every block.
All state flows through :mod:`mxmnet.autodiff` tensors so one backward
call yields exact parameter gradients.

Parameter tensors live in a :class:`ParamStore` under stable slash-path
names, as views of one float64 vector in creation order; checkpoints
serialize that order verbatim.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import operator
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import elements
from .autodiff import (
    Tensor,
    add,
    gather,
    matmul,
    mul,
    segment_sum,
    sum_all,
    swish,
    swish_gate,
)
from .basis import N_RBF, N_SHBF, N_SRBF, GeometricFeatures, featurize
from .data import Molecule
from .graph import MessageCounts, build_multiplex

__all__ = [
    "ModelConfig",
    "ParamStore",
    "MessageTally",
    "init_params",
    "check_params",
    "global_mp",
    "local_mp",
    "cross_layer_map",
    "residual_update",
    "output_head",
    "forward",
    "prepare_inputs",
    "save_checkpoint",
    "load_checkpoint",
]

_CKPT_MAGIC = "MXMCKPT"
_CKPT_VERSION = 1


def _integer(cfg, name: str) -> int:
    """Field ``name`` of ``cfg``, which must be a Python or numpy integer,
    not a bool."""
    value = getattr(cfg, name)
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _real(cfg, name: str):
    """Field ``name`` of ``cfg``, which must be a real number, not a bool."""
    value = getattr(cfg, name)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


@dataclass
class ModelConfig:
    """Architecture and graph-construction settings.

    Basis sizes are the :mod:`mxmnet.basis` constants and the embedding
    table has a row per element up to :data:`mxmnet.elements.MAX_Z`;
    dimensions must be positive and cutoffs finite and positive.
    """

    hidden_dim: int = 128
    n_layers: int = 6
    n_residuals: int = 2
    local_rule: str = "bonds"
    local_cutoff: float = 2.0
    global_cutoff: float = 5.0

    def __post_init__(self):
        for name in ("hidden_dim", "n_layers", "n_residuals"):
            if _integer(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.local_rule not in ("bonds", "cutoff"):
            raise ValueError(f"unknown local rule {self.local_rule!r}")
        for name in ("local_cutoff", "global_cutoff"):
            value = _real(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if self.local_rule == "cutoff" and self.local_cutoff >= self.global_cutoff:
            raise ValueError("local cutoff must be below the global cutoff")


class ParamStore:
    """Named parameter tensors that view consecutive parts of one float64
    vector, ``store.flat``: ``flat`` (zeros when not given), which must hold
    exactly as many values as the (name, shape) pairs of ``layout``.  Names
    are unique, non-empty and hold no whitespace."""

    def __init__(self, layout, flat: np.ndarray | None = None):
        self._ends = np.cumsum([math.prod(shape) for _, shape in layout], dtype=np.int64)
        n = int(self._ends[-1]) if layout else 0
        if flat is None:
            flat = np.zeros(n)
        if flat.dtype != np.float64 or flat.shape != (n,):
            raise ValueError(
                f"need a float64 vector of {n} values, got {flat.dtype} of shape {flat.shape}"
            )
        self.flat = flat
        self._params: dict[str, Tensor] = {}
        lo = 0
        for (name, shape), hi in zip(layout, self._ends.tolist()):
            if name in self._params:
                raise ValueError(f"duplicate parameter {name!r}")
            if name.split() != [name]:
                raise ValueError(
                    f"parameter name must be non-empty with no whitespace: {name!r}"
                )
            self._params[name] = Tensor(flat[lo:hi].reshape(shape), requires_grad=True)
            lo = hi

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __len__(self) -> int:
        return len(self._params)

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def first_non_finite(self, flat: np.ndarray) -> str | None:
        """The name of the first parameter whose part of ``flat``, a vector
        laid out like ``store.flat``, holds a non-finite value, if any."""
        # A finite sum, which needs no temporary, means every value is finite;
        # only otherwise (or on overflow) is each value tested.
        if math.isfinite(flat.sum()):
            return None
        finite = np.isfinite(flat)
        if not finite.all():
            k = np.searchsorted(self._ends, np.argmin(finite), side="right")
            return self.names()[int(k)]

    def like(self, flat: np.ndarray) -> "ParamStore":
        """A store of the same layout over ``flat``; nothing is copied."""
        return ParamStore([(name, t.data.shape) for name, t in self.items()], flat)

    def point_grads(self, flat: np.ndarray):
        """Make every ``grad`` the view of its part of ``flat``, a vector laid
        out like ``store.flat``, so that ``backward`` adds into it."""
        for (_, t), (_, g) in zip(self.items(), self.like(flat).items()):
            t.grad = g.data


def _mlp_layout(prefix, d_in, d_hidden, d_out):
    return [
        _weight(f"{prefix}/w1", d_in, d_hidden),
        _bias(f"{prefix}/b1", d_in, d_hidden),
        _weight(f"{prefix}/w2", d_hidden, d_out),
        _bias(f"{prefix}/b2", d_hidden, d_out),
    ]


def _weight(name, fan_in, fan_out):
    return name, (fan_in, fan_out), 1.0 / math.sqrt(fan_in)


def _bias(name, fan_in, size):
    return name, (size,), 1.0 / math.sqrt(fan_in)


def _residuals_layout(prefix, dim, n_res):
    layout = []
    for r in range(n_res):
        layout += _mlp_layout(f"{prefix}/res{r}", dim, dim, dim)
    return layout


def _param_layout(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], float]]:
    """Every parameter as (name, shape, init bound), in creation order."""
    f = cfg.hidden_dim
    layout = [("embed/table", (elements.MAX_Z, f), math.sqrt(3.0))]
    cat = 2 * f + N_RBF
    sbf_dim = N_SHBF * N_SRBF
    for t in range(cfg.n_layers):
        p = f"layer{t}"
        for mp in ("mp1", "mp2"):
            layout += _mlp_layout(f"{p}/global/{mp}/mlp", cat, f, f)
            layout.append(_weight(f"{p}/global/{mp}/edge_w", N_RBF, f))
        layout += _residuals_layout(f"{p}/global/fu", f, cfg.n_residuals)
        layout += _mlp_layout(f"{p}/local/mlp_kj", cat, f, f)
        layout.append(_weight(f"{p}/local/edge_w1", N_RBF, f))
        layout += _mlp_layout(f"{p}/local/gate1", sbf_dim, f, f)
        layout += _mlp_layout(f"{p}/local/mlp_ji", cat, f, f)
        layout += _mlp_layout(f"{p}/local/mlp_m", f, f, f)
        layout.append(_weight(f"{p}/local/edge_w2", N_RBF, f))
        layout += _mlp_layout(f"{p}/local/gate2", sbf_dim, f, f)
        layout += _mlp_layout(f"{p}/local/mlp_m2", f, f, f)
        layout.append(_weight(f"{p}/local/edge_w3", N_RBF, f))
        layout += _residuals_layout(f"{p}/local/fu", f, cfg.n_residuals)
        layout += _mlp_layout(f"{p}/cross_gl", f, f, f)
        layout += _mlp_layout(f"{p}/cross_lg", f, f, f)
        layout += _mlp_layout(f"{p}/out", f, f, f)
        layout.append(_weight(f"{p}/out/w3", f, 1))
    return layout


def init_params(
    cfg: ModelConfig, seed: int = 0, out: np.ndarray | None = None
) -> ParamStore:
    """Fresh parameters: embedding rows uniform in (-sqrt(3), sqrt(3)),
    weights and biases uniform in (-1/sqrt(fan_in), 1/sqrt(fan_in)).

    Creation order is fixed, so a seed pins every value.  The store is
    built over ``out`` when given (see ``ParamStore``); the values are the
    same either way.
    """
    rng = np.random.default_rng(seed)
    layout = _param_layout(cfg)
    store = ParamStore([(name, shape) for name, shape, _ in layout], out)
    for name, shape, bound in layout:
        store[name].data[...] = rng.uniform(-bound, bound, size=shape)
    return store


def check_params(store: ParamStore, cfg: ModelConfig):
    """Raise ValueError at the first parameter whose name or shape differs
    from the layout ``cfg`` implies, or if the counts differ.

    Graph settings (cutoffs, local rule) leave no trace in the parameters,
    so they cannot be checked here.
    """
    want = [(name, shape) for name, shape, _ in _param_layout(cfg)]
    got = [(name, t.data.shape) for name, t in store.items()]
    for k, ((name, shape), (want_name, want_shape)) in enumerate(zip(got, want)):
        if name != want_name:
            raise ValueError(
                f"parameter {k} is {name!r}, the model config expects {want_name!r}"
            )
        if shape != want_shape:
            raise ValueError(
                f"parameter {name!r} has shape {shape}, the model config "
                f"expects {want_shape}"
            )
    if len(got) != len(want):
        longer = got if len(got) > len(want) else want
        first = longer[min(len(got), len(want))][0]
        raise ValueError(
            f"{len(got)} parameters where the model config expects {len(want)}, "
            f"first unmatched {first!r}"
        )


class MessageTally(MessageCounts):
    """Messages actually materialized during one forward pass.

    Incremented from runtime array row counts, independently of the
    closed-form predictions in :func:`mxmnet.graph.count_messages`.
    """


def _linear(x, params, w_name, b_name):
    return matmul(x, params[w_name], params[b_name])


def _mlp2(x, params, prefix):
    # Two linear layers, swish after each.  This returns the second layer's
    # pre-activation: the caller applies the second swish, folded into the
    # step that consumes it where that step is a matmul or a gate.
    h = _linear(x, params, f"{prefix}/w1", f"{prefix}/b1")
    return matmul(h, params[f"{prefix}/w2"], params[f"{prefix}/b2"], swish_a=True)


def residual_update(h, params, prefix, n_res):
    """Residual stack: n_res times h <- h + W2 swish(W1 h + b1) + b2."""
    for r in range(n_res):
        h = add(h, _mlp2(h, params, f"{prefix}/res{r}"))
    return h


def _edge_mlp2(h, rbf, src, dst, params, prefix):
    # _mlp2 on the edge rows concat([h[src], h[dst], rbf]), returning the
    # second layer's pre-activation as _mlp2 does.  The first layer is split
    # by rows of w1 and its node parts run on the n nodes before the gather,
    # not on the E edges after it.  w1 stays one (2F + N_RBF, F) parameter
    # read in row blocks, so the parameter layout, checkpoint bytes and
    # older checkpoints are unchanged.
    f = h.data.shape[1]
    w1 = params[f"{prefix}/w1"]
    x = add(
        add(
            gather(matmul(h, w1, rows=(0, f)), src),
            gather(matmul(h, w1, rows=(f, 2 * f)), dst),
        ),
        matmul(rbf, w1, params[f"{prefix}/b1"], rows=(2 * f, 2 * f + N_RBF)),
    )
    return matmul(x, params[f"{prefix}/w2"], params[f"{prefix}/b2"], swish_a=True)


def _global_pass(h, rbf, src, dst, n, params, prefix, tally):
    msg = swish_gate(
        _edge_mlp2(h, rbf, src, dst, params, f"{prefix}/mlp"),
        rbf,
        params[f"{prefix}/edge_w"],
    )
    if tally is not None:
        tally.global_mp += int(msg.data.shape[0])
    return add(h, segment_sum(msg, dst, n))


def global_mp(h, feats_g, params, prefix, n_res, tally=None):
    """Two message passes over the global edges, residual stack between.

    ``feats_g`` is a (rbf tensor, src, dst, n_nodes) tuple.  Each pass owns
    its parameters; messages are gated elementwise by a linear image of the
    edge embedding and summed into the receiving node.
    """
    rbf, src, dst, n = feats_g
    h = _global_pass(h, rbf, src, dst, n, params, f"{prefix}/mp1", tally)
    h = residual_update(h, params, f"{prefix}/fu", n_res)
    return _global_pass(h, rbf, src, dst, n, params, f"{prefix}/mp2", tally)


def _angle_step(mlp, bases, feats, target, params, prefix, names):
    # One angle step of local_mp, with the (part, edge gate, angle gate,
    # plain) parameters ``names``; ``mlp(name)`` is an MLP's pre-activation
    # per edge.  Triple t sends the part message of edge two_hop_edge[t],
    # gated by the edge and angle embeddings, into edge target[t], on top
    # of its plain message.  Returns the result and the messages sent.
    rbf, sbf = bases
    part, edge_w, gate, plain = (f"{prefix}/{name}" for name in names)
    part = swish_gate(mlp(part), rbf, params[edge_w])
    tri = mul(gather(part, feats.two_hop_edge), swish(_mlp2(sbf, params, gate)))
    edge_msg = swish(mlp(plain))
    e_l = int(edge_msg.data.shape[0])
    return add(edge_msg, segment_sum(tri, target, e_l)), int(tri.data.shape[0]) + e_l


def local_mp(h, bases, feats, params, prefix, n_res, tally=None):
    """Three-step local update folding in both angle families.

    ``bases`` is the (rbf_local, sbf_two) pair of tensors that ``forward``
    evaluates once per call; ``feats`` gives the index arrays.  Step 1
    sends, for every two-hop triple (k, j, i), the edge message of (k -> j)
    gated by the angle embedding at j, and adds the plain edge message of
    (j -> i).  Step 2 repeats the pattern with one-hop triples (j', i, j)
    gating projected step-1 messages: each is two-hop triple (j' -> i,
    i -> j), so it runs on the same rows and sends into each reverse
    target.  Step 3 gates once more with the edge embedding and aggregates
    into the receiving nodes; the result passes through the residual stack
    with no skip around it.
    """
    rbf, src, dst, n = bases[0], feats.local_src, feats.local_dst, feats.n_nodes
    m1, sent1 = _angle_step(
        lambda name: _edge_mlp2(h, rbf, src, dst, params, name), bases, feats,
        feats.two_hop_target, params, prefix, ("mlp_kj", "edge_w1", "gate1", "mlp_ji"),
    )
    m2, sent2 = _angle_step(
        lambda name: _mlp2(m1, params, name), bases, feats,
        feats.reverse_target, params, prefix, ("mlp_m", "edge_w2", "gate2", "mlp_m2"),
    )
    final = mul(m2, matmul(rbf, params[f"{prefix}/edge_w3"]))
    if tally is not None:
        tally.local_step1 += sent1
        tally.local_step2 += sent2
        tally.local_step3 += int(final.data.shape[0])
    agg = segment_sum(final, dst, n)
    return residual_update(agg, params, f"{prefix}/fu", n_res)


def cross_layer_map(h, params, prefix, tally=None):
    """Row-wise two-layer MLP; the result replaces the destination layer."""
    out = swish(_mlp2(h, params, prefix))
    if tally is not None:
        tally.cross_layer += int(out.data.shape[0])
    return out


def output_head(h, params, prefix):
    """Per-node scalar: two (linear + swish) layers then a biasless F -> 1."""
    return matmul(_mlp2(h, params, prefix), params[f"{prefix}/w3"], swish_a=True)


def prepare_inputs(m: Molecule, cfg: ModelConfig):
    """Graph plus geometric features for one molecule.

    The features hold pair lengths and angles, not basis values;
    ``forward`` evaluates the bases from them on each call.
    """
    g = build_multiplex(
        m,
        local_rule=cfg.local_rule,
        local_cutoff=cfg.local_cutoff,
        global_cutoff=cfg.global_cutoff,
    )
    feats = featurize(m, g, cfg.local_cutoff, cfg.global_cutoff)
    return g, feats


def forward(
    m: Molecule,
    params: ParamStore,
    cfg: ModelConfig,
    feats: GeometricFeatures | None = None,
    tally: MessageTally | None = None,
) -> Tensor:
    """Predict one scalar for one molecule.

    Evaluates each basis matrix once, then runs every block and sums the
    per-node head outputs across blocks.  Record onto a
    :class:`mxmnet.autodiff.Tape` to differentiate.
    """
    if feats is None:
        _, feats = prepare_inputs(m, cfg)
    z = m.atomic_numbers
    if z.min() < 1 or z.max() > elements.MAX_Z:
        bad = int(z[(z < 1) | (z > elements.MAX_Z)][0])
        raise ValueError(f"atomic number {bad} outside the embedding range")

    feats_g = (Tensor(feats.rbf_global), feats.global_src, feats.global_dst, feats.n_nodes)
    bases_l = (Tensor(feats.rbf_local), Tensor(feats.sbf_two))

    h_g = gather(params["embed/table"], z - 1)
    contributions = []
    for t in range(cfg.n_layers):
        p = f"layer{t}"
        h_g = global_mp(h_g, feats_g, params, f"{p}/global", cfg.n_residuals, tally)
        h_l = cross_layer_map(h_g, params, f"{p}/cross_gl", tally)
        h_l = local_mp(h_l, bases_l, feats, params, f"{p}/local", cfg.n_residuals, tally)
        contributions.append(output_head(h_l, params, f"{p}/out"))
        h_g = cross_layer_map(h_l, params, f"{p}/cross_lg", tally)
    total = contributions[0]
    for c in contributions[1:]:
        total = add(total, c)
    return sum_all(total)


def save_checkpoint(store: ParamStore, path):
    """Write parameters: versioned text header, then per-parameter records
    of a name/shape line followed by raw little-endian float64 bytes.

    The bytes go to a temporary file beside ``path``, reach the disk, and
    then replace ``path`` in one rename, so a save that fails or is
    interrupted leaves the previous file as it was.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(f"{_CKPT_MAGIC} {_CKPT_VERSION}\n".encode())
            fh.write(f"{len(store)}\n".encode())
            for name, t in store.items():
                dims = " ".join(str(d) for d in t.data.shape)
                head = f"{name} {t.data.ndim}" + (f" {dims}" if dims else "") + "\n"
                fh.write(head.encode())
                fh.write(np.ascontiguousarray(t.data, dtype="<f8"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path, out: np.ndarray | None = None) -> ParamStore:
    """Read a checkpoint back; byte-exact inverse of :func:`save_checkpoint`.

    The store is built over ``out`` when given (see ``ParamStore``), and
    each record is read straight into its parameter.  Raises
    ``ValueError`` naming the file for a malformed or truncated file, a
    header line that is not UTF-8, or an ``out`` that does not fit it, and
    the parameter or record too where one is at fault (a negative
    dimension, fields after the dimensions, more data than bytes left, a
    repeated name, a non-finite value), or for bytes after the last
    record.  Every record is checked before any data is read.
    """

    def integer(raw: str, what: str) -> int:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"{path}: {what} is not an integer: {raw!r}") from None

    def line(fh, what: str) -> str:
        try:
            return fh.readline().decode()
        except UnicodeDecodeError:
            raise ValueError(f"{path}: {what} is not UTF-8 text") from None

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = line(fh, "the first line").split()
        if len(magic) != 2 or magic[0] != _CKPT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        if integer(magic[1], "the version") != _CKPT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {magic[1]}")
        count = integer(line(fh, "the record count").strip(), "the record count")
        if count < 0:
            raise ValueError(f"{path}: negative record count {count}")
        layout = []
        for k in range(1, count + 1):
            head = line(fh, f"the header line of record {k}").split()
            if not head:
                raise ValueError(f"{path}: truncated checkpoint")
            name = head[0]
            # A name alone matches no dimension count: malformed.
            ndim = integer(head[1], f"the dimension count of {name!r}") if head[1:] else -1
            if ndim < 0 or len(head) != 2 + ndim:
                raise ValueError(f"{path}: malformed record for {name!r}")
            shape = tuple(integer(x, f"a dimension of {name!r}") for x in head[2:])
            if min(shape, default=0) < 0:
                raise ValueError(f"{path}: negative dimension in the shape {shape} of {name!r}")
            need, left = 8 * math.prod(shape), size - fh.tell()
            if need > left:
                raise ValueError(f"{path}: the data of {name!r} needs {need} bytes, {left} are left")
            layout.append((name, shape, fh.tell()))
            fh.seek(need, os.SEEK_CUR)
        if fh.tell() != size:
            raise ValueError(f"{path}: unexpected bytes after the last record")
        try:
            store = ParamStore([(name, shape) for name, shape, _ in layout], out)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
        for (name, _, start), (_, t) in zip(layout, store.items()):
            fh.seek(start)
            if fh.readinto(t.data) != t.data.nbytes:
                raise ValueError(f"{path}: truncated data of {name!r}")
            if sys.byteorder == "big":
                t.data.byteswap(inplace=True)
    bad = store.first_non_finite(store.flat)
    if bad is not None:
        raise ValueError(f"{path}: non-finite value in parameter {bad!r}")
    return store
