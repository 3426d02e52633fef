"""Two-layer multiplex graph construction and angle bookkeeping.

The local layer holds short-range structure (chemical bonds, or a small
distance cutoff); the global layer holds every pair within a larger cutoff.
Both layers share the node set.  Edges are stored directed, as (source j,
destination i) rows sorted by (i, j); an undirected neighbor pair always
contributes both directions.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

import numpy as np

from . import elements
from .data import Molecule

__all__ = [
    "MultiplexGraph",
    "AngleTriples",
    "MessageCounts",
    "neighbor_search",
    "build_multiplex",
    "enumerate_angle_triples",
    "one_hop_rows",
    "count_angles",
    "count_messages",
    "dump_graph",
]

# Slack added to the sum of covalent radii when falling back to the
# distance rule for bonds, in Angstrom.
BOND_SLACK = 0.3

# Rows per block of the pair scan: each block holds a (rows, n, 3)
# difference array, so memory grows linearly in the atom count.
_BLOCK_ROWS = 512


def _close_pairs(pts: np.ndarray, *rules) -> list[np.ndarray]:
    """Directed pairs (j, i) picked by each rule, one list per rule, sorted by (i, j).

    Scans exact squared distances ``_BLOCK_ROWS`` rows at a time, once for
    all rules: for rows lo.. of a block, ``rule(lo, d2)`` gets their
    (rows, n) squared distances to every point and returns a mask of the
    pairs to keep.  Blocks ascend and ``np.nonzero`` lists each row's
    columns in order, so the pairs come out sorted.  Two points at the
    same position raise ``ValueError``.
    """
    parts = [[np.empty((0, 2), dtype=np.int64)] for _ in rules]  # so no points give (0, 2)
    for lo in range(0, pts.shape[0], _BLOCK_ROWS):
        diff = pts[lo : lo + _BLOCK_ROWS, None, :] - pts[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        del diff  # before the rules make their own block-sized arrays
        same = d2 == 0.0
        if np.count_nonzero(same) > same.shape[0]:  # more zeros than the diagonal
            # The block's rows are atoms lo.., so its diagonal starts at column lo.
            np.fill_diagonal(same[:, lo:], False)
            i, j = np.argwhere(same)[0]
            raise ValueError(f"atoms {i + lo} and {j} are at the same position")
        for rule, part in zip(rules, parts):
            i, j = np.nonzero(rule(lo, d2))
            part.append(np.stack([j, i + lo], axis=1))
    return [np.concatenate(part) for part in parts]


def _within(cutoff: float):
    """Pair rule of :func:`_close_pairs`: 0 < |r_j - r_i| < cutoff."""
    cutoff = float(cutoff)
    if not 0 < cutoff < np.inf:
        raise ValueError(f"cutoff must be positive and finite, got {cutoff}")
    c2 = cutoff * cutoff
    return lambda lo, d2: (d2 > 0.0) & (d2 < c2)


def neighbor_search(coords, cutoff: float) -> np.ndarray:
    """Directed pairs (j, i) with 0 < |r_j - r_i| < cutoff, both directions.

    An exact scan of every pair, sorted by (i, j).  The squared distances
    are exactly symmetric, so the pair set is too.  Two points at the same
    position raise ``ValueError``.
    """
    pts = np.asarray(coords, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"coordinates must be (n, 3), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("coordinates must be finite")
    return _close_pairs(pts, _within(cutoff))[0]


# Covalent radius by atomic number; row 0 is unused.
_RADII = np.array(
    [np.nan] + [elements.covalent_radius(z) for z in range(1, elements.MAX_Z + 1)]
)


def _covalent_rule(m: Molecule):
    """Pair rule of :func:`_close_pairs` for the covalent-radius bonds of ``m``.

    Atoms i != j bond when |r_i - r_j| < r_cov(i) + r_cov(j) + BOND_SLACK;
    ``d2 > 0`` drops the diagonal, as the scan rejects any other zero.
    """
    z = m.atomic_numbers
    if z.max() > elements.MAX_Z:
        # The table lookup would raise IndexError; this raises the
        # ValueError that names the element.
        elements.covalent_radius(int(z.max()))
    radii = _RADII[z]
    return lambda lo, d2: (d2 > 0.0) & (
        np.sqrt(d2) < radii[lo : lo + d2.shape[0], None] + radii[None, :] + BOND_SLACK
    )


@dataclass
class MultiplexGraph:
    """Shared node set with a local and a global directed edge layer.

    Construction checks both layers and raises ``ValueError`` for an invalid
    one; ``<layer>_reverse`` holds the row of each edge's reverse.
    """

    n_nodes: int
    local_edges: np.ndarray  # (E_l, 2) rows (j, i)
    global_edges: np.ndarray  # (E_g, 2) rows (j, i)
    local_reverse: np.ndarray = field(init=False)
    global_reverse: np.ndarray = field(init=False)

    def __post_init__(self):
        for layer in ("local", "global"):
            name = f"{layer}_edges"
            e = getattr(self, name)
            if e.ndim != 2 or e.shape[1] != 2:
                raise ValueError(f"{name} must be (e, 2), got {e.shape}")
            if e.size and (e.min() < 0 or e.max() >= self.n_nodes):
                raise ValueError(f"{name} references nodes outside range")
            if (e[:, 0] == e[:, 1]).any():
                raise ValueError(f"{name} contains a self-edge")
            key = _edge_keys(e, self.n_nodes)
            if (key[1:] <= key[:-1]).any():
                raise ValueError(f"{name} is not sorted by (i, j) or repeats an edge")
            # The keys are unique and sorted: the layer is symmetric exactly
            # when each edge's flipped key is found, at its reverse's row.
            flipped = _edge_keys(e[:, ::-1], self.n_nodes)
            reverse = np.searchsorted(key, flipped)
            if (key.take(reverse, mode="clip") != flipped).any():
                raise ValueError(f"{name} is not symmetric as a directed set")
            setattr(self, f"{layer}_reverse", reverse)


def build_multiplex(
    m: Molecule,
    local_rule: str = "bonds",
    local_cutoff: float = 2.0,
    global_cutoff: float = 5.0,
) -> MultiplexGraph:
    """Construct both layers for one molecule.

    ``local_rule`` is "bonds" (explicit bonds or the covalent fallback) or
    "cutoff" (distance rule with ``local_cutoff``).  The global layer keeps
    every pair inside ``global_cutoff``, local pairs included.
    """
    if local_rule == "bonds":
        local_rules = [_covalent_rule(m)] if m.bonds is None else []
    elif local_rule == "cutoff":
        if not 0 < local_cutoff < global_cutoff:
            raise ValueError(
                f"need 0 < local cutoff < global cutoff, got "
                f"{local_cutoff} and {global_cutoff}"
            )
        local_rules = [_within(local_cutoff)]
    else:
        raise ValueError(f"unknown local rule {local_rule!r}")
    n = m.n_atoms
    glob, *local = _close_pairs(m.coords, _within(global_cutoff), *local_rules)
    if local:
        local = local[0]
    else:  # explicit bonds
        a = np.asarray(m.bonds, dtype=np.int64).reshape(-1, 2)
        local = np.concatenate([a, a[:, ::-1]])
        local = local[np.argsort(_edge_keys(local, n))]
    return MultiplexGraph(n, local, glob)


def _edge_keys(edges: np.ndarray, n_nodes: int) -> np.ndarray:
    """One integer per directed edge, ascending exactly when rows ascend in (i, j)."""
    return edges[:, 1] * n_nodes + edges[:, 0]


@dataclass
class AngleTriples:
    """Angle index lists over the local layer.

    two_hop rows (k, j, i): k in N(j) \\ {i} for each directed edge (j, i);
    the angle sits at j between rays j->k and j->i.  They are the one-hop
    triples too: one-hop row (jp, i, j), jp in N(i) \\ {j}, with its angle
    at i, is two-hop row (jp -> i, i -> j), whose reverse target is the
    one-hop target (j -> i).  ``one_hop`` lists them in one-hop order.
    """

    two_hop: np.ndarray  # (t2, 3)
    # Row e of each array below points into the directed local edge list.
    two_hop_edge: np.ndarray  # edge id of (k -> j)
    two_hop_target: np.ndarray  # edge id of (j -> i)
    reverse_target: np.ndarray  # edge id of (i -> j)

    @property
    def one_hop(self) -> np.ndarray:
        """(t1, 3) rows (jp, i, j), in the order of :func:`one_hop_rows`."""
        return self.two_hop[one_hop_rows(self)]


def one_hop_rows(triples) -> np.ndarray:
    """Rows of ``triples`` (an :class:`AngleTriples` or features) in one-hop
    order: targets (j -> i) in edge order, then jp ascending."""
    return np.argsort(triples.reverse_target, kind="stable")


def _edges_into(ptr: np.ndarray, nodes: np.ndarray):
    """Every edge into each of ``nodes``, grouped by position in ``nodes``.

    Returns (owner, rows): rows[k] is an edge id into node nodes[owner[k]];
    within a group the rows, and so their sources, ascend.
    """
    start = ptr[nodes]
    counts = ptr[nodes + 1] - start
    owner = np.repeat(np.arange(nodes.size), counts)
    first = np.cumsum(counts) - counts
    rows = np.arange(owner.size) - first[owner] + start[owner]
    return owner, rows


def enumerate_angle_triples(g: MultiplexGraph) -> AngleTriples:
    """List every angle triple of the local layer, as two-hop rows.

    Triples are emitted in local edge order with neighbors ascending.
    Relies on the edges being sorted by (i, j), as :class:`MultiplexGraph`
    checks: the edges into node v are then rows ptr[v]:ptr[v + 1], sources
    ascending.
    """
    edges = np.asarray(g.local_edges, dtype=np.int64)
    src, dst = edges[:, 0], edges[:, 1]
    ptr = np.searchsorted(dst, np.arange(g.n_nodes + 1))
    # two-hop: for edge e = (j -> i), each edge (k -> j) with k != i
    t2t, t2e = _edges_into(ptr, src)
    keep = src[t2e] != dst[t2t]
    t2t, t2e = t2t[keep], t2e[keep]
    two_hop = np.stack([src[t2e], src[t2t], dst[t2t]], axis=1)
    return AngleTriples(
        two_hop=two_hop,
        two_hop_edge=t2e,
        two_hop_target=t2t,
        reverse_target=g.local_reverse[t2t],
    )


def count_angles(n_nodes: int, undirected_edges) -> int:
    """Angles definable on a simple graph: sum over nodes of C(deg, 2).

    Each unordered pair of distinct edges sharing a node spans one angle.
    """
    deg = np.zeros(n_nodes, dtype=np.int64)
    seen = set()
    for a, b in undirected_edges:
        a, b = int(a), int(b)
        if a == b:
            raise ValueError(f"self-edge on node {a}")
        pair = (min(a, b), max(a, b))
        if pair in seen:
            continue
        seen.add(pair)
        deg[a] += 1
        deg[b] += 1
    return int((deg * (deg - 1) // 2).sum())


@dataclass
class MessageCounts:
    """Exact per-pass message tallies for one block of the model.

    global_mp counts both passes (2 |E_g|); the local steps count their
    angle-gated messages plus the per-edge ones; cross_layer counts the two
    per-node layer maps (2 N).
    """

    global_mp: int = 0
    local_step1: int = 0
    local_step2: int = 0
    local_step3: int = 0
    cross_layer: int = 0

    @property
    def total(self) -> int:
        return sum(self.as_tuple())

    def as_tuple(self):
        return astuple(self)


def count_messages(g: MultiplexGraph, triples: AngleTriples | None = None) -> MessageCounts:
    """Closed-form message tallies for one block on this graph.

    ``triples`` may be the graph's :class:`AngleTriples` or anything else
    with their ``two_hop_edge`` rows, such as the molecule's
    ``basis.GeometricFeatures``; without it they are enumerated.  Both
    angle steps send one message per triple.
    """
    if triples is None:
        triples = enumerate_angle_triples(g)
    e_l = int(g.local_edges.shape[0])
    e_g = int(g.global_edges.shape[0])
    return MessageCounts(
        global_mp=2 * e_g,
        local_step1=int(triples.two_hop_edge.shape[0]) + e_l,
        local_step2=int(triples.two_hop_edge.shape[0]) + e_l,
        local_step3=e_l,
        cross_layer=2 * g.n_nodes,
    )


def dump_graph(g: MultiplexGraph) -> str:
    """Plain-text edge dump: one "L j i" or "G j i" line per directed edge."""
    lines = [f"L {j} {i}" for j, i in g.local_edges]
    lines += [f"G {j} {i}" for j, i in g.global_edges]
    return "\n".join(lines) + ("\n" if lines else "")
