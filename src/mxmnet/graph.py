"""Two-layer multiplex graph construction and angle bookkeeping.

The local layer holds short-range structure (chemical bonds, or a small
distance cutoff); the global layer holds every pair within a larger cutoff.
Both layers share the node set.  Edges are stored directed, as (source j,
destination i) rows sorted by (i, j); an undirected neighbor pair always
contributes both directions.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "reverse_edges",
    "one_hop_rows",
    "count_angles",
    "count_messages",
    "dump_graph",
]

# Slack added to the sum of covalent radii when falling back to the
# distance rule for bonds, in Angstrom.
BOND_SLACK = 0.3

# Above this many points neighbor_search switches to a uniform grid.
_BRUTE_LIMIT = 512


def _sorted_edges(src, dst):
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    order = np.lexsort((src, dst))
    return np.stack([src[order], dst[order]], axis=1)


def neighbor_search(coords, cutoff: float) -> np.ndarray:
    """Directed pairs (j, i) with 0 < |r_j - r_i| < cutoff, both directions.

    Exact brute force up to 512 points, a uniform cell grid beyond; both
    paths return the identical (i, j)-sorted array.
    """
    pts = np.asarray(coords, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"coordinates must be (n, 3), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("coordinates must be finite")
    cutoff = float(cutoff)
    if cutoff <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    n = pts.shape[0]
    if n <= _BRUTE_LIMIT:
        diff = pts[:, None, :] - pts[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        mask = (d2 > 0.0) & (d2 < cutoff * cutoff)
        # d2 is exactly symmetric, and nonzero lists (i, j) in row-major
        # order, which is the (i, j) sort already.
        i, j = np.nonzero(mask)
        return np.stack([j, i], axis=1)
    return _cell_list_search(pts, cutoff)


def _cell_list_search(pts: np.ndarray, cutoff: float) -> np.ndarray:
    lo = pts.min(axis=0)
    cell = np.floor((pts - lo) / cutoff).astype(np.int64)
    buckets: dict[tuple, list[int]] = {}
    for idx, c in enumerate(map(tuple, cell)):
        buckets.setdefault(c, []).append(idx)
    for c in buckets:
        buckets[c] = np.asarray(buckets[c], dtype=np.int64)
    offsets = [
        (dx, dy, dz)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
    ]
    src_parts, dst_parts = [], []
    c2 = cutoff * cutoff
    for c, members in buckets.items():
        cand = [
            buckets[(c[0] + dx, c[1] + dy, c[2] + dz)]
            for dx, dy, dz in offsets
            if (c[0] + dx, c[1] + dy, c[2] + dz) in buckets
        ]
        cand = np.concatenate(cand)
        diff = pts[members][:, None, :] - pts[cand][None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        ii, jj = np.nonzero((d2 > 0.0) & (d2 < c2))
        dst_parts.append(members[ii])
        src_parts.append(cand[jj])
    if not src_parts:
        return np.empty((0, 2), dtype=np.int64)
    return _sorted_edges(np.concatenate(src_parts), np.concatenate(dst_parts))


# Covalent radius by atomic number; row 0 is unused.
_RADII = np.array(
    [np.nan] + [elements.covalent_radius(z) for z in range(1, elements.MAX_Z + 1)]
)


def _covalent_mask(m: Molecule) -> np.ndarray:
    """Symmetric (n, n) mask of the covalent-radius rule, false on the diagonal.

    Atoms i, j bond when |r_i - r_j| < r_cov(i) + r_cov(j) + BOND_SLACK.
    """
    z = m.atomic_numbers
    if z.max() > elements.MAX_Z:
        # The table lookup would raise IndexError; this raises the
        # ValueError that names the element.
        elements.covalent_radius(int(z.max()))
    radii = _RADII[z]
    diff = m.coords[:, None, :] - m.coords[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    mask = dist < radii[:, None] + radii[None, :] + BOND_SLACK
    np.fill_diagonal(mask, False)
    return mask


@dataclass
class MultiplexGraph:
    """Shared node set with a local and a global directed edge layer.

    ``local_rule`` records how the local layer was built ("bonds" or
    "cutoff:<value>"); ``global_cutoff`` is the global layer's radius.
    """

    n_nodes: int
    local_edges: np.ndarray  # (E_l, 2) rows (j, i)
    global_edges: np.ndarray  # (E_g, 2) rows (j, i)
    local_rule: str
    global_cutoff: float

    def validate(self):
        for name in ("local_edges", "global_edges"):
            e = getattr(self, name)
            if e.ndim != 2 or e.shape[1] != 2:
                raise ValueError(f"{name} must be (e, 2), got {e.shape}")
            if e.size:
                if e.min() < 0 or e.max() >= self.n_nodes:
                    raise ValueError(f"{name} references nodes outside range")
                if np.any(e[:, 0] == e[:, 1]):
                    raise ValueError(f"{name} contains a self-edge")
                key = _edge_keys(e, self.n_nodes)
                if np.any(np.diff(key) <= 0):
                    raise ValueError(f"{name} is not sorted by (i, j) or repeats an edge")
                reverse = np.sort(_edge_keys(e[:, ::-1], self.n_nodes))
                if not np.array_equal(reverse, key):
                    raise ValueError(f"{name} is not symmetric as a directed set")
        return self


def build_multiplex(
    m: Molecule,
    local_rule: str = "bonds",
    local_cutoff: float = 2.0,
    global_cutoff: float = 5.0,
    global_excludes_local: bool = False,
) -> MultiplexGraph:
    """Construct both layers for one molecule.

    ``local_rule`` is "bonds" (explicit bonds or the covalent fallback) or
    "cutoff" (distance rule with ``local_cutoff``).  The global layer keeps
    every pair inside ``global_cutoff``; with ``global_excludes_local`` the
    pairs already in the local layer are dropped from it, which makes the
    union of layers the plain cutoff graph instead of a multiplex over it.
    """
    if local_rule == "bonds":
        if m.bonds is None:
            # The mask is symmetric, so its nonzeros come sorted by (i, j).
            i, j = np.nonzero(_covalent_mask(m))
            local = np.stack([j, i], axis=1)
        elif m.bonds:
            a = np.asarray(m.bonds, dtype=np.int64)
            local = _sorted_edges(
                np.concatenate([a[:, 0], a[:, 1]]),
                np.concatenate([a[:, 1], a[:, 0]]),
            )
        else:
            local = np.empty((0, 2), dtype=np.int64)
        rule = "bonds"
    elif local_rule == "cutoff":
        if not 0 < local_cutoff < global_cutoff:
            raise ValueError(
                f"need 0 < local cutoff < global cutoff, got "
                f"{local_cutoff} and {global_cutoff}"
            )
        local = neighbor_search(m.coords, local_cutoff)
        rule = f"cutoff:{local_cutoff:g}"
    else:
        raise ValueError(f"unknown local rule {local_rule!r}")
    glob = neighbor_search(m.coords, global_cutoff)
    if global_excludes_local:
        n = m.n_atoms
        glob = glob[~np.isin(_edge_keys(glob, n), _edge_keys(local, n))]
    g = MultiplexGraph(
        n_nodes=m.n_atoms,
        local_edges=local,
        global_edges=glob,
        local_rule=rule,
        global_cutoff=float(global_cutoff),
    )
    return g.validate()


def _edge_keys(edges: np.ndarray, n_nodes: int) -> np.ndarray:
    """One integer per directed edge, ascending exactly when rows ascend in (i, j)."""
    return edges[:, 1] * n_nodes + edges[:, 0]


def reverse_edges(edges: np.ndarray, n_nodes: int) -> np.ndarray:
    """Row of each directed edge's reverse, in a valid layer's edge list.

    The list must be sorted by (i, j) and symmetric, as
    :meth:`MultiplexGraph.validate` checks.
    """
    return np.searchsorted(_edge_keys(edges, n_nodes), _edge_keys(edges[:, ::-1], n_nodes))


@dataclass
class AngleTriples:
    """Angle index lists over the local layer.

    two_hop rows (k, j, i): k in N(j) \\ {i} for each directed edge (j, i);
    the angle sits at j between rays j->k and j->i.
    one_hop rows (jp, i, j): jp in N(i) \\ {j} for each directed edge (j, i);
    the angle sits at i between rays i->jp and i->j.
    """

    two_hop: np.ndarray  # (t2, 3)
    one_hop: np.ndarray  # (t1, 3)
    # Row e of each *_edge array points into the directed local edge list.
    two_hop_edge: np.ndarray  # edge id of (k -> j)
    two_hop_target: np.ndarray  # edge id of (j -> i)
    one_hop_edge: np.ndarray  # edge id of (jp -> i)
    one_hop_target: np.ndarray  # edge id of (j -> i)


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
    """List every two-hop and one-hop angle triple of the local layer.

    Triples are emitted in local edge order with neighbors ascending, so
    the output is deterministic for a given graph.  Relies on the edges
    being sorted by (i, j), as :meth:`MultiplexGraph.validate` checks: the
    edges into node v are then rows ptr[v]:ptr[v + 1], sources ascending.
    """
    edges = np.asarray(g.local_edges, dtype=np.int64)
    src, dst = edges[:, 0], edges[:, 1]
    ptr = np.searchsorted(dst, np.arange(g.n_nodes + 1))
    # two-hop: for edge e = (j -> i), each edge (k -> j) with k != i
    t2t, t2e = _edges_into(ptr, src)
    keep = src[t2e] != dst[t2t]
    t2t, t2e = t2t[keep], t2e[keep]
    # one-hop: for edge e = (j -> i), each edge (jp -> i) with jp != j
    t1t, t1e = _edges_into(ptr, dst)
    keep = src[t1e] != src[t1t]
    t1t, t1e = t1t[keep], t1e[keep]
    return AngleTriples(
        two_hop=np.stack([src[t2e], src[t2t], dst[t2t]], axis=1),
        one_hop=np.stack([src[t1e], dst[t1t], src[t1t]], axis=1),
        two_hop_edge=t2e,
        two_hop_target=t2t,
        one_hop_edge=t1e,
        one_hop_target=t1t,
    )


def one_hop_rows(triples: AngleTriples, reverse: np.ndarray) -> np.ndarray:
    """The two-hop row that lists each one-hop triple.

    One-hop row (jp -> i, j -> i) and two-hop row (jp -> i, i -> j) are the
    same triple (jp, i, j): the angle at i between jp and j, on edge
    jp -> i.  ``reverse`` is :func:`reverse_edges` of the local layer.  Two-hop
    rows ascend in (target, edge), so one search finds them all.
    """
    n_edges = reverse.size
    two_hop = triples.two_hop_target * n_edges + triples.two_hop_edge
    one_hop = reverse[triples.one_hop_target] * n_edges + triples.one_hop_edge
    return np.searchsorted(two_hop, one_hop)


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
        return (
            self.global_mp
            + self.local_step1
            + self.local_step2
            + self.local_step3
            + self.cross_layer
        )

    def as_tuple(self):
        return (
            self.global_mp,
            self.local_step1,
            self.local_step2,
            self.local_step3,
            self.cross_layer,
        )


def count_messages(g: MultiplexGraph, triples: AngleTriples | None = None) -> MessageCounts:
    """Closed-form message tallies for one block on this graph.

    ``triples`` may be the graph's :class:`AngleTriples` or anything else
    with their ``two_hop_edge`` and ``one_hop_edge`` rows, such as the
    molecule's ``basis.GeometricFeatures``; without it they are enumerated.
    """
    if triples is None:
        triples = enumerate_angle_triples(g)
    e_l = int(g.local_edges.shape[0])
    e_g = int(g.global_edges.shape[0])
    return MessageCounts(
        global_mp=2 * e_g,
        local_step1=int(triples.two_hop_edge.shape[0]) + e_l,
        local_step2=int(triples.one_hop_edge.shape[0]) + e_l,
        local_step3=e_l,
        cross_layer=2 * g.n_nodes,
    )


def dump_graph(g: MultiplexGraph) -> str:
    """Plain-text edge dump: one "L j i" or "G j i" line per directed edge."""
    lines = [f"L {j} {i}" for j, i in g.local_edges]
    lines += [f"G {j} {i}" for j, i in g.global_edges]
    return "\n".join(lines) + ("\n" if lines else "")
