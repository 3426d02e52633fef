"""Two-layer graph construction, angle triples and message counting."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from mxmnet import elements, fixtures
from mxmnet import graph as graphmod
from mxmnet.basis import featurize
from mxmnet.data import Molecule
from mxmnet.graph import (
    BOND_SLACK,
    MultiplexGraph,
    build_multiplex,
    count_angles,
    count_messages,
    dump_graph,
    enumerate_angle_triples,
    neighbor_search,
    one_hop_rows,
)


def _brute_edges(coords, cutoff):
    n = len(coords)
    pairs = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = float(np.linalg.norm(coords[i] - coords[j]))
            if 0.0 < d < cutoff:
                pairs.append((j, i))
    arr = np.array(sorted(pairs, key=lambda e: (e[1], e[0])), dtype=np.int64)
    return arr.reshape(-1, 2)


def test_neighbor_search_two_atoms():
    coords = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
    assert neighbor_search(coords, 5.0).shape == (2, 2)
    # boundary is strict: a pair exactly at the cutoff has no edge
    assert neighbor_search(coords, 3.0).shape == (0, 2)


def test_neighbor_search_matches_all_pairs_scan():
    rng = np.random.default_rng(30)
    for n in (2, 17, 64, 256):
        pts = fixtures.random_points(n, 9.0, rng)
        got = neighbor_search(pts, 4.0)
        assert np.array_equal(got, _brute_edges(pts, 4.0))


def test_row_blocked_pair_scan_matches_all_pairs_scan():
    # 600 points take two row blocks of the pair scan; their pairs must
    # join into the one exact, sorted list
    rng = np.random.default_rng(31)
    pts = fixtures.random_points(600, 14.0, rng)
    got = neighbor_search(pts, 2.0)
    assert got.shape[0] > 0
    assert np.array_equal(got, _brute_edges(pts, 2.0))


def test_neighbor_search_rejects_bad_input():
    with pytest.raises(ValueError):
        neighbor_search(np.array([[0.0, 0.0, np.nan]]), 2.0)
    with pytest.raises(ValueError):
        neighbor_search(np.zeros((2, 3)), 0.0)
    for cutoff in (np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            neighbor_search(np.zeros((2, 3)), cutoff)
    with pytest.raises(ValueError, match="positive and finite"):
        build_multiplex(fixtures.water(), global_cutoff=np.nan)
    with pytest.raises(ValueError, match=r"^coordinates must be \(n, 3\), got \(3, 2\)$"):
        neighbor_search(np.zeros((3, 2)), 2.0)


def _local_bonds(m):
    """The bonds-rule local layer as (a, b) pairs with a < b, row-major."""
    e = build_multiplex(m).local_edges
    return sorted(map(tuple, e[e[:, 0] < e[:, 1]].tolist()))


def test_local_bonds_prefer_explicit_bonds():
    m = fixtures.water()
    assert _local_bonds(m) == [(0, 1), (0, 2)]
    # one explicit bond where the distance rule would find two
    m = Molecule(m.atomic_numbers, m.coords, bonds=[(0, 2)])
    assert _local_bonds(m) == [(0, 2)]


def _bonds_by_pair_loop(m):
    """Reference: the covalent-radius rule tested pair by pair, row-major."""
    radii = np.array([elements.covalent_radius(int(z)) for z in m.atomic_numbers])
    diff = m.coords[:, None, :] - m.coords[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    limit = radii[:, None] + radii[None, :] + BOND_SLACK
    pairs = []
    for a in range(m.n_atoms):
        for b in range(a + 1, m.n_atoms):
            if dist[a, b] < limit[a, b]:
                pairs.append((a, b))
    return pairs


def _reference_molecules():
    """Fixtures, seeded random molecules and a single atom, each with its
    explicit bonds and again without them (covalent-radius fallback)."""
    rng = np.random.default_rng(38)
    mols = fixtures.fixture_set() + [fixtures.dihydrogen()]
    mols += [fixtures.random_molecule(rng) for _ in range(20)]
    mols.append(Molecule([6], [[0.0, 0.0, 0.0]]))
    return mols + [Molecule(m.atomic_numbers, m.coords) for m in mols]


def test_local_bonds_distance_rule():
    h2 = Molecule([1, 1], [[0.0, 0.0, 0.0], [0.74, 0.0, 0.0]])
    assert _local_bonds(h2) == [(0, 1)]  # 0.74 < 0.31 + 0.31 + 0.3
    far = Molecule([2, 2], [[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
    assert _local_bonds(far) == []


def test_local_bonds_match_pair_loop():
    # 600 atoms take two row blocks of the pair scan
    large = fixtures.random_molecule(np.random.default_rng(39), n_atoms=600)
    for m in _reference_molecules() + [large]:
        if m.bonds is not None:
            continue
        assert _local_bonds(m) == _bonds_by_pair_loop(m)


def test_bond_rule_peak_memory_stays_bounded():
    # 2000 carbons at 0.1 atoms per cubic Angstrom; a dense n x n x 3
    # distance array alone would take 92 MiB
    rng = np.random.default_rng(40)
    n = 2000
    m = Molecule([6] * n, fixtures.random_points(n, (n / 0.1) ** (1 / 3), rng))
    tracemalloc.start()
    try:
        g = build_multiplex(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.local_edges.shape[0] > 0
    assert peak < 64 * 2**20


def test_build_multiplex_water():
    g = build_multiplex(fixtures.water(), global_cutoff=5.0)
    assert g.n_nodes == 3
    assert g.local_edges.shape == (4, 2)
    assert g.global_edges.shape == (6, 2)


def test_build_multiplex_single_atom():
    m = Molecule([6], [[0.0, 0.0, 0.0]])
    g = build_multiplex(m, global_cutoff=5.0)
    assert g.local_edges.shape == (0, 2)
    assert g.global_edges.shape == (0, 2)


def test_build_multiplex_cutoff_rule_and_validation():
    m = fixtures.methane()
    g = build_multiplex(m, local_rule="cutoff", local_cutoff=1.5, global_cutoff=4.0)
    assert g.local_edges.shape[0] == 8  # four C-H pairs, both directions
    with pytest.raises(ValueError):
        build_multiplex(m, local_rule="cutoff", local_cutoff=5.0, global_cutoff=4.0)
    with pytest.raises(ValueError):
        build_multiplex(m, global_cutoff=-1.0)
    with pytest.raises(ValueError, match="^unknown local rule 'nope'$"):
        build_multiplex(m, local_rule="nope")


def test_edges_stay_symmetric_on_random_molecules():
    rng = np.random.default_rng(32)
    for trial in range(20):
        m = fixtures.random_molecule(rng)
        g = build_multiplex(m, global_cutoff=5.0)
        for edges in (g.local_edges, g.global_edges):
            have = {tuple(e) for e in edges}
            assert all((i, j) in have for j, i in have)
            assert all(j != i for j, i in have)


def _graph(n, local, glob=()):
    return MultiplexGraph(
        n_nodes=n,
        local_edges=np.array(local, dtype=np.int64).reshape(-1, 2),
        global_edges=np.array(glob, dtype=np.int64).reshape(-1, 2),
    )


def test_graph_holds_the_topology_alone():
    names = [f.name for f in dataclasses.fields(MultiplexGraph)]
    assert names == ["n_nodes", "local_edges", "global_edges", "local_reverse", "global_reverse"]


def test_validate_catches_broken_graphs():
    # a graph checks itself on construction
    with pytest.raises(ValueError, match="local_edges is not symmetric as a directed set"):
        _graph(3, [[0, 1]])
    # flipped keys that fall between present keys
    with pytest.raises(ValueError, match="global_edges is not symmetric"):
        _graph(3, [], [[1, 0], [2, 1]])
    # flipped keys past the largest key
    with pytest.raises(ValueError, match="local_edges is not symmetric"):
        _graph(3, [[2, 0], [2, 1]])
    with pytest.raises(ValueError, match="global_edges contains a self-edge"):
        _graph(2, [], [[1, 1], [1, 1]])
    # symmetric and duplicate-free, but not in (i, j) order
    with pytest.raises(ValueError, match="local_edges is not sorted by"):
        _graph(3, [[1, 0], [2, 0], [0, 2], [0, 1]])
    with pytest.raises(ValueError, match="repeats an edge"):
        _graph(2, [[1, 0], [1, 0], [0, 1]])
    with pytest.raises(ValueError, match="local_edges references nodes outside range"):
        _graph(2, [[2, 0], [0, 2]])
    with pytest.raises(ValueError, match=r"global_edges must be \(e, 2\), got \(4,\)"):
        MultiplexGraph(2, np.empty((0, 2), np.int64), np.zeros(4, np.int64))


def _reverse_by_edge_loop(edges):
    """Reference: row of each edge's reverse through an edge-id dict."""
    edge_id = {(int(j), int(i)): e for e, (j, i) in enumerate(edges)}
    return np.array([edge_id[(int(i), int(j))] for j, i in edges], dtype=np.int64)


def _check_reverse_maps(g):
    for layer in ("local", "global"):
        got = getattr(g, f"{layer}_reverse")
        want = _reverse_by_edge_loop(getattr(g, f"{layer}_edges"))
        assert got.dtype == want.dtype and np.array_equal(got, want), layer


def test_reverse_maps_match_edge_loop():
    rng = np.random.default_rng(41)
    mols = fixtures.fixture_set() + [fixtures.random_molecule(rng) for _ in range(15)]
    for m in mols:
        for rule in ("bonds", "cutoff"):
            _check_reverse_maps(build_multiplex(m, local_rule=rule))
    for n, pairs in [(3, [(0, 1), (1, 2)]), (2, [(0, 1)]), (4, [(0, 1), (0, 2), (0, 3)])]:
        _check_reverse_maps(_graph_from_undirected(n, pairs))
    for trial in range(10):
        _check_reverse_maps(_graph_from_undirected(*fixtures.random_simple_graph(rng)))


@pytest.mark.parametrize("rule", ["bonds", "cutoff", "explicit"])
def test_build_multiplex_scans_the_pairs_once(monkeypatch, rule):
    m = fixtures.methane()  # carries explicit bonds
    if rule != "explicit":
        m = Molecule(m.atomic_numbers, m.coords)
    calls, scan = [], graphmod._close_pairs
    monkeypatch.setattr(graphmod, "_close_pairs", lambda *a: calls.append(a) or scan(*a))
    g = build_multiplex(
        m, local_rule="bonds" if rule == "explicit" else rule, local_cutoff=1.5
    )
    assert len(calls) == 1
    assert g.local_edges.shape == (8, 2)  # four C-H pairs under every rule


def test_global_layer_is_the_cutoff_scan():
    rng = np.random.default_rng(42)
    mols = fixtures.fixture_set() + [fixtures.random_molecule(rng) for _ in range(10)]
    mols += [Molecule(m.atomic_numbers, m.coords) for m in mols if m.bonds is not None]
    for m in mols:
        want = neighbor_search(m.coords, 4.5)
        for rule in ("bonds", "cutoff"):
            g = build_multiplex(m, local_rule=rule, global_cutoff=4.5)
            assert np.array_equal(g.global_edges, want)


@pytest.mark.parametrize("rule", ["bonds", "cutoff", "explicit"])
def test_coincident_atoms_raise_under_every_rule(rule):
    coords = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    # the explicit bonds skip the coincident pair (0, 2)
    bonds = [(0, 1), (1, 2)] if rule == "explicit" else None
    m = Molecule([6, 1, 6], coords, bonds=bonds)
    with pytest.raises(ValueError, match="atoms 0 and 2 are at the same position"):
        build_multiplex(m, local_rule="bonds" if rule == "explicit" else rule)


def test_pair_scan_names_coincident_points_in_any_block():
    # 600 points take two row blocks of 512; the first coincident pair in
    # (i, j) order is named, wherever it sits
    pts = fixtures.random_points(600, 14.0, np.random.default_rng(43))
    for a, b in [(0, 2), (10, 560), (550, 580)]:
        dup = pts.copy()
        dup[b] = dup[a]
        with pytest.raises(ValueError, match=f"atoms {a} and {b} are at the same position"):
            neighbor_search(dup, 2.0)


def _graph_from_undirected(n, pairs):
    directed = []
    for a, b in pairs:
        directed += [(a, b), (b, a)]
    edges = np.array(sorted(directed, key=lambda e: (e[1], e[0])), dtype=np.int64)
    return MultiplexGraph(
        n_nodes=n,
        local_edges=edges.reshape(-1, 2),
        global_edges=np.empty((0, 2), dtype=np.int64),
    )


def test_triples_on_a_path():
    g = _graph_from_undirected(3, [(0, 1), (1, 2)])
    t = enumerate_angle_triples(g)
    assert {tuple(r) for r in t.two_hop} == {(2, 1, 0), (0, 1, 2)}
    assert {tuple(r) for r in t.one_hop} == {(2, 1, 0), (0, 1, 2)}


def test_triples_on_a_single_edge():
    g = _graph_from_undirected(2, [(0, 1)])
    t = enumerate_angle_triples(g)
    assert t.two_hop.shape[0] == 0
    assert t.one_hop.shape[0] == 0


def test_triples_on_a_star():
    g = _graph_from_undirected(4, [(0, 1), (0, 2), (0, 3)])
    t = enumerate_angle_triples(g)
    # per center-to-leaf edge: two other leaves feed k; per leaf-to-center
    # edge: two other leaves feed j'
    assert t.two_hop.shape[0] == 6
    assert t.one_hop.shape[0] == 6
    for jp, i, j in t.one_hop:
        assert i == 0 and jp != j


def test_triple_exclusion_rules_hold():
    rng = np.random.default_rng(33)
    for trial in range(25):
        n, pairs = fixtures.random_simple_graph(rng)
        g = _graph_from_undirected(n, pairs)
        t = enumerate_angle_triples(g)
        for k, j, i in t.two_hop:
            assert k != i and k != j and j != i
        for jp, i, j in t.one_hop:
            assert jp != j and jp != i and j != i


def test_triple_edge_pointers_are_consistent():
    rng = np.random.default_rng(34)
    n, pairs = fixtures.random_simple_graph(rng)
    g = _graph_from_undirected(max(n, 3), pairs)
    t = enumerate_angle_triples(g)
    for row, e in zip(t.two_hop, t.two_hop_edge):
        k, j, i = row
        assert tuple(g.local_edges[e]) == (k, j)
    for row, e in zip(t.two_hop, t.two_hop_target):
        k, j, i = row
        assert tuple(g.local_edges[e]) == (j, i)
    for row, e in zip(t.two_hop, t.reverse_target):
        k, j, i = row
        assert tuple(g.local_edges[e]) == (i, j)
    # In one-hop order, the same arrays point at (jp -> i) and (j -> i).
    rows = one_hop_rows(t)
    for row, e in zip(t.one_hop, t.two_hop_edge[rows]):
        jp, i, j = row
        assert tuple(g.local_edges[e]) == (jp, i)
    for row, e in zip(t.one_hop, t.reverse_target[rows]):
        jp, i, j = row
        assert tuple(g.local_edges[e]) == (j, i)
    assert np.all(np.diff(t.reverse_target[rows]) >= 0)


def test_two_hop_size_identity():
    # |two_hop| equals the sum over directed edges (j -> i) of deg(j) - 1
    rng = np.random.default_rng(35)
    for trial in range(15):
        n, pairs = fixtures.random_simple_graph(rng)
        g = _graph_from_undirected(n, pairs)
        t = enumerate_angle_triples(g)
        deg = np.bincount(g.local_edges[:, 1], minlength=g.n_nodes)
        want = sum(deg[j] - 1 for j, i in g.local_edges)
        assert t.two_hop.shape[0] == want
        assert t.one_hop.shape[0] == want  # same identity from the i side


def _triples_by_edge_loop(g):
    """Reference: per-edge Python enumeration through an edge-id dict."""
    edges = g.local_edges
    nbrs = [[] for _ in range(g.n_nodes)]
    for j, i in edges:
        nbrs[int(i)].append(int(j))
    nbrs = [sorted(x) for x in nbrs]
    edge_id = {(int(j), int(i)): e for e, (j, i) in enumerate(edges)}
    t2, t2e, t2t, t2r = [], [], [], []
    t1, t1e, t1t = [], [], []
    for e, (j, i) in enumerate(edges):
        j, i = int(j), int(i)
        for k in nbrs[j]:
            if k != i:
                t2.append((k, j, i))
                t2e.append(edge_id[(k, j)])
                t2t.append(e)
                t2r.append(edge_id[(i, j)])
        for jp in nbrs[i]:
            if jp != j:
                t1.append((jp, i, j))
                t1e.append(edge_id[(jp, i)])
                t1t.append(e)
    # One-hop row (jp -> i, j -> i) is two-hop row (jp -> i, i -> j).
    two_hop_row = {pair: row for row, pair in enumerate(zip(t2e, t2t))}
    t1r = [two_hop_row[(e, edge_id[(i, j)])] for (_, i, j), e in zip(t1, t1e)]
    return {
        "two_hop": np.array(t2, dtype=np.int64).reshape(-1, 3),
        "one_hop": np.array(t1, dtype=np.int64).reshape(-1, 3),
        "two_hop_edge": np.array(t2e, dtype=np.int64),
        "two_hop_target": np.array(t2t, dtype=np.int64),
        "reverse_target": np.array(t2r, dtype=np.int64),
        "one_hop_edge": np.array(t1e, dtype=np.int64),
        "one_hop_target": np.array(t1t, dtype=np.int64),
        "one_hop_rows": np.array(t1r, dtype=np.int64),
    }


def test_triples_match_edge_loop():
    for m in _reference_molecules():
        for rule in ("bonds", "cutoff"):
            g = build_multiplex(m, local_rule=rule, local_cutoff=2.0, global_cutoff=5.0)
            t = enumerate_angle_triples(g)
            rows = one_hop_rows(t)
            # The one-hop family is the two-hop rows in one-hop order.
            derived = {
                "one_hop_edge": t.two_hop_edge[rows],
                "one_hop_target": t.reverse_target[rows],
                "one_hop_rows": rows,
            }
            for name, want in _triples_by_edge_loop(g).items():
                got = derived[name] if name in derived else getattr(t, name)
                assert got.dtype == want.dtype, name
                assert got.shape == want.shape, name
                assert np.array_equal(got, want), name


def test_count_angles_small_cases():
    assert count_angles(3, [(0, 1), (1, 2)]) == 1
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    assert count_angles(4, k4) == 12
    assert count_angles(5, []) == 0
    with pytest.raises(ValueError, match="^self-edge on node 2$"):
        count_angles(3, [(0, 1), (2, 2)])


def _angle_pairs_by_enumeration(n, pairs):
    """Count unordered pairs of distinct edges sharing an endpoint."""
    edges = [tuple(sorted(p)) for p in set(tuple(sorted(p)) for p in pairs)]
    total = 0
    for a in range(len(edges)):
        for b in range(a + 1, len(edges)):
            if set(edges[a]) & set(edges[b]):
                total += 1
    return total


def test_count_angles_matches_edge_pair_enumeration():
    rng = np.random.default_rng(36)
    for trial in range(40):
        n, pairs = fixtures.random_simple_graph(rng)
        assert count_angles(n, pairs) == _angle_pairs_by_enumeration(n, pairs)


def test_count_angles_deduplicates_input():
    assert count_angles(3, [(0, 1), (1, 0), (1, 2)]) == 1


def test_count_messages_empty_graph():
    g = MultiplexGraph(
        n_nodes=5,
        local_edges=np.empty((0, 2), dtype=np.int64),
        global_edges=np.empty((0, 2), dtype=np.int64),
    )
    c = count_messages(g)
    assert c.as_tuple() == (0, 0, 0, 0, 10)
    assert c.total == 10


def test_count_messages_water():
    g = build_multiplex(fixtures.water(), global_cutoff=5.0)
    c = count_messages(g)
    assert c.global_mp == 12
    assert c.local_step1 == 6
    assert c.local_step2 == 6
    assert c.local_step3 == 4
    assert c.cross_layer == 6
    assert c.total == 34


def test_count_messages_tracks_triples():
    rng = np.random.default_rng(37)
    for trial in range(20):
        m = fixtures.random_molecule(rng)
        g = build_multiplex(m, global_cutoff=4.0)
        t = enumerate_angle_triples(g)
        c = count_messages(g, t)
        e_l = g.local_edges.shape[0]
        assert c.global_mp == 2 * g.global_edges.shape[0]
        assert c.local_step1 == t.two_hop.shape[0] + e_l
        assert c.local_step2 == t.one_hop.shape[0] + e_l
        assert c.local_step3 == e_l
        assert c.cross_layer == 2 * g.n_nodes
        # The features list the same triples, one row each.
        assert count_messages(g, featurize(m, g, 2.0, 4.0)) == c


def test_dump_graph_format():
    g = build_multiplex(fixtures.dihydrogen(), global_cutoff=5.0)
    lines = dump_graph(g).strip().splitlines()
    assert lines == ["L 1 0", "L 0 1", "G 1 0", "G 0 1"]
