"""Property-based tests for NetworkGraph invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.network.graph as graph_module
from repro.network.graph import NetworkGraph

coord = st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False, width=32)
positions = arrays(np.float64, (20, 3), elements=coord)


class TestGraphInvariants:
    @given(positions)
    @settings(max_examples=40, deadline=None)
    def test_adjacency_symmetric(self, pts):
        g = NetworkGraph(pts, radio_range=1.0)
        for u in range(g.n_nodes):
            for v in g.neighbors(u):
                assert g.has_edge(int(v), u)

    @given(positions)
    @settings(max_examples=40, deadline=None)
    def test_edges_within_radio_range(self, pts):
        g = NetworkGraph(pts, radio_range=1.0)
        for u, v in g.edges():
            assert g.distance(u, v) <= 1.0 + 1e-9

    @given(positions)
    @settings(max_examples=40, deadline=None)
    def test_components_partition_nodes(self, pts):
        g = NetworkGraph(pts, radio_range=1.0)
        comps = g.connected_components()
        seen = [n for comp in comps for n in comp]
        assert sorted(seen) == list(range(g.n_nodes))

    @given(positions, st.integers(0, 19), st.integers(0, 19))
    @settings(max_examples=40, deadline=None)
    def test_shortest_path_length_matches_bfs(self, pts, a, b):
        g = NetworkGraph(pts, radio_range=1.0)
        path = g.shortest_path(a, b)
        hops = g.bfs_hops([a])
        if path is None:
            assert b not in hops
        else:
            assert len(path) - 1 == hops[b]
            # Path is a real walk.
            for u, v in zip(path, path[1:]):
                assert g.has_edge(u, v)

    @given(positions, st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_bfs_max_hops_prefix(self, pts, cap):
        """Capped BFS equals the full BFS restricted to <= cap."""
        g = NetworkGraph(pts, radio_range=1.0)
        full = g.bfs_hops([0])
        capped = g.bfs_hops([0], max_hops=cap)
        assert capped == {n: d for n, d in full.items() if d <= cap}


class TestCSRDerivedViews:
    """The CSR-backed accessors must agree with first-principles recomputation."""

    @given(positions)
    @settings(max_examples=40, deadline=None)
    def test_degrees_match_neighbor_counts(self, pts):
        g = NetworkGraph(pts, radio_range=1.0)
        expected = np.array([g.neighbors(u).size for u in range(g.n_nodes)])
        assert np.array_equal(g.degrees(), expected)

    @given(positions)
    @settings(max_examples=40, deadline=None)
    def test_n_edges_matches_edge_list(self, pts):
        g = NetworkGraph(pts, radio_range=1.0)
        listed = list(g.edges())
        assert g.n_edges == len(listed)
        assert g.n_edges == int(g.degrees().sum()) // 2

    @given(positions)
    @settings(max_examples=40, deadline=None)
    def test_edge_array_matches_iterator_order(self, pts):
        g = NetworkGraph(pts, radio_range=1.0)
        listed = list(g.edges())
        arr = g.edge_array()
        assert arr.shape == (len(listed), 2)
        assert [tuple(row) for row in arr.tolist()] == listed
        expected = sorted(
            (u, int(v)) for u in range(g.n_nodes) for v in g.neighbors(u) if u < v
        )
        assert listed == expected

    @given(positions)
    @settings(max_examples=40, deadline=None)
    def test_csr_rows_are_sorted_neighbors(self, pts):
        g = NetworkGraph(pts, radio_range=1.0)
        indptr, indices = g.csr()
        for u in range(g.n_nodes):
            row = indices[indptr[u] : indptr[u + 1]]
            assert np.array_equal(row, g.neighbors(u))


class TestKHopCollections:
    """The multi-source sweep versus the dict/deque BFS oracle."""

    @given(positions, st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_matches_bfs_oracle_all_sources(self, pts, hops):
        g = NetworkGraph(pts, radio_range=1.0)
        collections = g.k_hop_collections(hops)
        assert len(collections) == g.n_nodes
        for source, (nodes, hop_counts) in enumerate(collections):
            oracle = g.bfs_hops([source], max_hops=hops)
            assert np.array_equal(nodes, np.sort(nodes))
            assert {int(n): int(h) for n, h in zip(nodes, hop_counts)} == oracle

    @given(positions, st.lists(st.integers(0, 19), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_source_subset_matches_full_sweep(self, pts, sources):
        g = NetworkGraph(pts, radio_range=1.0)
        full = g.k_hop_collections(2)
        subset = g.k_hop_collections(2, sources=sources)
        for s, (nodes, hop_counts) in zip(sources, subset):
            assert np.array_equal(nodes, full[s][0])
            assert np.array_equal(hop_counts, full[s][1])

    @given(positions)
    @settings(max_examples=40, deadline=None)
    def test_hops_one_is_closed_neighborhood(self, pts):
        g = NetworkGraph(pts, radio_range=1.0)
        for source, (nodes, hop_counts) in enumerate(g.k_hop_collections(1)):
            expected = sorted([source] + [int(v) for v in g.neighbors(source)])
            assert nodes.tolist() == expected
            assert all(
                h == (0 if int(n) == source else 1)
                for n, h in zip(nodes, hop_counts)
            )

    def test_disconnected_components_stay_separate(self):
        # Two far-apart cliques: collections never cross the gap.
        pts = np.array(
            [[0, 0, 0], [0.5, 0, 0], [0, 0.5, 0],
             [10, 0, 0], [10.5, 0, 0], [10, 0.5, 0]],
            dtype=float,
        )
        g = NetworkGraph(pts, radio_range=1.0)
        for source, (nodes, hop_counts) in enumerate(g.k_hop_collections(3)):
            same_side = {n for n in range(6) if (n < 3) == (source < 3)}
            assert set(nodes.tolist()) == same_side
            assert g.bfs_hops([source], max_hops=3) == {
                int(n): int(h) for n, h in zip(nodes, hop_counts)
            }

    def test_invalid_arguments_rejected(self):
        g = NetworkGraph(np.zeros((3, 3)), radio_range=1.0)
        with pytest.raises(ValueError):
            g.k_hop_collections(-1)
        with pytest.raises(ValueError):
            g.k_hop_collections(2, sources=[5])


def _rows(indptr, nodes, hop):
    return [
        {int(n): int(h) for n, h in zip(nodes[a:b], hop[a:b])}
        for a, b in zip(indptr[:-1], indptr[1:])
    ]


node_sets = st.sets(st.integers(0, 19), max_size=20)


class TestHopReach:
    """``hop_reach`` rows versus one ``bfs_hops`` call per source."""

    @given(
        positions,
        st.lists(st.integers(0, 19), max_size=8),
        st.integers(0, 4),
        st.one_of(st.none(), node_sets),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_match_bfs_oracle(self, pts, sources, hops, within):
        g = NetworkGraph(pts, radio_range=1.0)
        indptr, nodes, hop = g.hop_reach(sources, hops, within=within)
        assert indptr.shape == (len(sources) + 1,) and indptr[0] == 0
        for source, row in zip(sources, _rows(indptr, nodes, hop)):
            assert row == g.bfs_hops([source], within=within, max_hops=hops)
        for a, b in zip(indptr[:-1], indptr[1:]):
            assert np.all(np.diff(nodes[a:b]) > 0)  # ascending within a row

    def test_sources_outside_within_get_empty_rows(self):
        # A 6-node path; the induced subpath 1-2-3-4 excludes source 0.
        g = NetworkGraph([[0.8 * i, 0, 0] for i in range(6)], radio_range=1.0)
        indptr, nodes, hop = g.hop_reach([0, 4, 4, 1], 3, within={1, 2, 3, 4})
        assert _rows(indptr, nodes, hop) == [
            {},
            {1: 3, 2: 2, 3: 1, 4: 0},
            {1: 3, 2: 2, 3: 1, 4: 0},
            {1: 0, 2: 1, 3: 2, 4: 3},
        ]

    def test_no_sources(self):
        g = NetworkGraph(np.zeros((3, 3)), radio_range=1.0)
        for within in (None, {0, 1}, set()):
            indptr, nodes, hop = g.hop_reach([], 2, within=within)
            assert indptr.tolist() == [0] and nodes.size == 0 and hop.size == 0

    @pytest.mark.parametrize("cells", [1, 7, 64, 1 << 30])
    @pytest.mark.parametrize(
        "within", [None, set(range(0, 30, 2)) | {1, 3, 5}], ids=["full", "induced"]
    )
    def test_table_bound_does_not_change_results(self, cells, within, monkeypatch):
        rng = np.random.default_rng(1)
        g = NetworkGraph(rng.uniform(0.0, 3.0, size=(30, 3)), radio_range=1.0)
        sources = list(range(30)) + [3, 3]
        reference = g.hop_reach(sources, 3, within=within)
        monkeypatch.setattr(graph_module, "HOP_TABLE_CELLS", cells)
        blocked = g.hop_reach(sources, 3, within=within)
        for want, got in zip(reference, blocked):
            assert np.array_equal(want, got)

    def test_invalid_arguments_rejected(self):
        g = NetworkGraph(np.zeros((3, 3)), radio_range=1.0)
        with pytest.raises(ValueError):
            g.hop_reach([0], -1)
        with pytest.raises(ValueError):
            g.hop_reach([3], 1)
        with pytest.raises(IndexError):
            g.hop_reach([0], 1, within={0, 3})


class TestNearestSource:
    """``nearest_source`` versus multi-source and per-source ``bfs_hops``."""

    @given(
        positions,
        st.lists(st.integers(0, 19), max_size=6),
        st.one_of(st.none(), node_sets),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_bfs_oracle(self, pts, sources, within):
        g = NetworkGraph(pts, radio_range=1.0)
        hops, owner = g.nearest_source(sources, within=within)
        oracle = g.bfs_hops(sources, within=within)
        assert {n: int(h) for n, h in enumerate(hops) if h >= 0} == oracle
        assert np.array_equal(hops >= 0, owner >= 0)
        per_source = {s: g.bfs_hops([s], within=within) for s in set(sources)}
        for node, dist in oracle.items():
            nearest = min(s for s, d in per_source.items() if d.get(node) == dist)
            assert owner[node] == nearest

    def test_ties_go_to_the_smaller_source(self):
        # A 7-node path: node 3 is two hops from both sources, 1 and 5.
        g = NetworkGraph([[0.8 * i, 0, 0] for i in range(7)], radio_range=1.0)
        for sources in ([1, 5], [5, 1], [5, 1, 5]):
            hops, owner = g.nearest_source(sources)
            assert hops.tolist() == [1, 0, 1, 2, 1, 0, 1]
            assert owner.tolist() == [1, 1, 1, 1, 5, 5, 5]

    def test_invalid_sources_rejected(self):
        g = NetworkGraph(np.zeros((3, 3)), radio_range=1.0)
        with pytest.raises(ValueError):
            g.nearest_source([3])
        with pytest.raises(IndexError):
            g.nearest_source([0], within=[7])
