"""The distributed protocols compute exactly what the reference code does.

These tests are the proof obligation for DESIGN.md's dual-implementation
claim: every centralized-but-localized computation in repro.core /
repro.surface is the fixed point of a one-hop message-passing protocol.
"""

from collections import defaultdict
from itertools import product

import numpy as np
import pytest

from repro.core.grouping import group_boundary_nodes
from repro.core.iff import iff_fragment_sizes
from repro.network.graph import NetworkGraph
from repro.runtime.protocols import (
    distributed_landmark_election,
    run_grouping_distributed,
    run_iff_distributed,
    run_voronoi_distributed,
)
from repro.surface.landmarks import assign_voronoi_cells, elect_landmarks


@pytest.fixture(scope="module")
def boundary_setup(sphere_network, sphere_detection):
    graph = sphere_network.graph
    candidates = sphere_detection.candidates
    boundary = sphere_detection.boundary
    group = sphere_detection.groups[0]
    return graph, candidates, boundary, group


class TestIFFEquivalence:
    def test_flood_counts_match_bfs(self, boundary_setup):
        graph, candidates, _, _ = boundary_setup
        sizes = iff_fragment_sizes(graph, candidates, ttl=3)
        survivors, result = run_iff_distributed(graph, candidates, theta=20, ttl=3)
        for node, state in result.states.items():
            assert len(state["heard"]) == sizes[node]

    def test_survivor_sets_match(self, boundary_setup):
        graph, candidates, _, _ = boundary_setup
        sizes = iff_fragment_sizes(graph, candidates, ttl=3)
        expected = {n for n, s in sizes.items() if s >= 20}
        survivors, _ = run_iff_distributed(graph, candidates, theta=20, ttl=3)
        assert survivors == expected


class TestGroupingEquivalence:
    def test_labels_encode_components(self, boundary_setup):
        graph, _, boundary, _ = boundary_setup
        expected_groups = group_boundary_nodes(graph, boundary)
        labels, _ = run_grouping_distributed(graph, boundary)
        by_label = defaultdict(list)
        for node, label in labels.items():
            by_label[label].append(node)
        got = sorted(
            (sorted(v) for v in by_label.values()), key=lambda c: (-len(c), c[0])
        )
        assert got == expected_groups

    def test_label_is_component_minimum(self, boundary_setup):
        graph, _, boundary, _ = boundary_setup
        labels, _ = run_grouping_distributed(graph, boundary)
        for group in group_boundary_nodes(graph, boundary):
            for node in group:
                assert labels[node] == group[0]


class TestLandmarkEquivalence:
    @pytest.mark.parametrize("k", [3, 4])
    def test_election_matches_greedy(self, boundary_setup, k):
        graph, _, _, group = boundary_setup
        expected = elect_landmarks(graph, group, k)
        got, messages = distributed_landmark_election(graph, group, k)
        assert got == expected
        assert messages > 0


class TestVoronoiEquivalence:
    def test_cells_match(self, boundary_setup):
        graph, _, _, group = boundary_setup
        landmarks = elect_landmarks(graph, group, 4)
        expected = assign_voronoi_cells(graph, group, landmarks)
        got, _ = run_voronoi_distributed(graph, group, landmarks)
        assert got == expected


def _lattice(*shape):
    """Unit-spaced grid graph: every node's neighbours are its axis steps."""
    return NetworkGraph(
        np.array(list(product(*(range(k) for k in shape))), dtype=float),
        radio_range=1.0,
    )


class TestVoronoiTieHeavyLattices:
    """Hop distances on a grid are Manhattan distances, so many nodes sit
    equidistant from two or more landmarks and the smaller-ID rule decides."""

    @pytest.mark.parametrize(
        "shape, landmarks",
        [
            ((9, 9, 1), [0, 8, 72, 80]),
            ((9, 9, 1), [10, 16, 40, 64, 70]),
            ((9, 9, 1), [40, 4, 76, 36, 44]),
            ((5, 5, 5), [0, 4, 20, 24, 62, 100, 104, 120, 124]),
            ((12, 3, 1), [0, 6, 13, 35]),
        ],
    )
    def test_cells_match_protocol_and_per_landmark_oracle(self, shape, landmarks):
        graph = _lattice(*shape)
        group = range(graph.n_nodes)
        cells = assign_voronoi_cells(graph, group, landmarks)
        protocol, _ = run_voronoi_distributed(graph, group, landmarks)
        assert cells == protocol
        fronts = {l: graph.bfs_hops([l]) for l in landmarks}
        ties = 0
        for node in group:
            dist = min(front[node] for front in fronts.values())
            nearest = sorted(l for l, f in fronts.items() if f[node] == dist)
            assert cells[node] == nearest[0]
            ties += len(nearest) > 1
        assert ties >= 4  # the lattice really exercises the tie-break

    def test_cells_stay_inside_a_sub_group(self):
        graph = _lattice(9, 9, 1)
        group = [n for n in range(81) if n % 9 < 4 or n // 9 == 8]
        landmarks = [0, 3, 80]
        cells = assign_voronoi_cells(graph, group, landmarks)
        protocol, _ = run_voronoi_distributed(graph, group, landmarks)
        assert cells == protocol
        assert set(cells) == set(group)
