"""Unit tests for Isolated Fragment Filtering."""

import numpy as np
import pytest

from repro.core.config import IFFConfig
from repro.core.iff import iff_fragment_sizes, iff_fragment_sizes_bfs, run_iff
from repro.network.graph import NetworkGraph


@pytest.fixture
def line_of_candidates():
    """A 30-node chain; candidates form one long run and one isolated pair."""
    positions = np.array([[0.8 * i, 0.0, 0.0] for i in range(30)])
    graph = NetworkGraph(positions, radio_range=1.0)
    big_fragment = set(range(0, 12))
    small_fragment = {20, 21}
    return graph, big_fragment | small_fragment, big_fragment, small_fragment


class TestFragmentSizes:
    def test_counts_include_self(self, line_of_candidates):
        graph, candidates, _, _ = line_of_candidates
        sizes = iff_fragment_sizes(graph, candidates, ttl=3)
        assert sizes[0] == 4  # nodes 0..3 within 3 hops
        assert sizes[5] == 7  # 3 on each side + itself
        assert sizes[20] == 2

    def test_flood_does_not_cross_non_candidates(self, line_of_candidates):
        graph, candidates, _, small = line_of_candidates
        sizes = iff_fragment_sizes(graph, candidates, ttl=10)
        # Even with huge TTL the small fragment stays size 2: the gap
        # (non-candidate nodes) does not forward floods.
        assert sizes[20] == 2
        assert sizes[21] == 2


class TestAgainstDictBFSOracle:
    """The one-sweep flood counts versus one dict BFS per candidate."""

    @staticmethod
    def _candidate_sets(network, detection):
        candidates = set(detection.candidates)
        x = network.graph.positions[:, 0]
        # Two slabs far apart: the flood can never bridge them.
        slabs = {n for n in candidates if x[n] < np.quantile(x, 0.3)} | {
            n for n in candidates if x[n] > np.quantile(x, 0.7)
        }
        # A sparse thinning: dozens of small disconnected fragments.
        rng = np.random.default_rng(3)
        thinned = {n for n in candidates if rng.random() < 0.2}
        return [candidates, slabs, thinned]

    @pytest.mark.parametrize("ttl", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", ["sphere", "one_hole"])
    def test_matches_oracle_on_pinned_networks(self, name, ttl, request):
        network = request.getfixturevalue(f"{name}_network")
        detection = request.getfixturevalue(f"{name}_detection")
        graph = network.graph
        for candidates in self._candidate_sets(network, detection):
            assert iff_fragment_sizes(graph, candidates, ttl) == (
                iff_fragment_sizes_bfs(graph, candidates, ttl)
            )

    def test_candidate_sets_are_disconnected(self, sphere_network, sphere_detection):
        graph = sphere_network.graph
        _, slabs, thinned = self._candidate_sets(sphere_network, sphere_detection)
        assert len(graph.connected_components(within=slabs)) >= 2
        assert len(graph.connected_components(within=thinned)) >= 10


class TestRunIFF:
    def test_small_fragment_removed(self, line_of_candidates):
        graph, candidates, big, small = line_of_candidates
        survivors = run_iff(graph, candidates, IFFConfig(theta=4, ttl=3))
        assert survivors & small == set()

    def test_large_fragment_interior_survives(self, line_of_candidates):
        graph, candidates, big, _ = line_of_candidates
        survivors = run_iff(graph, candidates, IFFConfig(theta=4, ttl=3))
        # Chain interior sees 7 candidates; chain ends see only 4.
        assert 5 in survivors
        assert 6 in survivors

    def test_theta_one_keeps_everything(self, line_of_candidates):
        graph, candidates, _, _ = line_of_candidates
        assert run_iff(graph, candidates, IFFConfig(theta=1, ttl=3)) == candidates

    def test_huge_theta_removes_everything(self, line_of_candidates):
        graph, candidates, _, _ = line_of_candidates
        assert run_iff(graph, candidates, IFFConfig(theta=100, ttl=3)) == set()

    def test_disabled_passthrough(self, line_of_candidates):
        graph, candidates, _, _ = line_of_candidates
        config = IFFConfig(theta=100, ttl=3, enabled=False)
        assert run_iff(graph, candidates, config) == candidates

    def test_empty_candidates(self, line_of_candidates):
        graph, _, _, _ = line_of_candidates
        assert run_iff(graph, set(), IFFConfig()) == set()

    def test_larger_ttl_saves_spread_fragments(self, line_of_candidates):
        graph, candidates, _, _ = line_of_candidates
        strict = run_iff(graph, candidates, IFFConfig(theta=8, ttl=3))
        relaxed = run_iff(graph, candidates, IFFConfig(theta=8, ttl=5))
        assert strict <= relaxed

    def test_paper_defaults_on_real_boundary(self, sphere_network, sphere_detection):
        """The true sphere boundary forms one big fragment: IFF keeps it."""
        truth = sphere_network.truth_boundary_set
        survivors = run_iff(sphere_network.graph, truth, IFFConfig())
        assert len(survivors) >= 0.95 * len(truth)
