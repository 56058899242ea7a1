"""Unit tests for boundary-surface greedy routing."""

import numpy as np
import pytest

from repro.applications.surface_routing import RouteResult, SurfaceRouter
from repro.network.graph import NetworkGraph
from repro.surface.mesh import TriangularMesh


@pytest.fixture
def octahedron_setup():
    """An octahedron mesh whose vertices double as graph nodes."""
    positions = np.array(
        [
            [1, 0, 0],
            [-1, 0, 0],
            [0, 1, 0],
            [0, -1, 0],
            [0, 0, 1],
            [0, 0, -1],
        ],
        dtype=float,
    )
    graph = NetworkGraph(positions, radio_range=1.6)
    mesh = TriangularMesh(vertices=list(range(6)), group=list(range(6)))
    edges = [
        (0, 2), (0, 3), (0, 4), (0, 5),
        (1, 2), (1, 3), (1, 4), (1, 5),
        (2, 4), (2, 5), (3, 4), (3, 5),
    ]
    for u, v in edges:
        mesh.add_edge(u, v, path=[u, v])
    return graph, mesh


class TestLandmarkRouting:
    def test_adjacent_route(self, octahedron_setup):
        graph, mesh = octahedron_setup
        router = SurfaceRouter(graph, mesh)
        result = router.route_landmarks(0, 4)
        assert result.landmark_route == [0, 4]
        assert result.delivered

    def test_antipodal_route(self, octahedron_setup):
        """0 and 1 are antipodal (not adjacent): two hops via any equator node."""
        graph, mesh = octahedron_setup
        router = SurfaceRouter(graph, mesh)
        result = router.route_landmarks(0, 1)
        assert result.delivered
        assert result.landmark_route[0] == 0
        assert result.landmark_route[-1] == 1
        assert len(result.landmark_route) == 3

    def test_self_route(self, octahedron_setup):
        graph, mesh = octahedron_setup
        router = SurfaceRouter(graph, mesh)
        result = router.route_landmarks(2, 2)
        assert result.landmark_route == [2]

    def test_unknown_landmark_raises(self, octahedron_setup):
        graph, mesh = octahedron_setup
        router = SurfaceRouter(graph, mesh)
        with pytest.raises(ValueError):
            router.route_landmarks(0, 99)

    def test_empty_mesh_rejected(self, octahedron_setup):
        graph, _ = octahedron_setup
        empty = TriangularMesh(vertices=[0, 1])
        with pytest.raises(ValueError):
            SurfaceRouter(graph, empty)

    def test_nearest_landmark_of_landmark_is_itself(self, octahedron_setup):
        graph, mesh = octahedron_setup
        router = SurfaceRouter(graph, mesh)
        assert router.nearest_landmark(3) == 3

    def test_nearest_landmark_unreachable_none(self):
        """A node disconnected from the mesh group resolves to None."""
        positions = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.7, 0.7, 0.2], [50, 50, 50]],
            dtype=float,
        )
        graph = NetworkGraph(positions, radio_range=1.5)
        mesh = TriangularMesh(vertices=[0, 1, 2, 3], group=[0, 1, 2, 3, 4])
        for u in range(4):
            for v in range(u + 1, 4):
                mesh.add_edge(u, v, path=[u, v])
        router = SurfaceRouter(graph, mesh)
        assert router.nearest_landmark(4) is None
        result = router.route(4, 0)
        assert not result.delivered


class TestNearestLandmarkOracle:
    def test_matches_per_node_bfs_on_a_built_mesh(
        self, sphere_network, sphere_detection
    ):
        from repro.surface.pipeline import SurfaceBuilder, SurfaceConfig

        graph = sphere_network.graph
        mesh = SurfaceBuilder(SurfaceConfig()).build(graph, sphere_detection.groups)[0]
        router = SurfaceRouter(graph, mesh)
        members = set(mesh.group)
        for node in sorted(members):
            hops = graph.bfs_hops([node], within=members)
            reachable = [(hops[l], l) for l in mesh.vertices if l in hops]
            expected = min(reachable)[1] if reachable else None
            assert router.nearest_landmark(node) == expected


class TestNodeRouting:
    def test_node_route_is_walk(self, octahedron_setup):
        graph, mesh = octahedron_setup
        router = SurfaceRouter(graph, mesh)
        result = router.route(0, 1)
        assert result.delivered
        assert result.node_route[0] == 0
        assert result.node_route[-1] == 1
        for u, v in zip(result.node_route, result.node_route[1:]):
            assert graph.has_edge(u, v), (u, v)


class TestOnRealMesh:
    def test_routes_on_detected_sphere_boundary(
        self, sphere_network, sphere_detection
    ):
        from repro.surface.pipeline import SurfaceBuilder

        graph = sphere_network.graph
        mesh = SurfaceBuilder().build(graph, sphere_detection.groups)[0]
        router = SurfaceRouter(graph, mesh)
        group = mesh.group
        rng = np.random.default_rng(0)
        delivered = 0
        attempts = 10
        for _ in range(attempts):
            src, dst = rng.choice(group, size=2, replace=False)
            result = router.route(int(src), int(dst))
            if result.delivered:
                delivered += 1
                # Walk property over the boundary subgraph.
                for u, v in zip(result.node_route, result.node_route[1:]):
                    assert graph.has_edge(u, v)
        assert delivered == attempts

    def test_greedy_dominates_on_sphere(self, sphere_network, sphere_detection):
        """On a convex surface greedy should rarely need the fallback."""
        from repro.surface.pipeline import SurfaceBuilder

        graph = sphere_network.graph
        mesh = SurfaceBuilder().build(graph, sphere_detection.groups)[0]
        router = SurfaceRouter(graph, mesh)
        landmarks = mesh.vertices
        rng = np.random.default_rng(1)
        ratios = []
        for _ in range(15):
            a, b = rng.choice(landmarks, size=2, replace=False)
            result = router.route_landmarks(int(a), int(b))
            assert result.delivered
            ratios.append(result.greedy_success_ratio)
        assert np.mean(ratios) > 0.8
