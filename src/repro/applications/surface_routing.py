"""Greedy routing on a boundary mesh.

Routes a message between two boundary nodes along the boundary surface:

1. each endpoint resolves to its nearest mesh landmark (hop distance in
   the boundary subgraph);
2. landmark-level greedy forwarding walks the mesh: each landmark forwards
   to its mesh-neighbor closest (Euclidean, in true positions) to the
   destination landmark; on a local minimum it falls back to the mesh's
   BFS next-hop, which always exists on a connected mesh;
3. the landmark route expands to a node-level walk through the virtual
   edges' recorded boundary paths.

This is deliberately simple -- it demonstrates that the constructed mesh
is a usable routing substrate (the paper's motivation), not a new routing
contribution.  The greedy/fallback split is reported so experiments can
measure how often pure greedy succeeds on the locally planarized surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from repro.network.graph import NetworkGraph
from repro.surface.mesh import TriangularMesh, edge_key


@dataclass
class RouteResult:
    """Outcome of one surface routing attempt.

    Attributes
    ----------
    landmark_route:
        Sequence of mesh landmarks visited (source landmark first).
    node_route:
        Full node-level walk along the boundary subgraph, expanded through
        the mesh edges' recorded paths (may be empty if expansion was not
        requested or paths are missing).
    greedy_hops:
        Landmark steps decided by pure greedy progress.
    fallback_hops:
        Landmark steps that required the BFS fallback (local minima of the
        greedy potential).
    """

    landmark_route: List[int]
    node_route: List[int] = field(default_factory=list)
    greedy_hops: int = 0
    fallback_hops: int = 0

    @property
    def delivered(self) -> bool:
        """Whether the route reached the destination landmark."""
        return bool(self.landmark_route)

    @property
    def greedy_success_ratio(self) -> float:
        """Fraction of landmark steps that pure greedy decided."""
        total = self.greedy_hops + self.fallback_hops
        return self.greedy_hops / total if total else 1.0


class SurfaceRouter:
    """Routing engine over one boundary mesh.

    Parameters
    ----------
    graph:
        The network graph (for positions and boundary-subgraph BFS).
    mesh:
        A constructed boundary mesh whose ``group`` holds the boundary
        nodes of the surface.
    """

    def __init__(self, graph: NetworkGraph, mesh: TriangularMesh):
        if not mesh.edges:
            raise ValueError("cannot route on a mesh with no edges")
        self.graph = graph
        self.mesh = mesh
        self._adjacency = mesh.adjacency()
        self._members: Set[int] = set(mesh.group) if mesh.group else set(mesh.vertices)
        self._owner: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Landmark resolution
    # ------------------------------------------------------------------

    def nearest_landmark(self, node: int) -> Optional[int]:
        """The mesh landmark hop-closest to ``node`` in the boundary subgraph.

        Ties break to the smallest landmark ID.  None when ``node`` cannot
        reach any landmark inside the boundary subgraph.
        """
        if node in self._adjacency:
            return node
        if self._owner is None:
            # One multi-source sweep from all landmarks answers every query.
            _, self._owner = self.graph.nearest_source(
                self.mesh.vertices, within=self._members
            )
        owner = int(self._owner[node])
        return owner if owner >= 0 else None

    # ------------------------------------------------------------------
    # Landmark-level forwarding
    # ------------------------------------------------------------------

    def _mesh_bfs_next_hop(self, source: int, target: int) -> Optional[int]:
        """First hop of the BFS shortest path from source to target on the mesh."""
        if source == target:
            return None
        from collections import deque

        parent: Dict[int, int] = {source: -1}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in sorted(self._adjacency[u]):
                if v in parent:
                    continue
                parent[v] = u
                if v == target:
                    # Walk back to the hop right after source.
                    node = v
                    while parent[node] != source:
                        node = parent[node]
                    return node
                queue.append(v)
        return None

    def route_landmarks(
        self, src_landmark: int, dst_landmark: int, *, max_steps: Optional[int] = None
    ) -> RouteResult:
        """Greedy-with-fallback forwarding between two mesh landmarks."""
        for landmark in (src_landmark, dst_landmark):
            if landmark not in self._adjacency:
                raise ValueError(f"{landmark} is not a mesh landmark")
        limit = max_steps if max_steps is not None else 4 * len(self.mesh.vertices)
        positions = self.graph.positions
        target_pos = positions[dst_landmark]

        route = [src_landmark]
        greedy_hops = 0
        fallback_hops = 0
        visited = {src_landmark}
        current = src_landmark
        for _ in range(limit):
            if current == dst_landmark:
                return RouteResult(
                    landmark_route=route,
                    greedy_hops=greedy_hops,
                    fallback_hops=fallback_hops,
                )
            current_dist = float(np.linalg.norm(positions[current] - target_pos))
            best = None
            for nbr in sorted(self._adjacency[current]):
                if nbr in visited and nbr != dst_landmark:
                    continue
                d = float(np.linalg.norm(positions[nbr] - target_pos))
                if d < current_dist and (best is None or d < best[0]):
                    best = (d, nbr)
            if best is not None:
                nxt = best[1]
                greedy_hops += 1
            else:
                nxt = self._mesh_bfs_next_hop(current, dst_landmark)
                if nxt is None:
                    return RouteResult(landmark_route=[], greedy_hops=greedy_hops,
                                       fallback_hops=fallback_hops)
                fallback_hops += 1
            route.append(nxt)
            visited.add(nxt)
            current = nxt
        return RouteResult(landmark_route=[], greedy_hops=greedy_hops,
                           fallback_hops=fallback_hops)

    # ------------------------------------------------------------------
    # Node-level expansion
    # ------------------------------------------------------------------

    def _edge_path(self, u: int, v: int) -> List[int]:
        """Node path realizing mesh edge (u, v), oriented from u to v."""
        key = edge_key(u, v)
        path = self.mesh.paths.get(key)
        if path is None:
            # Flip-introduced edge without a recorded path: take the
            # boundary-subgraph shortest path.
            found = self.graph.shortest_path(u, v, within=self._members)
            path = found if found is not None else [u, v]
        if path[0] != u:
            path = list(reversed(path))
        return path

    def route(self, src: int, dst: int) -> RouteResult:
        """Full boundary-surface route between two boundary nodes."""
        src_lm = self.nearest_landmark(src)
        dst_lm = self.nearest_landmark(dst)
        if src_lm is None or dst_lm is None:
            return RouteResult(landmark_route=[])
        result = self.route_landmarks(src_lm, dst_lm)
        if not result.delivered:
            return result

        node_route: List[int] = []
        # Source approach segment.
        approach = self.graph.shortest_path(src, src_lm, within=self._members)
        node_route.extend(approach if approach else [src, src_lm])
        # Expand each landmark hop through its virtual-edge path.
        for u, v in zip(result.landmark_route, result.landmark_route[1:]):
            segment = self._edge_path(u, v)
            node_route.extend(segment[1:])
        # Final segment to the destination node.
        tail = self.graph.shortest_path(dst_lm, dst, within=self._members)
        node_route.extend((tail if tail else [dst_lm, dst])[1:])
        result.node_route = node_route
        return result
