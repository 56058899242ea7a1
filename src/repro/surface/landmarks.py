"""Step I: landmark election and combinatorial Voronoi cells.

A subset of boundary nodes is elected as landmarks such that any two
landmarks are at least ``k`` hops apart within the boundary subgraph; ``k``
controls the mesh fineness (3..5 in the paper).  Every other boundary node
then associates with its hop-closest landmark, breaking ties toward the
smallest landmark ID -- producing approximate Voronoi cells on the boundary
surface (Fig. 1(c)).

The election here is the deterministic greedy k-hop maximal independent
set: nodes are considered in increasing ID order and selected unless an
already-selected landmark sits within ``k - 1`` hops.  This is exactly the
fixed point the distributed ID-priority election of
:mod:`repro.runtime.protocols.election` converges to.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

import numpy as np

from repro.network.graph import NetworkGraph


def elect_landmarks(
    graph: NetworkGraph,
    group: Iterable[int],
    k: int = 3,
) -> List[int]:
    """Elect landmarks within one boundary group.

    Parameters
    ----------
    graph:
        Full network connectivity.
    group:
        Boundary node IDs of one boundary surface (one connected component
        of the boundary subgraph).
    k:
        Minimum pairwise landmark hop distance (within the group).

    Returns
    -------
    Sorted landmark IDs.  Every group member is within ``k - 1`` hops of a
    landmark (maximality), and no two landmarks are closer than ``k`` hops
    (independence).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    members: Set[int] = set(int(g) for g in group)
    landmarks: List[int] = []
    covered: Set[int] = set()
    for node in sorted(members):
        if node in covered:
            continue
        landmarks.append(node)
        # Suppress any node within k-1 hops: a later candidate there would
        # be closer than k hops to this landmark.
        reached = graph.bfs_hops([node], within=members, max_hops=k - 1)
        covered.update(reached.keys())
    return landmarks


def assign_voronoi_cells(
    graph: NetworkGraph,
    group: Iterable[int],
    landmarks: Iterable[int],
) -> Dict[int, int]:
    """Associate every group node with its closest landmark.

    Ties (equal hop distance to several landmarks) go to the landmark with
    the smallest ID, the paper's tiebreaker.  All landmarks flood together
    in one :meth:`~repro.network.graph.NetworkGraph.nearest_source` sweep;
    :func:`repro.runtime.protocols.run_voronoi_distributed` is the
    message-level oracle.

    Returns
    -------
    dict mapping every reachable group node to its landmark ID.
    """
    members: Set[int] = set(int(g) for g in group)
    sources = sorted(int(l) for l in landmarks)
    for landmark in sources:
        if landmark not in members:
            raise ValueError(f"landmark {landmark} is not in the group")
    _, owner = graph.nearest_source(sources, within=members)
    reached = np.flatnonzero(owner >= 0)
    return dict(zip(reached.tolist(), owner[reached].tolist()))


def cell_sizes(cells: Dict[int, int]) -> Dict[int, int]:
    """Number of associated nodes per landmark (landmark itself included)."""
    sizes: Dict[int, int] = {}
    for landmark in cells.values():
        sizes[landmark] = sizes.get(landmark, 0) + 1
    return sizes
