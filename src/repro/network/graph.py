"""Unit-ball-graph representation and localized graph queries.

:class:`NetworkGraph` stores node positions and the adjacency induced by a
fixed radio transmission range.  It provides exactly the query surface the
paper's algorithms need: one-hop neighborhoods, restricted BFS (hop counts
and deterministic shortest paths inside a node subset, e.g. the boundary
subgraph), and connected components of induced subgraphs.

Two equivalent adjacency representations coexist:

* the per-node list-of-arrays view (``neighbors``/``has_edge``), which the
  dict/deque BFS machinery below consumes, and
* a CSR view (:meth:`csr`: ``indptr``/``indices`` with neighbor columns
  sorted per row), which backs the vectorized bulk queries -- ``degrees``,
  ``edges``, :meth:`edge_values` (edge-aligned per-edge data, e.g. measured
  distances) and the two k-hop primitives every traversal question in the
  pipeline goes through: :meth:`hop_reach` (an independent bounded BFS per
  source -- frames, IFF floods, landmark pairs) and :meth:`nearest_source`
  (one multi-source BFS with lowest-ID ownership -- Voronoi cells, hop
  lengths).  The scalar :meth:`bfs_hops` is kept as the differential
  oracle both are property-tested against.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.geometry.primitives import as_points
from repro.geometry.spatial_index import UniformGridIndex, auto_cell_size

#: int32 cells per block of the ``(sources, width)`` hop table behind
#: :meth:`NetworkGraph.hop_reach` (8 MB).  Purely a memory bound: rows are
#: independent BFS runs, so the blocking never changes a result.
HOP_TABLE_CELLS = 1 << 21


def _gather_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The CSR rows ``rows`` concatenated in one gather, and their lengths."""
    counts = indptr[rows + 1] - indptr[rows]
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    pos = np.arange(total) + np.repeat(indptr[rows] - ends + counts, counts)
    return indices[pos], counts


def _sweep(
    indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray, hops: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:meth:`NetworkGraph.hop_reach` over one CSR graph; a negative source
    yields an empty row."""
    width = max(indptr.size - 1, 1)
    block = max(1, min(sources.size, HOP_TABLE_CELLS // width))
    # One flat hop table reused by every block: cell ``row * width + node``
    # holds the hop at which the block row's source reached ``node``.
    hop_of = np.full(block * width, -1, dtype=np.int32)
    cells, hop = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int32)]
    for start in range(0, sources.size, block):
        row = np.flatnonzero(sources[start : start + block] >= 0)
        node = sources[start + row]
        frontier = row * width + node
        hop_of[frontier] = 0
        reached = [frontier]
        for h in range(1, hops + 1):
            dst, degree = _gather_rows(indptr, indices, node)
            frontier = np.repeat(row * width, degree) + dst
            frontier = np.unique(frontier[hop_of[frontier] < 0])
            hop_of[frontier] = h
            reached.append(frontier)
            row, node = np.divmod(frontier, width)
        done = np.sort(np.concatenate(reached))
        hop.append(hop_of[done])
        hop_of[done] = -1
        cells.append(done + start * width)
    row, node = np.divmod(np.concatenate(cells), width)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=sources.size))))
    return indptr, node, np.concatenate(hop).astype(np.int64)


class NetworkGraph:
    """Immutable undirected graph over positioned nodes.

    Parameters
    ----------
    positions:
        ``(n, 3)`` node positions.
    radio_range:
        Maximum transmission range; two nodes are neighbors iff their
        Euclidean distance is at most this value.  The paper normalizes it
        to 1 (Definition 1) and so does the generator, but the class accepts
        any positive value.
    adjacency:
        Optional pre-computed adjacency (list of neighbor-index sequences).
        When omitted it is built with a uniform grid index in ``O(n)``
        expected time.
    """

    def __init__(self, positions, radio_range: float = 1.0, adjacency=None):
        self._positions = as_points(positions).copy()
        if radio_range <= 0:
            raise ValueError("radio_range must be positive")
        self._radio_range = float(radio_range)
        n = self._positions.shape[0]
        if adjacency is None:
            # Build the CSR form directly from one batched neighbor-pair
            # sweep (no per-node Python loop): directed copies of every
            # pair, lexsorted by (row, column), give sorted rows in place.
            if n:
                index = UniformGridIndex(
                    self._positions, cell_size=auto_cell_size(self._radio_range)
                )
                pairs = index.neighbor_pairs_array(self._radio_range)
            else:
                pairs = np.empty((0, 2), dtype=np.int64)
            heads = np.concatenate([pairs[:, 0], pairs[:, 1]])
            tails = np.concatenate([pairs[:, 1], pairs[:, 0]])
            order = np.lexsort((tails, heads))
            self._indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(heads, minlength=n), out=self._indptr[1:])
            self._indices = tails[order]
            self._adjacency = (
                np.split(self._indices, self._indptr[1:-1]) if n else []
            )
        else:
            if len(adjacency) != n:
                raise ValueError("adjacency length must match number of nodes")
            self._adjacency = [
                np.sort(np.asarray(list(nbrs), dtype=int)) for nbrs in adjacency
            ]
            # CSR twin of the adjacency lists: row u's neighbor columns live
            # in indices[indptr[u]:indptr[u+1]], sorted ascending like the
            # lists.
            self._indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum([a.size for a in self._adjacency], out=self._indptr[1:])
            self._indices = (
                np.concatenate(self._adjacency).astype(np.int64)
                if n and self._indptr[-1]
                else np.empty(0, dtype=np.int64)
            )
        self._neighbor_sets_cache: Optional[List[Set[int]]] = None
        self._edge_array: Optional[np.ndarray] = None

    @classmethod
    def from_csr(
        cls,
        positions: np.ndarray,
        radio_range: float,
        indptr: np.ndarray,
        indices: np.ndarray,
    ) -> "NetworkGraph":
        """Rebuild a graph from a previously exported CSR adjacency.

        The inverse of :meth:`csr` (plus ``positions``/``radio_range``):
        per-row neighbor columns must already be sorted ascending, exactly
        as :meth:`csr` emits them.  Unlike the constructor, nothing is
        re-derived or copied -- ``positions`` and ``indices`` are adopted
        as-is (read-only shared-memory buffers included), and the per-node
        adjacency list holds views into ``indices``.  This is the
        zero-copy rehydration path workers use for shared-memory payloads.
        """
        self = cls.__new__(cls)
        pos = as_points(positions)
        if radio_range <= 0:
            raise ValueError("radio_range must be positive")
        self._positions = pos
        self._radio_range = float(radio_range)
        self._indptr = np.asarray(indptr, dtype=np.int64)
        self._indices = np.asarray(indices, dtype=np.int64)
        n = pos.shape[0]
        if self._indptr.shape != (n + 1,) or self._indptr[-1] != self._indices.size:
            raise ValueError("indptr does not describe indices")
        self._adjacency = (
            np.split(self._indices, self._indptr[1:-1]) if n else []
        )
        self._neighbor_sets_cache = None
        self._edge_array = None
        return self

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._positions.shape[0]

    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return self._positions.shape[0]

    @property
    def positions(self) -> np.ndarray:
        """Node positions as a read-only ``(n, 3)`` view."""
        view = self._positions.view()
        view.flags.writeable = False
        return view

    @property
    def radio_range(self) -> float:
        """The transmission range defining adjacency."""
        return self._radio_range

    def position(self, node: int) -> np.ndarray:
        """Position of one node."""
        return self._positions[node].copy()

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted array of the node's one-hop neighbors."""
        return self._adjacency[node]

    def degree(self, node: int) -> int:
        """Number of one-hop neighbors."""
        return int(self._adjacency[node].size)

    def degrees(self) -> np.ndarray:
        """Array of all node degrees (from the CSR row extents)."""
        return np.diff(self._indptr).astype(int)

    @property
    def _neighbor_sets(self) -> List[Set[int]]:
        """Per-node neighbor sets, materialized on first membership query.

        Building 100k+ Python sets costs seconds and most bulk callers
        (generation, UBF, localization sweeps) never ask ``has_edge``, so
        the hash-set twin of the CSR adjacency is created lazily.
        """
        if self._neighbor_sets_cache is None:
            self._neighbor_sets_cache = [
                set(map(int, a)) for a in self._adjacency
            ]
        return self._neighbor_sets_cache

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` are one-hop neighbors."""
        return v in self._neighbor_sets[u]

    def edges(self) -> Iterator[Tuple[int, int]]:
        """All edges as ``(u, v)`` tuples with ``u < v``.

        Backed by the vectorized :meth:`edge_array`; iteration order is the
        historical one (ascending ``u``, then ascending ``v``).
        """
        return (tuple(row) for row in self.edge_array().tolist())

    def edge_array(self) -> np.ndarray:
        """All edges as a read-only ``(E, 2)`` array with ``u < v`` per row.

        Rows are ordered by ascending ``u`` then ``v`` -- exactly the order
        :meth:`edges` yields.  Built once from the CSR view and cached.
        """
        if self._edge_array is None:
            heads = np.repeat(np.arange(self.n_nodes), np.diff(self._indptr))
            mask = heads < self._indices
            arr = np.column_stack([heads[mask], self._indices[mask]])
            arr.flags.writeable = False
            self._edge_array = arr
        return self._edge_array

    @property
    def n_edges(self) -> int:
        """Number of undirected edges (half the CSR directed-entry count)."""
        return int(self._indices.size) // 2

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """The CSR adjacency view as read-only ``(indptr, indices)``.

        ``indices[indptr[u]:indptr[u+1]]`` are ``u``'s neighbors, sorted
        ascending; both arrays are views of the graph's internal storage.
        """
        indptr = self._indptr.view()
        indptr.flags.writeable = False
        indices = self._indices.view()
        indices.flags.writeable = False
        return indptr, indices

    def edge_values(self, get) -> np.ndarray:
        """Per-directed-edge values aligned with the CSR ``indices`` array.

        ``get(u, v) -> float`` is queried once per directed CSR entry (so
        symmetric sources, e.g. measured distances, appear on both
        directions of every edge).  The result lets bulk consumers replace
        per-pair lookups with fancy indexing: the value for the edge stored
        at CSR position ``p`` (row ``u``, column ``indices[p]``) is simply
        ``values[p]``.
        """
        heads = np.repeat(np.arange(self.n_nodes), np.diff(self._indptr))
        return np.fromiter(
            (get(int(u), int(v)) for u, v in zip(heads, self._indices)),
            dtype=float,
            count=self._indices.size,
        )

    def distance(self, u: int, v: int) -> float:
        """True Euclidean distance between two nodes."""
        return float(np.linalg.norm(self._positions[u] - self._positions[v]))

    # ------------------------------------------------------------------
    # BFS machinery (full graph or induced subgraph)
    # ------------------------------------------------------------------

    def bfs_hops(
        self,
        sources: Iterable[int],
        *,
        within: Optional[Set[int]] = None,
        max_hops: Optional[int] = None,
    ) -> Dict[int, int]:
        """Hop distance from the nearest source to every reachable node.

        Parameters
        ----------
        sources:
            Starting nodes (hop 0).
        within:
            When given, BFS runs on the subgraph induced by this node set;
            sources outside it are ignored.
        max_hops:
            Stop expanding beyond this hop count.

        Returns
        -------
        dict
            ``node -> hops`` for every node reached.
        """
        hops: Dict[int, int] = {}
        queue: deque = deque()
        for s in sorted(set(int(s) for s in sources)):
            if within is not None and s not in within:
                continue
            hops[s] = 0
            queue.append(s)
        while queue:
            u = queue.popleft()
            if max_hops is not None and hops[u] >= max_hops:
                continue
            for v in self._adjacency[u]:
                v = int(v)
                if v in hops:
                    continue
                if within is not None and v not in within:
                    continue
                hops[v] = hops[u] + 1
                queue.append(v)
        return hops

    def hop_reach(
        self,
        sources: Sequence[int],
        hops: int,
        *,
        within: Optional[Iterable[int]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """An independent ``hops``-bounded BFS from every source, as CSR.

        Row ``i`` (``nodes``/``hop`` over ``indptr[i]:indptr[i+1]``) equals
        ``bfs_hops([sources[i]], within=within, max_hops=hops)``, nodes
        ascending; duplicate sources give duplicate rows, and a source
        outside ``within`` an empty one.  With ``within`` the sweep runs on
        the induced subgraph relabelled to a compact index, so its hop
        table is only as wide as the subgraph.  Returns int64
        ``(indptr, nodes, hop)``.
        """
        if hops < 0:
            raise ValueError("hops must be non-negative")
        if within is None:
            return _sweep(self._indptr, self._indices, self._source_array(sources), hops)
        sub = self._member_array(within)
        src = self._source_array(sources)
        label = np.full(self.n_nodes, -1, dtype=np.int64)
        label[sub] = np.arange(sub.size)
        # The induced subgraph's CSR: the members' rows, restricted to
        # member columns and relabelled into [0, len(sub)).
        cols, counts = _gather_rows(self._indptr, self._indices, sub)
        keep = label[cols] >= 0
        rows = np.repeat(np.arange(sub.size), counts)[keep]
        sub_indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=sub.size))))
        indptr, local, hop = _sweep(sub_indptr, label[cols[keep]], label[src], hops)
        return indptr, sub[local], hop

    def nearest_source(
        self,
        sources: Sequence[int],
        *,
        within: Optional[Iterable[int]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Hop distance to, and ID of, the nearest source for every node.

        One level-synchronous multi-source BFS.  ``hops`` equals
        ``bfs_hops(sources, within=within)``; ``owner`` is the lowest-ID
        source at that distance.  A node first reached at level ``h`` takes
        the minimum owner among its neighbours at level ``h - 1``: every
        shortest path to it runs through one of them, so that minimum is
        the smallest source at distance ``h``.  Both int64 arrays are
        indexed by node ID and hold ``-1`` where no source reaches.
        """
        n = self.n_nodes
        inside = np.zeros(n, dtype=bool)
        inside[np.arange(n) if within is None else self._member_array(within)] = True
        src = np.unique(self._source_array(sources))
        src = src[inside[src]]
        hops = np.full(n, -1, dtype=np.int64)
        owner = np.full(n, -1, dtype=np.int64)
        hops[src] = 0
        owner[src] = src
        frontier = src
        level = 0
        while frontier.size:
            level += 1
            dst, counts = _gather_rows(self._indptr, self._indices, frontier)
            fresh = (hops[dst] < 0) & inside[dst]
            dst = dst[fresh]
            via = np.repeat(owner[frontier], counts)[fresh]
            frontier = np.unique(dst)
            hops[frontier] = level
            owner[frontier] = n  # above every ID: the minimum is taken over ``via``
            np.minimum.at(owner, dst, via)
        return hops, owner

    def k_hop_collections(
        self, hops: int, *, sources: Optional[Sequence[int]] = None
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """:meth:`hop_reach` as a list of ``(nodes, hop_counts)`` per source.

        ``sources`` defaults to every node; each pair includes the source
        itself at hop 0.  Rows are per-source independent, so any subset
        returns exactly what the full sweep would.
        """
        indptr, nodes, hop = self.hop_reach(
            np.arange(self.n_nodes) if sources is None else sources, hops
        )
        bounds = indptr.tolist()
        return [(nodes[a:b], hop[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]

    def _source_array(self, sources: Sequence[int]) -> np.ndarray:
        src = np.asarray(sources, dtype=np.int64).reshape(-1)
        if src.size and (src.min() < 0 or src.max() >= self.n_nodes):
            raise ValueError("source ids must lie in [0, n_nodes)")
        return src

    def _member_array(self, within: Iterable[int]) -> np.ndarray:
        sub = np.unique(np.fromiter(within, dtype=np.int64))
        if sub.size and (sub[0] < 0 or sub[-1] >= self.n_nodes):
            raise IndexError("within holds ids outside [0, n_nodes)")
        return sub

    def shortest_path(
        self,
        source: int,
        target: int,
        *,
        within: Optional[Set[int]] = None,
    ) -> Optional[List[int]]:
        """Deterministic shortest hop path from ``source`` to ``target``.

        Ties are broken by preferring the lowest-ID parent at every BFS
        layer, so repeated runs -- and the distributed implementation in
        :mod:`repro.runtime` -- produce the identical path.  Returns None
        when ``target`` is unreachable (inside ``within`` if given).
        """
        if within is not None and (source not in within or target not in within):
            return None
        if source == target:
            return [source]
        parent: Dict[int, int] = {source: -1}
        queue: deque = deque([source])
        while queue:
            u = queue.popleft()
            # Neighbors are pre-sorted, so the first discoverer of any node
            # is its lowest-ID parent at the shallowest BFS depth.
            for v in self._adjacency[u]:
                v = int(v)
                if v in parent:
                    continue
                if within is not None and v not in within:
                    continue
                parent[v] = u
                if v == target:
                    path = [v]
                    while path[-1] != source:
                        path.append(parent[path[-1]])
                    return list(reversed(path))
                queue.append(v)
        return None

    def connected_components(
        self, *, within: Optional[Set[int]] = None
    ) -> List[List[int]]:
        """Connected components (each sorted) of the graph or a node subset.

        Components are returned sorted by their smallest member, matching
        the deterministic min-ID grouping of the distributed protocol.
        """
        if within is None:
            nodes: Sequence[int] = range(self.n_nodes)
            member = None
        else:
            nodes = sorted(within)
            member = within
        seen: Set[int] = set()
        components: List[List[int]] = []
        for start in nodes:
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            queue: deque = deque([start])
            while queue:
                u = queue.popleft()
                for v in self._adjacency[u]:
                    v = int(v)
                    if v in seen:
                        continue
                    if member is not None and v not in member:
                        continue
                    seen.add(v)
                    comp.append(v)
                    queue.append(v)
            components.append(sorted(comp))
        return components

    def is_connected(self) -> bool:
        """Whether the whole graph is a single connected component."""
        if self.n_nodes == 0:
            return True
        reached = self.bfs_hops([0])
        return len(reached) == self.n_nodes

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def induced_adjacency(self, nodes: Set[int]) -> Dict[int, List[int]]:
        """Adjacency dict of the subgraph induced by ``nodes``."""
        return {
            u: [int(v) for v in self._adjacency[u] if int(v) in nodes]
            for u in sorted(nodes)
        }

    def to_networkx(self):
        """Export to a ``networkx.Graph`` (positions in the ``pos`` attr)."""
        import networkx as nx

        g = nx.Graph()
        for i in range(self.n_nodes):
            g.add_node(i, pos=tuple(self._positions[i]))
        g.add_edges_from(self.edges())
        return g
