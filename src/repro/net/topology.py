"""Dynamic connectivity graph under the unit-disc radio model.

Two online nodes are neighbours when their Euclidean distance is at most
the communication range (250 m in Table 1).  Because nodes move, the
topology is a function of time; :class:`TopologyService` samples node
positions on demand and caches the resulting :class:`TopologySnapshot` for
a short quantum so that bursts of sends at (nearly) the same instant reuse
one graph.

Fast paths
----------
Snapshots sit in the inner loop of every experiment, so two optimisations
keep them cheap without changing any observable result.  Each refresh —
a new quantum, or a churn/invalidate notice inside one — builds a fresh
snapshot; within a quantum the cached snapshot is reused.

* **Spatial-hash adjacency build.**  Nodes are bucketed into a uniform
  grid with cell size equal to the radio range; only the 3x3 cell
  neighbourhood can contain nodes within range, so the build is
  O(N*k) for k nodes per neighbourhood instead of the naive O(N^2)
  all-pairs scan.  Adjacency is stored both as ordered lists (BFS and
  flood iteration order must stay deterministic) and as frozen sets for
  an O(1) :meth:`TopologySnapshot.has_edge`.
* **Per-source BFS memoisation.**  A snapshot is immutable, so one full
  O(V+E) traversal per source serves every subsequent ``shortest_path``,
  ``hop_distance``, ``bfs_levels``, flood and reachability query against
  that snapshot.  Traffic bursts within a topology quantum therefore pay
  for BFS once and do dict lookups afterwards.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import TopologyError
from repro.mobility.terrain import Point
from repro.net import soa

__all__ = ["TopologySnapshot", "TopologyService"]

# Population below which a *full* (unbounded) BFS runs on the dict
# adjacency even when a CSR view exists.  The dict traversal is faster
# per source at any scale; the CSR traversal only pays off when it saves
# materialising the adjacency from the CSR on a large snapshot that will
# likely see a single routing query before the next rebuild.
_FULL_BFS_CSR_MIN = 4096


class TopologySnapshot:
    """Immutable connectivity graph at one instant.

    Parameters
    ----------
    positions:
        Mapping of *online* node id to position.  Offline nodes simply do
        not appear: they can neither send, receive, nor forward.
    radio_range:
        Disc-model communication range in metres.
    edge_filter:
        Optional symmetric predicate ``(node_a, node_b, pos_a, pos_b) ->
        bool``; edges it rejects are removed *after* the normal build
        (fault-injected partitions).  ``None`` — the default — leaves the
        hot build path untouched.
    """

    def __init__(
        self,
        positions: Dict[int, Point],
        radio_range: float,
        edge_filter: Optional[
            Callable[[int, int, Point, Point], bool]
        ] = None,
    ) -> None:
        # ArrayPositions (the vectorized ledger's output) is already an
        # immutable snapshot-safe mapping: copying it into a dict would
        # materialise one Point per node, the very cost it exists to skip.
        if isinstance(positions, soa.ArrayPositions):
            self.positions = positions
        else:
            self.positions = dict(positions)
        self.radio_range = float(radio_range)
        self._edge_filter = edge_filter
        # source -> (levels, parents, items, prefix) of one full BFS, filled
        # lazily: items is levels as a list and prefix[d] counts nodes at
        # depth <= d, so depth-limited queries are a single list slice.
        self._bfs_cache: Dict[
            int,
            Tuple[Dict[int, int], Dict[int, int], List[Tuple[int, int]], List[int]],
        ] = {}
        # source -> ((levels, parents, items, prefix), complete) of a
        # depth-bounded vectorized BFS; levels <= the bound are identical
        # to the full traversal's, so TTL floods reuse them without ever
        # walking the whole graph.
        self._bfs_partial: Dict[int, Tuple[tuple, bool]] = {}
        # Compressed sparse-row view of the adjacency (vectorized builds
        # only); BFS traverses it in array ops instead of the dict lists.
        self._csr = None
        if (
            soa.HAVE_NUMPY
            and len(self.positions) >= soa.BUILD_MIN_NODES
            and soa.soa_enabled()
        ):
            self._csr = soa.build_csr(self.positions, self.radio_range)
        if self._csr is not None:
            # The dict-of-lists adjacency and the frozen neighbour sets
            # materialise lazily: a snapshot that only sees array BFS
            # never needs either, and has_edge builds the sets on first
            # touch.
            self._adjacency = None
            self._neighbor_sets = None
        else:
            self._adjacency = {node: [] for node in self.positions}
            self._build_adjacency()
        if edge_filter is not None:
            self._apply_edge_filter()
            self._csr = None  # filtered lists no longer match the CSR view

    # ------------------------------------------------------------------
    # Lazy companions of the adjacency (vectorized builds defer them)
    # ------------------------------------------------------------------
    @property
    def _adjacency(self) -> Dict[int, List[int]]:
        adjacency = self._adjacency_store
        if adjacency is None:
            adjacency = self._adjacency_store = soa.adjacency_from_csr(self._csr)
        return adjacency

    @_adjacency.setter
    def _adjacency(self, value) -> None:
        self._adjacency_store = value

    @property
    def _neighbor_sets(self) -> Dict[int, frozenset]:
        sets = self._sets_store
        if sets is None:
            sets = self._sets_store = {
                node: frozenset(neighbors)
                for node, neighbors in self._adjacency.items()
            }
        return sets

    @_neighbor_sets.setter
    def _neighbor_sets(self, value) -> None:
        self._sets_store = value

    def _apply_edge_filter(self) -> None:
        """Drop edges the filter rejects (fault-injected partitions).

        Runs as a separate post-pass so the unfiltered build — the hot
        path every normal refresh takes — pays nothing.  In-place
        filtering preserves the registration-rank neighbour order, so
        BFS traversal on the surviving graph matches what a from-scratch
        build of the cut topology would produce.  The filter must be
        symmetric in its endpoints or the adjacency becomes directed.
        """
        allowed = self._edge_filter
        positions = self.positions
        adjacency = self._adjacency
        neighbor_sets = self._neighbor_sets
        for node, neighbors in adjacency.items():
            pos = positions[node]
            kept = [
                other
                for other in neighbors
                if allowed(node, other, pos, positions[other])
            ]
            if len(kept) != len(neighbors):
                adjacency[node] = kept
                neighbor_sets[node] = frozenset(kept)

    def _build_adjacency(self) -> None:
        # Uniform spatial hash: with cell size == radio range, any node
        # within range of a cell lies in that cell's 3x3 neighbourhood.
        cell = self.radio_range if self.radio_range > 0 else 1.0
        grid: Dict[Tuple[int, int], List[Tuple[int, Point]]] = {}
        for node, pos in self.positions.items():
            key = (math.floor(pos.x / cell), math.floor(pos.y / cell))
            grid.setdefault(key, []).append((node, pos))
        adjacency = self._adjacency
        limit_sq = self.radio_range * self.radio_range
        # Half-neighbourhood offsets: each unordered cell pair is visited
        # exactly once; same-cell pairs are handled by the i<j inner loop.
        half = ((1, 0), (0, 1), (1, 1), (-1, 1))
        for (cx, cy), members in grid.items():
            for index, (node_a, pos_a) in enumerate(members):
                for node_b, pos_b in members[index + 1:]:
                    dx = pos_a.x - pos_b.x
                    dy = pos_a.y - pos_b.y
                    if dx * dx + dy * dy <= limit_sq:
                        adjacency[node_a].append(node_b)
                        adjacency[node_b].append(node_a)
            for ox, oy in half:
                other = grid.get((cx + ox, cy + oy))
                if other is None:
                    continue
                for node_a, pos_a in members:
                    for node_b, pos_b in other:
                        dx = pos_a.x - pos_b.x
                        dy = pos_a.y - pos_b.y
                        if dx * dx + dy * dy <= limit_sq:
                            adjacency[node_a].append(node_b)
                            adjacency[node_b].append(node_a)
        # The naive all-pairs build emitted each neighbour list sorted by
        # node insertion order; restore that order so BFS traversal (and
        # therefore every routing/flood decision) is bit-identical.
        order = {node: rank for rank, node in enumerate(self.positions)}
        for neighbors in adjacency.values():
            neighbors.sort(key=order.__getitem__)
        self._neighbor_sets = {
            node: frozenset(neighbors) for node, neighbors in adjacency.items()
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _key_set(self) -> Set[int]:
        # CPython presizes a set built from a dict differently from one
        # built from a generic iterable, and the internal table layout
        # leaks through iteration order once elements are discarded
        # (connected_components' seed picking, for one).  Route every
        # positions mapping through a dict so array-backed and plain-dict
        # snapshots produce byte-identical set behaviour.
        positions = self.positions
        if type(positions) is not dict:
            positions = dict.fromkeys(positions)
        return set(positions)

    @property
    def nodes(self) -> Set[int]:
        """Identifiers of the online nodes in this snapshot."""
        return self._key_set()

    def __contains__(self, node: int) -> bool:
        return node in self.positions

    def neighbors(self, node: int) -> List[int]:
        """Online one-hop neighbours of ``node``."""
        try:
            return list(self._adjacency[node])
        except KeyError:
            raise TopologyError(f"node {node!r} is not online in this snapshot") from None

    def has_edge(self, node_a: int, node_b: int) -> bool:
        """O(1) check whether a radio link ``node_a -- node_b`` exists.

        Returns ``False`` (rather than raising) when either endpoint is
        not online in this snapshot, so route-liveness scans need no
        separate membership pass.
        """
        sets = self._sets_store
        if sets is None:
            sets = self._neighbor_sets  # materialise once, then hit the store
        members = sets.get(node_a)
        return members is not None and node_b in members

    def degree(self, node: int) -> int:
        """Number of one-hop neighbours of ``node``."""
        return len(self.neighbors(node))

    def _bfs_from(
        self, source: int
    ) -> Tuple[Dict[int, int], Dict[int, int], List[Tuple[int, int]], List[int]]:
        """Full BFS tree from ``source``, computed once per snapshot."""
        cached = self._bfs_cache.get(source)
        if cached is not None:
            return cached
        # Both traversals produce the same quadruple bit-for-bit (the CSR
        # preserves registration-rank neighbour order), so the choice is
        # purely a speed call: the dict BFS is faster per source, but on a
        # big vectorized snapshot whose adjacency was never materialised
        # the array traversal avoids paying adjacency_from_csr for what is
        # typically a single routing query.
        if (
            self._csr is not None
            and self._adjacency_store is None
            and len(self.positions) >= _FULL_BFS_CSR_MIN
        ):
            cached = soa.bfs_from_csr(self._csr, source)
            self._bfs_cache[source] = cached
            return cached
        # Level-synchronous BFS: same discovery order as a FIFO queue, but
        # without per-node deque and depth-lookup overhead.
        levels: Dict[int, int] = {source: 0}
        parents: Dict[int, int] = {source: source}
        adjacency = self._adjacency
        frontier = [source]
        depth = 0
        while frontier:
            depth += 1
            next_frontier: List[int] = []
            for current in frontier:
                for neighbor in adjacency[current]:
                    if neighbor not in levels:
                        levels[neighbor] = depth
                        parents[neighbor] = current
                        next_frontier.append(neighbor)
            frontier = next_frontier
        items = list(levels.items())
        # items is in nondecreasing-depth order; prefix[d] = |{depth <= d}|.
        prefix: List[int] = []
        for index, (_, depth) in enumerate(items):
            while len(prefix) <= depth:
                prefix.append(index)
            prefix[depth] = index + 1
        cached = (levels, parents, items, prefix)
        self._bfs_cache[source] = cached
        return cached

    @property
    def bfs_cache_size(self) -> int:
        """Number of sources whose BFS tree is currently memoised."""
        return len(self._bfs_cache)

    def shortest_path(self, source: int, target: int) -> Optional[List[int]]:
        """Hop-minimal path from ``source`` to ``target`` (inclusive).

        Returns ``None`` when the nodes are partitioned, ``[source]`` when
        ``source == target``.
        """
        if source not in self.positions:
            raise TopologyError(f"source node {source!r} is not online")
        if target not in self.positions:
            return None
        if source == target:
            return [source]
        levels, parents, _, _ = self._bfs_from(source)
        if target not in levels:
            return None
        return self._walk_back(parents, source, target)

    @staticmethod
    def _walk_back(parents: Dict[int, int], source: int, target: int) -> List[int]:
        path = [target]
        node = target
        while node != source:
            node = parents[node]
            path.append(node)
        path.reverse()
        return path

    def hop_distance(self, source: int, target: int) -> Optional[int]:
        """Number of hops on a shortest path, or ``None`` if unreachable."""
        if source not in self.positions:
            raise TopologyError(f"source node {source!r} is not online")
        if target not in self.positions:
            return None
        levels, _, _, _ = self._bfs_from(source)
        return levels.get(target)

    def bfs_levels(self, source: int, max_depth: Optional[int] = None) -> Dict[int, int]:
        """Hop distance from ``source`` for every node within ``max_depth``.

        The source itself appears with depth 0.  This drives TTL-limited
        flooding: nodes at depth ``d <= TTL`` hear the flood.  The returned
        dict preserves BFS discovery order and is a fresh copy the caller
        may mutate.
        """
        if source not in self.positions:
            raise TopologyError(f"source node {source!r} is not online")
        if (
            self._csr is not None
            and max_depth is not None
            and max_depth >= 0
            and source not in self._bfs_cache
        ):
            # Depth-bounded vectorized BFS: a TTL flood only needs the
            # first few levels, so skip the far side of the graph.  The
            # bounded run is reused while it covers the requested depth;
            # ``complete`` marks traversals that exhausted the component
            # before the bound and therefore cover any depth.
            entry = self._bfs_partial.get(source)
            if entry is None or not (entry[1] or len(entry[0][3]) - 1 >= max_depth):
                quad = soa.bfs_from_csr(self._csr, source, max_depth)
                entry = (quad, len(quad[3]) - 1 < max_depth)
                self._bfs_partial[source] = entry
            levels, _, items, prefix = entry[0]
            if max_depth >= len(prefix) - 1:
                return dict(levels)
            return dict(items[: prefix[max_depth]])
        levels, _, items, prefix = self._bfs_from(source)
        # items is in BFS discovery order, i.e. nondecreasing depth, so the
        # depth limit selects a precomputed prefix of the traversal.
        if max_depth is None or max_depth >= len(prefix) - 1:
            return dict(levels)
        if max_depth < 0:
            max_depth = 0
        return dict(items[: prefix[max_depth]])

    def connected_components(self) -> List[Set[int]]:
        """Partition of the online nodes into connected components."""
        remaining = self._key_set()
        components: List[Set[int]] = []
        while remaining:
            seed = next(iter(remaining))
            component = set(self.bfs_levels(seed))
            components.append(component)
            remaining -= component
        return components

    def is_connected(self) -> bool:
        """``True`` when all online nodes form a single component."""
        if not self.positions:
            return True
        return len(self.connected_components()) == 1

    def edge_count(self) -> int:
        """Number of undirected radio links in the snapshot."""
        if self._adjacency_store is None and self._csr is not None:
            return self._csr.neighbors.shape[0] // 2
        return sum(len(neighbors) for neighbors in self._adjacency.values()) // 2


class TopologyService:
    """Samples node state into cached :class:`TopologySnapshot` objects.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current simulation time.
    node_states:
        Callable returning the *current* iterable of ``(node_id, position,
        online)`` triples.  The network layer supplies this from its node
        registry; the position of an offline node is never read (and may be
        ``None``).
    radio_range:
        Disc-model communication range in metres.
    quantum:
        Snapshots are reused for this many seconds.  With 20 m/s peak node
        speed, a 1 s quantum bounds position error by 20 m — well under the
        250 m radio range.

    A refresh — the first call in a new bucket, or any call after
    :meth:`note_churn` or :meth:`invalidate` — builds a fresh snapshot;
    calls inside the bucket return the cached one.

    Counters: ``snapshots_built`` counts builds and ``invalidations``
    churn/invalidate notices.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        node_states: Callable[[], Iterable[Tuple[int, Optional[Point], bool]]],
        radio_range: float,
        quantum: float = 1.0,
        position_source=None,
    ) -> None:
        if radio_range <= 0:
            raise TopologyError(f"radio_range must be positive, got {radio_range!r}")
        if quantum <= 0:
            raise TopologyError(f"quantum must be positive, got {quantum!r}")
        self._clock = clock
        self._node_states = node_states
        # Optional SoA position ledger (repro.net.soa.SoAPositionLedger):
        # when set, refreshes take the online positions straight from its
        # arrays instead of iterating node_states.
        self._position_source = position_source
        self.radio_range = float(radio_range)
        self.quantum = float(quantum)
        self._cached: Optional[TopologySnapshot] = None
        self._cached_bucket: Optional[int] = None
        # Fault-injected edge suppression (network partitions).  Callers
        # that change this must call invalidate() in the same instant, or
        # the cached snapshot keeps the old filter until the next bucket.
        self.edge_filter: Optional[
            Callable[[int, int, Point, Point], bool]
        ] = None
        self.snapshots_built = 0
        self.invalidations = 0

    def current(self) -> TopologySnapshot:
        """Return the snapshot for the current time bucket."""
        now = self._clock()
        bucket = int(math.floor(now / self.quantum))
        if self._cached is not None and bucket == self._cached_bucket:
            return self._cached
        if self._position_source is not None:
            positions = self._position_source.refresh(now)
        else:
            positions = {
                node_id: position
                for node_id, position, online in self._node_states()
                if online
            }
        self._cached = TopologySnapshot(
            positions, self.radio_range, edge_filter=self.edge_filter
        )
        self._cached_bucket = bucket
        self.snapshots_built += 1
        return self._cached

    def note_churn(self, node_id: int) -> None:
        """Record that ``node_id`` flipped online/offline.

        Drops the cached snapshot so the next :meth:`current` call
        rebuilds even inside the current quantum — otherwise traffic for
        the rest of the quantum could route through a node that just
        went offline.
        """
        self.invalidate()

    def invalidate(self) -> None:
        """Drop the cached snapshot entirely (next refresh rebuilds)."""
        self._cached = None
        self._cached_bucket = None
        self.invalidations += 1

    def stats(self) -> Dict[str, int]:
        """Counter snapshot for result reporting (CLI footer, benchmarks).

        ``snapshots_reused`` and ``incremental_updates`` are always 0
        (every refresh builds); they stay because result readers such as
        the perfbench traced run index them.
        """
        return {
            "snapshots_built": self.snapshots_built,
            "snapshots_reused": 0,
            "incremental_updates": 0,
            "invalidations": self.invalidations,
        }
