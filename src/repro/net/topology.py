"""Dynamic connectivity graph under the unit-disc radio model.

Two online nodes are neighbours when their Euclidean distance is at most
the communication range (250 m in Table 1).  Because nodes move, the
topology is a function of time; :class:`TopologyService` samples node
positions on demand and caches the resulting :class:`TopologySnapshot` for
a short quantum so that bursts of sends at (nearly) the same instant reuse
one graph.

Fast paths
----------
Snapshots sit in the inner loop of every experiment: each refresh — a
new quantum, or a churn/invalidate notice inside one — builds a fresh
snapshot, and within a quantum the cached snapshot is reused.  How the
adjacency is stored depends on the snapshot's size, split by
:data:`repro.net.soa.BUILD_MIN_NODES`; every regime yields the same
neighbour lists, BFS orders and routes.

* **Rank bitmasks (fewer than ``BUILD_MIN_NODES`` nodes).**  One Python
  ``int`` per registration rank, bit ``b`` set for each neighbour rank
  ``b``.  The vectorized core fills them in one dense numpy pass over the
  position ledger's arrays; otherwise the scalar spatial-hash scan below
  sets bits from its in-range pairs.  BFS,
  :meth:`TopologySnapshot.has_edge` and
  :meth:`TopologySnapshot.edge_count` run on the masks; ascending bit
  order *is* registration-rank order, so no neighbour list is ever
  sorted.  This is the paper's 50-peer regime.
* **CSR (large, numpy).**  A compressed sparse row built by the
  vectorized spatial grid (:func:`repro.net.soa.build_csr`).
* **Dict of lists (large, no numpy or ``REPRO_SOA=0``).**  Filled from
  the same scalar scan: nodes are bucketed into a uniform grid with cell
  size equal to the radio range; only the 3x3 cell neighbourhood can
  contain nodes within range, so the scan is O(N*k) for k nodes per
  neighbourhood instead of the naive O(N^2) all-pairs scan.

The dict-of-lists view and the frozen neighbour sets of the first two
regimes, and the sets of the third, materialise only on demand.

**Per-source BFS memoisation.**  A snapshot is immutable, so one full
O(V+E) traversal per source serves every subsequent ``shortest_path``,
``hop_distance``, ``bfs_levels``, flood and reachability query against
that snapshot.
"""

from __future__ import annotations

import math
from itertools import islice
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

# One BFS result: (levels, parents, prefix).  ``levels`` maps node ->
# depth in discovery order (nondecreasing depth) and ``prefix[d]``
# counts the nodes at depth <= d, so a depth-limited query is a slice
# of ``levels.items()``.
BfsTree = Tuple[Dict[int, int], Dict[int, int], List[int]]


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
        # source -> (levels, parents, prefix) of one full BFS, filled lazily.
        self._bfs_cache: Dict[int, BfsTree] = {}
        # source -> ((levels, parents, prefix), complete) of a
        # depth-bounded vectorized BFS; levels <= the bound are identical
        # to the full traversal's, so TTL floods reuse them without ever
        # walking the whole graph.
        self._bfs_partial: Dict[int, Tuple[BfsTree, bool]] = {}
        # Exactly one adjacency representation is built eagerly: rank
        # bitmasks (small snapshots), a CSR (large, vectorized) or the
        # dict of lists (large, scalar).  The dict view and the frozen
        # neighbour sets materialise from it on first touch.
        self._masks: Optional[List[int]] = None
        self._csr = None
        self._adjacency_store: Optional[Dict[int, List[int]]] = None
        self._sets_store: Optional[Dict[int, frozenset]] = None
        # Membership table of the queries: the id -> rank dict of a mask
        # snapshot (a plain dict even over ArrayPositions), else positions.
        self._members = self.positions
        count = len(self.positions)
        if count < soa.BUILD_MIN_NODES:
            if soa.soa_enabled():
                ids, self._masks = soa.build_masks(self.positions, self.radio_range)
            else:
                ids, self._masks = self._build_masks()
            self._ids = ids
            self._members = dict(zip(ids, range(count)))
        elif soa.HAVE_NUMPY and soa.soa_enabled():
            self._csr = soa.build_csr(self.positions, self.radio_range)
        if self._masks is None and self._csr is None:
            self._adjacency_store = self._build_adjacency()
        if edge_filter is not None:
            self._apply_edge_filter()

    # ------------------------------------------------------------------
    # Lazy companions of the adjacency
    # ------------------------------------------------------------------
    @property
    def _adjacency(self) -> Dict[int, List[int]]:
        adjacency = self._adjacency_store
        if adjacency is None:
            if self._masks is not None:
                ids = self._ids
                adjacency = {
                    node: [ids[rank] for rank in _bits(mask)]
                    for node, mask in zip(ids, self._masks)
                }
            else:
                adjacency = soa.adjacency_from_csr(self._csr)
            self._adjacency_store = adjacency
        return adjacency

    @property
    def _neighbor_sets(self) -> Dict[int, frozenset]:
        sets = self._sets_store
        if sets is None:
            sets = self._sets_store = {
                node: frozenset(neighbors)
                for node, neighbors in self._adjacency.items()
            }
        return sets

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
        masks = self._masks
        if masks is not None:
            ids = self._ids
            for rank, mask in enumerate(masks):
                node = ids[rank]
                pos = positions[node]
                for other in _bits(mask):
                    node_b = ids[other]
                    if not allowed(node, node_b, pos, positions[node_b]):
                        masks[rank] ^= 1 << other
            return
        adjacency = self._adjacency
        self._csr = None  # filtered lists no longer match the CSR view
        for node, neighbors in adjacency.items():
            pos = positions[node]
            kept = [
                other
                for other in neighbors
                if allowed(node, other, pos, positions[other])
            ]
            if len(kept) != len(neighbors):
                adjacency[node] = kept

    def _scan(
        self, tag: Callable[[int], int]
    ) -> Tuple[List[int], List[List[int]]]:
        """Scalar spatial-hash scan shared by the mask and dict builds.

        Returns ``(ids, near)``: ``ids[r]`` is the node at registration
        rank ``r`` and ``near[r]`` holds ``tag(s)`` for every rank ``s``
        within range of it, in scan order.  With cell size == radio
        range, any node within range of a cell lies in that cell's 3x3
        neighbourhood, so the scan is O(N*k) for k nodes per
        neighbourhood instead of the naive O(N^2) all-pairs scan.
        """
        cell = self.radio_range if self.radio_range > 0 else 1.0
        limit_sq = self.radio_range * self.radio_range
        grid: Dict[Tuple[int, int], List[Tuple[int, int, float, float]]] = {}
        ids: List[int] = []
        for rank, (node, pos) in enumerate(self.positions.items()):
            ids.append(node)
            x, y = pos.x, pos.y
            key = (math.floor(x / cell), math.floor(y / cell))
            grid.setdefault(key, []).append((rank, tag(rank), x, y))
        near: List[List[int]] = [[] for _ in ids]
        # Half-neighbourhood offsets: each unordered cell pair is visited
        # exactly once; same-cell pairs are handled by the i<j inner loop.
        half = ((1, 0), (0, 1), (1, 1), (-1, 1))
        for (cx, cy), members in grid.items():
            for index, (rank_a, tag_a, xa, ya) in enumerate(members):
                for rank_b, tag_b, xb, yb in members[index + 1:]:
                    dx = xa - xb
                    dy = ya - yb
                    if dx * dx + dy * dy <= limit_sq:
                        near[rank_a].append(tag_b)
                        near[rank_b].append(tag_a)
            for ox, oy in half:
                other = grid.get((cx + ox, cy + oy))
                if other is None:
                    continue
                for rank_a, tag_a, xa, ya in members:
                    for rank_b, tag_b, xb, yb in other:
                        dx = xa - xb
                        dy = ya - yb
                        if dx * dx + dy * dy <= limit_sq:
                            near[rank_a].append(tag_b)
                            near[rank_b].append(tag_a)
        return ids, near

    def _build_masks(self) -> Tuple[List[int], List[int]]:
        """Scalar build of the rank bitmasks: bit order is rank order."""
        ids, near = self._scan((1).__lshift__)
        # Each neighbour contributes a distinct bit, so the sum is the union.
        return ids, list(map(sum, near))

    def _build_adjacency(self) -> Dict[int, List[int]]:
        """Scalar build of the dict of lists."""
        ids, near = self._scan(lambda rank: rank)
        # The naive all-pairs build emitted each neighbour list sorted by
        # node insertion order; keep that order so BFS traversal (and
        # therefore every routing/flood decision) is bit-identical.
        return {
            node: [ids[rank] for rank in sorted(ranks)]
            for node, ranks in zip(ids, near)
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _key_set(self) -> Set[int]:
        # CPython presizes a set built from a dict differently from one
        # built from a generic iterable, and the internal table layout
        # leaks through iteration order once elements are discarded
        # (connected_components' seed picking, for one).  Route every
        # membership table through a dict so array-backed and plain-dict
        # snapshots produce byte-identical set behaviour.
        members = self._members
        if type(members) is not dict:
            members = dict.fromkeys(members)
        return set(members)

    @property
    def nodes(self) -> Set[int]:
        """Identifiers of the online nodes in this snapshot."""
        return self._key_set()

    def __contains__(self, node: int) -> bool:
        return node in self._members

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
        masks = self._masks
        if masks is not None:
            rank = self._members
            rank_a = rank.get(node_a)
            rank_b = rank.get(node_b)
            if rank_a is None or rank_b is None:
                return False
            return (masks[rank_a] >> rank_b) & 1 == 1
        sets = self._sets_store
        if sets is None:
            sets = self._neighbor_sets  # materialise once, then hit the store
        members = sets.get(node_a)
        return members is not None and node_b in members

    def degree(self, node: int) -> int:
        """Number of one-hop neighbours of ``node``."""
        return len(self.neighbors(node))

    def _bfs_from(self, source: int) -> BfsTree:
        """Full BFS tree from ``source``, computed once per snapshot."""
        cached = self._bfs_cache.get(source)
        if cached is not None:
            return cached
        if self._masks is not None:
            cached = self._bfs_masks(source)
        # The CSR and dict traversals produce the same triple bit-for-bit
        # (the CSR preserves registration-rank neighbour order), so the
        # choice is purely a speed call: the dict BFS is faster per
        # source, but on a big vectorized snapshot whose adjacency was
        # never materialised the array traversal avoids paying
        # adjacency_from_csr for what is typically a single routing query.
        elif (
            self._csr is not None
            and self._adjacency_store is None
            and len(self.positions) >= _FULL_BFS_CSR_MIN
        ):
            cached = soa.bfs_from_csr(self._csr, source)
        else:
            cached = self._bfs_lists(source)
        self._bfs_cache[source] = cached
        return cached

    def _bfs_masks(self, source: int) -> BfsTree:
        # Level-synchronous BFS over the rank bitmasks.  A frontier node's
        # undiscovered neighbours are ``mask & unseen``, visited in
        # ascending rank order — exactly the dict traversal's order.
        ids = self._ids
        masks = self._masks
        start = self._members[source]
        levels: Dict[int, int] = {source: 0}
        parents: Dict[int, int] = {source: source}
        unseen = ((1 << len(ids)) - 1) ^ (1 << start)
        frontier = [start]
        prefix = [1]
        depth = 0
        while True:
            depth += 1
            next_frontier: List[int] = []
            append = next_frontier.append
            for current in frontier:
                fresh = masks[current] & unseen
                if fresh:
                    unseen ^= fresh
                    parent = ids[current]
                    while fresh:
                        low = fresh & -fresh
                        rank = low.bit_length() - 1
                        node = ids[rank]
                        levels[node] = depth
                        parents[node] = parent
                        append(rank)
                        fresh ^= low
            if not next_frontier:
                return levels, parents, prefix
            prefix.append(prefix[-1] + len(next_frontier))
            frontier = next_frontier

    def _bfs_lists(self, source: int) -> BfsTree:
        # Level-synchronous BFS: same discovery order as a FIFO queue, but
        # without per-node deque and depth-lookup overhead.
        levels: Dict[int, int] = {source: 0}
        parents: Dict[int, int] = {source: source}
        adjacency = self._adjacency
        frontier = [source]
        prefix = [1]
        depth = 0
        while True:
            depth += 1
            next_frontier: List[int] = []
            append = next_frontier.append
            for current in frontier:
                for neighbor in adjacency[current]:
                    if neighbor not in levels:
                        levels[neighbor] = depth
                        parents[neighbor] = current
                        append(neighbor)
            if not next_frontier:
                return levels, parents, prefix
            prefix.append(prefix[-1] + len(next_frontier))
            frontier = next_frontier

    @property
    def bfs_cache_size(self) -> int:
        """Number of sources whose BFS tree is currently memoised."""
        return len(self._bfs_cache)

    def shortest_path(self, source: int, target: int) -> Optional[List[int]]:
        """Hop-minimal path from ``source`` to ``target`` (inclusive).

        Returns ``None`` when the nodes are partitioned, ``[source]`` when
        ``source == target``.
        """
        members = self._members
        if source not in members:
            raise TopologyError(f"source node {source!r} is not online")
        if target not in members:
            return None
        if source == target:
            return [source]
        levels, parents, _ = self._bfs_from(source)
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
        members = self._members
        if source not in members:
            raise TopologyError(f"source node {source!r} is not online")
        if target not in members:
            return None
        levels, _, _ = self._bfs_from(source)
        return levels.get(target)

    def bfs_levels(self, source: int, max_depth: Optional[int] = None) -> Dict[int, int]:
        """Hop distance from ``source`` for every node within ``max_depth``.

        The source itself appears with depth 0.  This drives TTL-limited
        flooding: nodes at depth ``d <= TTL`` hear the flood.  The returned
        dict preserves BFS discovery order and is a fresh copy the caller
        may mutate.
        """
        if source not in self._members:
            raise TopologyError(f"source node {source!r} is not online")
        if max_depth is not None and max_depth < 0:
            max_depth = 0
        if (
            self._csr is not None
            and max_depth is not None
            and source not in self._bfs_cache
        ):
            # Depth-bounded vectorized BFS: a TTL flood only needs the
            # first few levels, so skip the far side of the graph.  The
            # bounded run is reused while it covers the requested depth;
            # ``complete`` marks traversals that exhausted the component
            # before the bound and therefore cover any depth.
            entry = self._bfs_partial.get(source)
            if entry is None or not (entry[1] or len(entry[0][2]) - 1 >= max_depth):
                tree = soa.bfs_from_csr(self._csr, source, max_depth)
                entry = (tree, len(tree[2]) - 1 < max_depth)
                self._bfs_partial[source] = entry
            levels, _, prefix = entry[0]
        else:
            levels, _, prefix = self._bfs_from(source)
        # levels is in BFS discovery order, i.e. nondecreasing depth, so
        # the depth limit selects a precomputed prefix of the traversal.
        if max_depth is None or max_depth >= len(prefix) - 1:
            return dict(levels)
        return dict(islice(levels.items(), prefix[max_depth]))

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
        if self._masks is not None:
            return sum(mask.bit_count() for mask in self._masks) // 2
        if self._adjacency_store is None:
            return self._csr.neighbors.shape[0] // 2
        return sum(len(neighbors) for neighbors in self._adjacency_store.values()) // 2


def _bits(mask: int) -> Iterable[int]:
    """Set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
