"""Struct-of-arrays fast path for the per-quantum hot loop.

This module holds every numpy-accelerated kernel the network layer can
substitute for its pure-Python inner loops:

* :func:`build_adjacency` — the spatial-hash adjacency build of
  :class:`~repro.net.topology.TopologySnapshot`, with cell keys computed by
  integer floor-divide and candidate-pair distance checks as array ops.
* :func:`bfs_from_csr` — the level-synchronous BFS over a compressed
  sparse-row view of the snapshot, reproducing the scalar traversal's
  discovery order (and therefore parents, items and depth prefix) exactly.
* :class:`SoAPositionLedger` — node positions, online flags and
  position-validity deadlines in contiguous arrays, with bulk mobility
  kernels (:mod:`repro.mobility.bulk`) evaluating whole populations per
  refresh and batched validity-window expiry sampling only the nodes
  whose windows actually lapsed.

Everything here is *optional*: numpy ships as the ``perf`` extra.  With
numpy absent — or ``REPRO_SOA=0`` in the environment — :func:`soa_enabled`
is false and the existing scalar code paths run unchanged.  With the fast
path active every observable result (neighbour lists, snapshots, golden
e2e digests) is bit-identical to the scalar path: all float arithmetic is
IEEE-754 double precision applied in the same operation order, and every
ordering the scalar code derives from dict insertion is reproduced from
the registration-rank arrays.
"""

from __future__ import annotations

import math
import os
from collections.abc import Mapping
from typing import Dict, Iterator, List, Optional, Tuple

from repro.mobility.terrain import Point

__all__ = [
    "HAVE_NUMPY",
    "soa_enabled",
    "ArrayPositions",
    "CsrAdjacency",
    "build_csr",
    "adjacency_from_csr",
    "bfs_from_csr",
    "SoAPositionLedger",
]

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - depends on the install
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

#: Below this population the scalar build wins (numpy call overhead
#: dominates); the property tests drop it to 0 to cover tiny graphs.
BUILD_MIN_NODES = 64


def soa_enabled() -> bool:
    """Whether the vectorized core should run.

    ``REPRO_SOA=0`` forces the scalar path even with numpy installed;
    ``REPRO_SOA=1`` (or unset) selects the vectorized path whenever numpy
    is importable.  Read dynamically so tests can flip the override.
    """
    if not HAVE_NUMPY:
        return False
    return os.environ.get("REPRO_SOA", "1") != "0"


# ----------------------------------------------------------------------
# Vectorized adjacency build
# ----------------------------------------------------------------------
def _ragged_take(starts: "np.ndarray", counts: "np.ndarray") -> "np.ndarray":
    """Indices of the concatenation of ``arange(s, s+c)`` per (s, c) pair."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # One fused repeat: start - exclusive-prefix-sum per group, so adding
    # arange(total) yields start + within-group offset in a single pass.
    cum = np.cumsum(counts)
    base = starts + counts
    base -= cum
    out = np.repeat(base, counts)
    out += np.arange(total, dtype=np.int64)
    return out


class CsrAdjacency:
    """Compressed sparse-row adjacency over registration ranks.

    ``neighbors[indptr[r]:indptr[r+1]]`` lists the neighbour *ranks* of
    the node at rank ``r``, ascending; ``ids[r]`` maps rank back to node
    id.  The id-to-rank table materialises lazily — BFS needs it for one
    source lookup, and many snapshots are never traversed at all.
    """

    __slots__ = ("indptr", "neighbors", "ids", "_rank_table", "_ids_sorted")

    def __init__(self, indptr, neighbors, ids) -> None:
        self.indptr = indptr
        self.neighbors = neighbors
        self.ids = ids
        self._rank_table: Optional[Dict[int, int]] = None
        self._ids_sorted: Optional[bool] = None

    def rank_of(self, node: int) -> int:
        ids_sorted = self._ids_sorted
        if ids_sorted is None:
            # Registration order normally assigns ascending ids, so a
            # binary search replaces the per-snapshot Python dict of every
            # node; one cached vector compare validates the assumption.
            ids = self.ids
            ids_sorted = self._ids_sorted = bool(
                ids.shape[0] == 0 or bool((ids[1:] > ids[:-1]).all())
            )
        if ids_sorted:
            ids = self.ids
            index = int(np.searchsorted(ids, node))
            if index < ids.shape[0] and int(ids[index]) == node:
                return index
            raise KeyError(node)
        table = self._rank_table
        if table is None:
            table = self._rank_table = {
                node_id: rank for rank, node_id in enumerate(self.ids.tolist())
            }
        return table[node]


def build_csr(
    positions: Dict[int, Point], radio_range: float
) -> Optional[CsrAdjacency]:
    """Vectorized unit-disc adjacency over ``positions``.

    Returns the :class:`CsrAdjacency` whose per-node neighbour segments
    are element-for-element equal to the scalar spatial-hash build
    (:func:`adjacency_from_csr` materialises the identical dict-of-lists
    on demand).  Returns ``None`` when the input cannot be vectorized
    (ids outside int64), letting the caller fall back to the scalar
    build.  An :class:`ArrayPositions` input is read from its backing
    arrays without materialising any ``Point``.
    """
    n = len(positions)
    if isinstance(positions, ArrayPositions):
        ids, xs, ys = positions.arrays()
    else:
        try:
            ids = np.fromiter(positions.keys(), dtype=np.int64, count=n)
        except (OverflowError, TypeError, ValueError):
            return None
        xs = np.fromiter((p.x for p in positions.values()), dtype=np.float64, count=n)
        ys = np.fromiter((p.y for p in positions.values()), dtype=np.float64, count=n)

    if n == 0:
        return CsrAdjacency(
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    cell = radio_range if radio_range > 0 else 1.0
    limit_sq = radio_range * radio_range
    # Cell coordinates match the scalar math.floor(x / cell) exactly.
    cx = np.floor(xs / cell).astype(np.int64)
    cy = np.floor(ys / cell).astype(np.int64)
    # Linearise with a +1 margin so the ±1 offsets below stay in range.
    cx -= cx.min() - 1
    cy -= cy.min() - 1
    height = int(cy.max()) + 2
    keys = cx * height + cy

    order = np.argsort(keys, kind="stable")  # rank order within each cell
    sorted_keys = keys[order]
    # Group boundaries of the (already sorted) keys: np.unique would sort
    # again, a flag-diff scan gets starts/counts in O(n).
    flags = np.empty(n, dtype=bool)
    flags[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=flags[1:])
    starts = np.nonzero(flags)[0]
    uniq = sorted_keys[starts]
    counts = np.empty(starts.shape[0], dtype=np.int64)
    counts[:-1] = starts[1:] - starts[:-1]
    counts[-1] = n - starts[-1]

    # Cell lookup: a dense key -> group table beats a log-n searchsorted
    # join whenever the grid is compact (the usual terrain); degenerate
    # sparse grids keep the searchsorted path.
    table_size = int(cx.max() + 2) * height
    group_of = None
    if table_size <= 4 * n + 1024:
        group_of = np.full(table_size, -1, dtype=np.int64)
        group_of[uniq] = np.arange(uniq.shape[0], dtype=np.int64)

    # Offset (0, 0) yields every ordered same-cell pair (the a < b filter
    # below keeps each unordered pair once); the four half-neighbourhood
    # offsets each yield every cross-cell pair exactly once — the same
    # coverage argument as the scalar build.  All five offsets run as one
    # batched (5, n) lookup; row-major flattening keeps the exact
    # offset-then-rank candidate order of the per-offset loop.
    offsets = np.array(
        [0, height, 1, height + 1, 1 - height], dtype=np.int64
    ).reshape(5, 1)
    targets = (keys + offsets).ravel()
    if group_of is not None:
        slot = group_of[targets]
        valid = slot >= 0
    else:
        slot = np.searchsorted(uniq, targets)
        slot[slot >= len(uniq)] = 0
        valid = uniq[slot] == targets
    cand_a = cand_b = None
    nz = np.nonzero(valid)[0]
    if nz.size:
        slot_sel = slot.take(nz)
        # Row index within the flattened (5, n) matrix mod n is the rank.
        a_sel = nz % n
        g_count = counts[slot_sel]
        take = _ragged_take(starts[slot_sel], g_count)
        b_rank = order[take]
        a_rank = np.repeat(a_sel, g_count)
        # Same-cell block: offset 0 is the first n rows of the flattened
        # matrix, so its expanded candidates form a prefix; a < b keeps
        # each unordered same-cell pair once.
        n0 = int(np.searchsorted(nz, n))
        head = int(g_count[:n0].sum()) if n0 else 0
        if head:
            keep = np.ones(a_rank.shape[0], dtype=bool)
            np.less(a_rank[:head], b_rank[:head], out=keep[:head])
            a_rank = a_rank[keep]
            b_rank = b_rank[keep]
        if a_rank.size:
            cand_a = a_rank
            cand_b = b_rank

    if cand_a is not None:
        # One fused distance pass over every candidate pair; squares and
        # the sum run in place to avoid intermediate allocations.
        dx = xs.take(cand_a)
        dx -= xs.take(cand_b)
        dy = ys.take(cand_a)
        dy -= ys.take(cand_b)
        dx *= dx
        dy *= dy
        dx += dy
        near = dx <= limit_sq
        half_src = cand_a[near]
        half_dst = cand_b[near]
        # Per-node lists ascending by rank == the scalar post-build sort.
        # (src, dst) pairs are unique, so sorting the fused key src*n+dst
        # in place gives exactly the lexsort((dst, src)) order without the
        # argsort-and-gather round trip.
        fused = np.concatenate((half_src, half_dst))
        fused *= n
        fused[: half_src.shape[0]] += half_dst
        fused[half_src.shape[0]:] += half_src
        fused.sort()
        # Segment boundaries fall out of the sorted fused keys directly:
        # indptr[r] = first edge with src >= r, found by binary search.
        indptr = np.empty(n + 1, dtype=np.int64)
        indptr[0] = 0
        indptr[1:] = np.searchsorted(fused, np.arange(1, n + 1, dtype=np.int64) * n)
        src = fused // n
        dst = fused  # reuse the sorted buffer: dst = fused mod n in place
        dst -= src * n
    else:
        dst = np.empty(0, dtype=np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)

    return CsrAdjacency(indptr, dst, ids)


def adjacency_from_csr(csr: CsrAdjacency) -> Dict[int, List[int]]:
    """Materialise the scalar-identical dict-of-lists view of ``csr``.

    Deferred out of :func:`build_csr` because the per-quantum hot path
    (BFS, floods, membership tests) runs entirely on the arrays; only
    direct neighbour-list consumers pay for the Python dict.
    """
    ids_list = csr.ids.tolist()
    nbr_ids = csr.ids[csr.neighbors].tolist() if csr.neighbors.size else []
    bounds = csr.indptr.tolist()
    adjacency: Dict[int, List[int]] = {}
    lo = 0
    for index, node in enumerate(ids_list):
        hi = bounds[index + 1]
        adjacency[node] = nbr_ids[lo:hi]
        lo = hi
    return adjacency


# ----------------------------------------------------------------------
# Vectorized BFS
# ----------------------------------------------------------------------
def bfs_from_csr(
    csr: CsrAdjacency, source: int, max_depth: Optional[int] = None
) -> Tuple[Dict[int, int], Dict[int, int], List[Tuple[int, int]], List[int]]:
    """BFS tree from ``source`` over a CSR adjacency.

    Returns the same ``(levels, parents, items, prefix)`` quadruple as the
    scalar ``TopologySnapshot._bfs_from`` — including discovery order and
    parent choice: within each depth the scalar loop scans the frontier in
    order and each frontier node's neighbours in rank order, keeping the
    first discovery; taking the first occurrence over the concatenated
    candidate stream reproduces that exactly.

    ``max_depth`` stops the traversal once every node at that depth is
    discovered — levels ``<= max_depth`` of a bounded run are identical to
    the same levels of a full run, so TTL-limited floods can skip the far
    side of a large graph entirely.
    """
    indptr, nbrs, ids = csr.indptr, csr.neighbors, csr.ids
    src = csr.rank_of(source)
    n = ids.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[src] = True
    frontier = np.array([src], dtype=np.int64)
    rank_chunks = [frontier]
    parent_chunks = [frontier]
    prefix: List[int] = [1]
    while True:
        if max_depth is not None and len(prefix) - 1 >= max_depth:
            break
        counts = indptr[frontier + 1] - indptr[frontier]
        take = _ragged_take(indptr[frontier], counts)
        if take.size == 0:
            break
        candidates = nbrs[take]
        parents_of = np.repeat(frontier, counts)
        fresh = ~seen[candidates]
        candidates = candidates[fresh]
        if candidates.size == 0:
            break
        parents_of = parents_of[fresh]
        uniq, first = np.unique(candidates, return_index=True)
        discovery = np.argsort(first, kind="stable")
        frontier = uniq[discovery]
        seen[frontier] = True
        rank_chunks.append(frontier)
        parent_chunks.append(parents_of[first[discovery]])
        prefix.append(prefix[-1] + int(frontier.shape[0]))

    all_ranks = np.concatenate(rank_chunks)
    node_ids = ids[all_ranks].tolist()
    parent_ids = ids[np.concatenate(parent_chunks)].tolist()
    sizes = [c.shape[0] for c in rank_chunks]
    depths = np.repeat(np.arange(len(sizes)), sizes).tolist()
    levels = dict(zip(node_ids, depths))
    parents = dict(zip(node_ids, parent_ids))
    items = list(zip(node_ids, depths))
    return levels, parents, items, prefix


# ----------------------------------------------------------------------
# Array-backed positions mapping
# ----------------------------------------------------------------------
class ArrayPositions(Mapping):
    """Immutable, registration-ordered node-to-position mapping over arrays.

    The ledger hands one out on every refresh: the snapshot build that
    follows consumes the arrays directly, so the per-node ``Point`` dict
    only materialises if something actually reads positions (tests, the
    scalar build of small snapshots, edge filters).  Iteration order is
    the slot (registration) order of the backing arrays, matching the
    dict the scalar path builds; values are Python floats, so a
    materialised entry is bit-identical to its scalar counterpart.
    """

    __slots__ = ("ids", "xs", "ys", "_dict", "_key_set")

    def __init__(self, ids: "np.ndarray", xs: "np.ndarray", ys: "np.ndarray") -> None:
        self.ids = ids
        self.xs = xs
        self.ys = ys
        self._dict: Optional[Dict[int, Point]] = None
        self._key_set = None

    def arrays(self) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """The backing ``(ids, xs, ys)`` arrays (never mutated)."""
        return self.ids, self.xs, self.ys

    def materialized(self) -> Dict[int, Point]:
        """The equivalent plain dict, built once on first demand."""
        mapping = self._dict
        if mapping is None:
            mapping = self._dict = {
                node: Point(px, py)
                for node, px, py in zip(
                    self.ids.tolist(), self.xs.tolist(), self.ys.tolist()
                )
            }
        return mapping

    def __getitem__(self, node: int) -> Point:
        return self.materialized()[node]

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids.tolist())

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    def __contains__(self, node: object) -> bool:
        keys = self._key_set
        if keys is None:
            keys = self._key_set = set(self.ids.tolist())
        return node in keys


# ----------------------------------------------------------------------
# Position ledger
# ----------------------------------------------------------------------
class SoAPositionLedger:
    """Positions, online flags and validity deadlines as contiguous arrays.

    The array-backed replacement for the network's per-node position
    ledger.  Each :meth:`refresh` performs the whole per-quantum position
    pass in a few vector operations:

    1. Batched validity expiry — ``online & (valid_until < now)`` selects
       only the nodes whose windows actually lapsed; parked nodes are
       not sampled.
    2. Bulk mobility — each :mod:`repro.mobility.bulk` kernel evaluates
       its lapsed members in one shot (scalar fallback per node only for
       unrecognised models).

    Online state is maintained from the network's churn notifications
    (:meth:`note_state`) — the :class:`~repro.net.node.NetworkNode`
    contract requires every flip to call ``notify_state_change``.
    """

    def __init__(self) -> None:
        self._nodes: List = []
        self._slot_of: Dict[int, int] = {}
        self._ids: List[int] = []
        self._pending: List = []
        self._kernels: Dict[type, object] = {}
        self._x = np.empty(0, dtype=np.float64)
        self._y = np.empty(0, dtype=np.float64)
        self._valid_until = np.empty(0, dtype=np.float64)
        self._online = np.empty(0, dtype=bool)
        self._ids_arr = np.empty(0, dtype=np.int64)

    def add(self, node) -> None:
        """Track ``node`` (called at network registration)."""
        slot = len(self._nodes) + len(self._pending)
        self._slot_of[node.node_id] = slot
        self._pending.append(node)

    def note_state(self, node) -> None:
        """Record an online/offline flip (network churn notification)."""
        slot = self._slot_of[node.node_id]
        if slot < self._online.shape[0]:
            self._online[slot] = node.online
        # Pending nodes are absorbed with their live online flag.

    def _absorb_pending(self) -> None:
        from repro.mobility import bulk

        start = len(self._nodes)
        fresh = self._pending
        self._pending = []
        touched = set()
        for offset, node in enumerate(fresh):
            slot = start + offset
            self._nodes.append(node)
            self._ids.append(node.node_id)
            model = getattr(node, "mobility", None)
            kernel_cls = bulk.kernel_class_for(model)
            kernel = self._kernels.get(kernel_cls)
            if kernel is None:
                kernel = self._kernels[kernel_cls] = kernel_cls()
            member = node if kernel_cls is bulk.FallbackKernel else model
            kernel.add(slot, member)
            touched.add(kernel)
        for kernel in touched:
            kernel.finalize()
        total = len(self._nodes)

        def grow(old, fill, dtype):
            fresh_arr = np.full(total, fill, dtype=dtype)
            fresh_arr[: old.shape[0]] = old
            return fresh_arr

        self._x = grow(self._x, math.nan, np.float64)
        self._y = grow(self._y, math.nan, np.float64)
        self._valid_until = grow(self._valid_until, -math.inf, np.float64)
        self._online = grow(self._online, False, bool)
        for offset, node in enumerate(fresh):
            self._online[start + offset] = node.online
        self._ids_arr = np.asarray(self._ids, dtype=np.int64)

    def refresh(self, now: float) -> ArrayPositions:
        """Sample lapsed validity windows; return the online positions.

        The mapping holds every online node in registration order, the
        same order the scalar per-registry scan emits.
        """
        if self._pending:
            self._absorb_pending()
        online = self._online
        valid_until = self._valid_until
        lapsed = online & (valid_until < now)
        if lapsed.any():
            x, y = self._x, self._y
            for kernel in self._kernels.values():
                local = kernel.local_needs(lapsed)
                if local.size:
                    kernel.sample(now, local, x, y, valid_until)
        slots = np.nonzero(online)[0]
        return ArrayPositions(self._ids_arr[slots], self._x[slots], self._y[slots])
