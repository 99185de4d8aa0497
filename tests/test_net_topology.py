"""Unit tests for the disc-model connectivity graph."""

import random
from collections import deque

import pytest

from repro.errors import TopologyError
from repro.mobility.terrain import Point, Terrain
from repro.mobility.waypoint import RandomWaypoint
from repro.net import soa
from repro.net.network import Network
from repro.net.node import NetworkNode
from repro.net.topology import TopologySnapshot, TopologyService
from repro.sim.engine import Simulator


def snapshot_of(coords, radio_range=150.0):
    positions = {i: Point(x, y) for i, (x, y) in enumerate(coords)}
    return TopologySnapshot(positions, radio_range)


def brute_force_adjacency(positions, radio_range):
    """The seed O(N^2) all-pairs build the spatial grid must reproduce."""
    adjacency = {node: [] for node in positions}
    nodes = list(positions.items())
    limit_sq = radio_range * radio_range
    for index, (node_a, pos_a) in enumerate(nodes):
        for node_b, pos_b in nodes[index + 1:]:
            dx = pos_a.x - pos_b.x
            dy = pos_a.y - pos_b.y
            if dx * dx + dy * dy <= limit_sq:
                adjacency[node_a].append(node_b)
                adjacency[node_b].append(node_a)
    return adjacency


def fresh_bfs_levels(snapshot, source, max_depth=None):
    """The seed per-call depth-limited BFS memoisation must reproduce."""
    levels = {source: 0}
    queue = deque([source])
    while queue:
        current = queue.popleft()
        depth = levels[current]
        if max_depth is not None and depth >= max_depth:
            continue
        for neighbor in snapshot.neighbors(current):
            if neighbor not in levels:
                levels[neighbor] = depth + 1
                queue.append(neighbor)
    return levels


class TestTopologySnapshot:
    def test_neighbors_within_range(self):
        snap = snapshot_of([(0, 0), (100, 0), (400, 0)])
        assert snap.neighbors(0) == [1]
        assert snap.neighbors(2) == []

    def test_range_boundary_inclusive(self):
        snap = snapshot_of([(0, 0), (150, 0)])
        assert snap.neighbors(0) == [1]

    def test_unknown_node_raises(self):
        snap = snapshot_of([(0, 0)])
        with pytest.raises(TopologyError):
            snap.neighbors(99)

    def test_degree(self):
        snap = snapshot_of([(0, 0), (100, 0), (100, 100)])
        assert snap.degree(0) == 2

    def test_shortest_path_line(self):
        snap = snapshot_of([(0, 0), (100, 0), (200, 0), (300, 0)])
        assert snap.shortest_path(0, 3) == [0, 1, 2, 3]

    def test_shortest_path_self(self):
        snap = snapshot_of([(0, 0), (100, 0)])
        assert snap.shortest_path(0, 0) == [0]

    def test_shortest_path_partitioned_returns_none(self):
        snap = snapshot_of([(0, 0), (1000, 0)])
        assert snap.shortest_path(0, 1) is None

    def test_shortest_path_unknown_target(self):
        snap = snapshot_of([(0, 0)])
        assert snap.shortest_path(0, 42) is None

    def test_shortest_path_prefers_fewer_hops(self):
        # 0-1-2 direct chain plus a detour 0-3-4-2.
        snap = snapshot_of([(0, 0), (100, 0), (200, 0), (0, 100), (150, 100)])
        assert snap.shortest_path(0, 2) == [0, 1, 2]

    def test_hop_distance(self):
        snap = snapshot_of([(0, 0), (100, 0), (200, 0)])
        assert snap.hop_distance(0, 2) == 2
        assert snap.hop_distance(0, 0) == 0

    def test_bfs_levels_depth_limited(self):
        snap = snapshot_of([(i * 100, 0) for i in range(6)])
        levels = snap.bfs_levels(0, max_depth=2)
        assert levels == {0: 0, 1: 1, 2: 2}

    def test_bfs_levels_unlimited(self):
        snap = snapshot_of([(i * 100, 0) for i in range(4)])
        assert snap.bfs_levels(0) == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_connected_components(self):
        snap = snapshot_of([(0, 0), (100, 0), (1000, 0), (1100, 0)])
        components = sorted(sorted(c) for c in snap.connected_components())
        assert components == [[0, 1], [2, 3]]

    def test_is_connected(self):
        assert snapshot_of([(0, 0), (100, 0)]).is_connected()
        assert not snapshot_of([(0, 0), (500, 0)]).is_connected()
        assert TopologySnapshot({}, 100.0).is_connected()

    def test_edge_count(self):
        snap = snapshot_of([(0, 0), (100, 0), (100, 100)])
        assert snap.edge_count() == 3

    def test_nodes_property(self):
        assert snapshot_of([(0, 0), (1, 1)]).nodes == {0, 1}


class TestGridEquivalence:
    """The spatial-hash build must be indistinguishable from brute force."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("count,side,radio_range", [
        (25, 500.0, 150.0),     # dense: most pairs in range
        (60, 1500.0, 150.0),    # paper-like density
        (60, 1500.0, 250.0),    # Table-1 range
        (120, 4000.0, 100.0),   # sparse, many isolated nodes
    ])
    def test_randomized_matches_brute_force(self, seed, count, side, radio_range):
        rng = random.Random(seed)
        positions = {
            i: Point(rng.uniform(0, side), rng.uniform(0, side))
            for i in range(count)
        }
        snap = TopologySnapshot(positions, radio_range)
        expected = brute_force_adjacency(positions, radio_range)
        for node in positions:
            assert snap.neighbors(node) == expected[node]

    def test_negative_coordinates(self):
        rng = random.Random(99)
        positions = {
            i: Point(rng.uniform(-800, 800), rng.uniform(-800, 800))
            for i in range(50)
        }
        snap = TopologySnapshot(positions, 200.0)
        expected = brute_force_adjacency(positions, 200.0)
        for node in positions:
            assert snap.neighbors(node) == expected[node]

    def test_boundary_distance_pairs(self):
        # Exact-range pairs straddling grid cells in every direction.
        r = 150.0
        snap = snapshot_of([(0, 0), (r, 0), (0, r), (-r, 0), (0, -r)], r)
        assert snap.neighbors(0) == [1, 2, 3, 4]
        assert snap.neighbors(1) == [0]

    def test_just_beyond_boundary_excluded(self):
        snap = snapshot_of([(0, 0), (150.0000001, 0)], 150.0)
        assert snap.neighbors(0) == []

    def test_coincident_nodes_are_neighbors(self):
        snap = snapshot_of([(10, 10), (10, 10), (10, 10)], 150.0)
        assert snap.neighbors(0) == [1, 2]
        assert snap.edge_count() == 3

    def test_empty_snapshot(self):
        snap = TopologySnapshot({}, 150.0)
        assert snap.nodes == set()
        assert snap.edge_count() == 0

    def test_single_node(self):
        snap = snapshot_of([(5, 5)])
        assert snap.neighbors(0) == []
        assert snap.shortest_path(0, 0) == [0]

    def test_nonpositive_radio_range_direct_construction(self):
        # Only coincident nodes connect when the disc has zero radius.
        snap = TopologySnapshot({0: Point(0, 0), 1: Point(0, 0), 2: Point(1, 0)}, 0.0)
        assert snap.neighbors(0) == [1]
        assert snap.neighbors(2) == []


class TestBFSMemoization:
    """Memoised BFS answers must equal fresh per-call traversals."""

    def random_snapshot(self, seed, count=60, side=1500.0, radio_range=250.0):
        rng = random.Random(seed)
        positions = {
            i: Point(rng.uniform(0, side), rng.uniform(0, side))
            for i in range(count)
        }
        return TopologySnapshot(positions, radio_range)

    @pytest.mark.parametrize("seed", range(5))
    def test_bfs_levels_match_fresh_bfs(self, seed):
        snap = self.random_snapshot(seed)
        for source in (0, 17, 42):
            for max_depth in (None, 0, 1, 3, 8):
                memoized = snap.bfs_levels(source, max_depth=max_depth)
                fresh = fresh_bfs_levels(snap, source, max_depth=max_depth)
                assert memoized == fresh
                # Flood scheduling iterates this dict: order matters too.
                assert list(memoized) == list(fresh)

    @pytest.mark.parametrize("seed", range(5))
    def test_shortest_path_consistent_with_levels(self, seed):
        snap = self.random_snapshot(seed)
        levels = fresh_bfs_levels(snap, 0)
        for target in snap.nodes:
            path = snap.shortest_path(0, target)
            if target in levels:
                assert path[0] == 0 and path[-1] == target
                assert len(path) - 1 == levels[target]
                for hop_a, hop_b in zip(path, path[1:]):
                    assert snap.has_edge(hop_a, hop_b)
            else:
                assert path is None

    def test_repeated_queries_reuse_cache(self):
        snap = self.random_snapshot(1)
        first = snap.shortest_path(0, 42)
        assert snap.bfs_cache_size == 1
        assert snap.shortest_path(0, 42) == first
        snap.bfs_levels(0, max_depth=3)
        assert snap.bfs_cache_size == 1  # same source, same tree
        snap.hop_distance(0, 17)
        assert snap.bfs_cache_size == 1

    def test_returned_levels_are_copies(self):
        snap = snapshot_of([(0, 0), (100, 0), (200, 0)])
        levels = snap.bfs_levels(0)
        levels[99] = 99  # caller mutation must not poison the cache
        assert 99 not in snap.bfs_levels(0)

    def test_hop_distance_raises_for_offline_source(self):
        snap = snapshot_of([(0, 0)])
        with pytest.raises(TopologyError):
            snap.hop_distance(42, 0)


class TestHasEdge:
    def test_symmetric(self):
        snap = snapshot_of([(0, 0), (100, 0), (400, 0)])
        assert snap.has_edge(0, 1) and snap.has_edge(1, 0)
        assert not snap.has_edge(0, 2)

    def test_offline_endpoint_is_false_not_error(self):
        snap = snapshot_of([(0, 0), (100, 0)])
        assert not snap.has_edge(0, 99)
        assert not snap.has_edge(99, 0)

    def test_no_self_edges(self):
        snap = snapshot_of([(0, 0), (100, 0)])
        assert not snap.has_edge(0, 0)

    def test_matches_neighbor_lists(self):
        rng = random.Random(5)
        positions = {
            i: Point(rng.uniform(0, 1000), rng.uniform(0, 1000)) for i in range(40)
        }
        snap = TopologySnapshot(positions, 200.0)
        for a in positions:
            neighbors = set(snap.neighbors(a))
            for b in positions:
                assert snap.has_edge(a, b) == (b in neighbors)


class TestTopologyService:
    def make_service(self, states, quantum=1.0):
        clock = {"t": 0.0}
        service = TopologyService(
            clock=lambda: clock["t"],
            node_states=lambda: list(states),
            radio_range=150.0,
            quantum=quantum,
        )
        return service, clock

    def test_offline_nodes_excluded(self):
        states = [(0, Point(0, 0), True), (1, Point(100, 0), False)]
        service, _ = self.make_service(states)
        assert service.current().nodes == {0}

    def test_snapshot_cached_within_quantum(self):
        states = [(0, Point(0, 0), True)]
        service, clock = self.make_service(states)
        first = service.current()
        clock["t"] = 0.5
        assert service.current() is first
        assert service.snapshots_built == 1

    def test_moved_node_rebuilds_after_quantum(self):
        states = [(0, Point(0, 0), True), (1, Point(100, 0), True)]
        service, clock = self.make_service(states)
        first = service.current()
        clock["t"] = 1.5
        states[0] = (0, Point(10, 0), True)
        second = service.current()
        assert second is not first
        assert second.neighbors(0) == [1]
        assert service.snapshots_built == 2

    def test_new_quantum_and_churn_always_rebuild(self):
        # Nothing moves, yet every new bucket builds a fresh snapshot, and
        # a churn notice rebuilds inside the bucket.
        states = [(0, Point(0, 0), True)]
        service, clock = self.make_service(states)
        first = service.current()
        clock["t"] = 1.5
        second = service.current()
        assert second is not first
        assert service.snapshots_built == 2
        service.note_churn(0)
        third = service.current()
        assert third is not second
        assert service.snapshots_built == 3
        assert service.current() is third
        assert service.stats() == {
            "snapshots_built": 3,
            "snapshots_reused": 0,
            "incremental_updates": 0,
            "invalidations": 1,
        }

    def test_note_churn_rediffs_within_quantum(self):
        states = [(0, Point(0, 0), True), (1, Point(100, 0), True)]
        service, _ = self.make_service(states)
        first = service.current()
        assert first.nodes == {0, 1}
        states[1] = (1, Point(100, 0), False)
        service.note_churn(1)
        second = service.current()
        assert second.nodes == {0}
        assert service.invalidations == 1
        # The rebuilt snapshot is cached: same bucket, no further churn.
        assert service.current() is second

    def test_invalidate_forces_rebuild(self):
        states = [(0, Point(0, 0), True)]
        service, _ = self.make_service(states)
        service.current()
        service.invalidate()
        service.current()
        assert service.snapshots_built == 2

    def test_invalid_parameters(self):
        with pytest.raises(TopologyError):
            TopologyService(lambda: 0.0, lambda: [], radio_range=0.0)
        with pytest.raises(TopologyError):
            TopologyService(lambda: 0.0, lambda: [], radio_range=100.0, quantum=0.0)


def assert_snapshots_equivalent(candidate, reference):
    """Bit-level equivalence of everything routing and flooding observe."""
    assert list(candidate.positions) == list(reference.positions)
    assert candidate.positions == reference.positions
    for node in reference.positions:
        assert candidate.neighbors(node) == reference.neighbors(node), node
    assert candidate._neighbor_sets == reference._neighbor_sets
    assert candidate.edge_count() == reference.edge_count()
    for source in reference.positions:
        candidate_levels = candidate.bfs_levels(source)
        reference_levels = reference.bfs_levels(source)
        assert candidate_levels == reference_levels
        assert list(candidate_levels) == list(reference_levels)
    assert candidate.connected_components() == reference.connected_components()


class _RoamingNode(NetworkNode):
    """Network stand-in whose position comes from a real mobility model."""

    def __init__(self, node_id, sim, model):
        self._id = node_id
        self._sim = sim
        self._model = model
        self._online = True

    @property
    def node_id(self):
        return self._id

    @property
    def online(self):
        return self._online

    def set_online(self, flag):
        if flag != self._online:
            self._online = flag
            self.notify_state_change()

    def current_position(self):
        return self._model.position(self._sim.now)

    def position_valid_until(self):
        return self._model.position_valid_until(self._sim.now)

    def deliver(self, message):
        return None


class TestThroughNetwork:
    """End-to-end: position ledger + validity windows + churn notices."""

    RANGE = 150.0

    def drive(self, seed):
        rng = random.Random(seed)
        terrain = Terrain(900.0, 900.0)
        sim = Simulator()
        net = Network(sim, radio_range=self.RANGE)
        nodes = [
            _RoamingNode(
                i,
                sim,
                # Pause-heavy: legs take ~30 s, pauses 120 s, so most
                # ticks serve parked nodes from their validity windows.
                RandomWaypoint(
                    terrain,
                    random.Random(seed * 1000 + i),
                    speed_min=10.0,
                    speed_max=20.0,
                    pause_time=120.0,
                ),
            )
            for i in range(20)
        ]
        for node in nodes:
            net.register(node)
        for tick in range(1, 240):
            sim.run_until(float(tick))
            if rng.random() < 0.1:
                nodes[rng.randrange(len(nodes))].set_online(False)
            if rng.random() < 0.1:
                nodes[rng.randrange(len(nodes))].set_online(True)
            snapshot = net.snapshot()
            reference = TopologySnapshot(
                {
                    node.node_id: node.current_position()
                    for node in nodes
                    if node.online
                },
                self.RANGE,
            )
            assert_snapshots_equivalent(snapshot, reference)
        return net

    @pytest.mark.parametrize("seed", [1, 2])
    def test_network_snapshots_match_fresh_builds(self, seed, monkeypatch):
        # Both cores; the vectorized arm drops the CSR floor so the
        # 20-node snapshots take the array build too.
        for core, flag in (("scalar", "0"), ("vectorized", "1")):
            if flag == "1":
                if not soa.HAVE_NUMPY:
                    continue
                monkeypatch.setattr(soa, "BUILD_MIN_NODES", 0)
            monkeypatch.setenv("REPRO_SOA", flag)
            net = self.drive(seed)
            assert net.core == core
            assert net.topology.stats()["snapshots_built"] >= 239
