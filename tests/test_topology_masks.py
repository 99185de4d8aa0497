"""Property tests: rank-bitmask snapshots equal the dict-of-lists oracle.

Snapshots with fewer than :data:`soa.BUILD_MIN_NODES` online nodes store
their adjacency as one ``int`` bitmask per registration rank.  The
masks come from a dense numpy pass (vectorized core) or from the scalar
spatial-hash loop (``REPRO_SOA=0``, or no numpy).  Every test here
builds the same positions under a mask regime and under the oracle —
the dict-of-lists build, forced by ``REPRO_SOA=0`` with
``BUILD_MIN_NODES`` dropped to 0 — and asserts that everything routing
and flooding observe is equal *and in the same order*.

Without numpy only the scalar mask loop exists; the numpy arms skip.
"""

from __future__ import annotations

import contextlib
import os
import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility.stationary import Stationary
from repro.mobility.terrain import Point, Terrain
from repro.mobility.walk import RandomWalk
from repro.net import soa
from repro.net.network import Network
from repro.net.node import NetworkNode
from repro.net.topology import TopologySnapshot
from repro.sim.engine import Simulator

needs_numpy = pytest.mark.skipif(
    not soa.HAVE_NUMPY, reason="numpy (the perf extra) is not installed"
)

#: Mask builders: the dense numpy pass over a dict or over
#: ArrayPositions, and the scalar spatial-hash loop.
ARMS = (
    pytest.param("numpy-dict", marks=needs_numpy),
    pytest.param("numpy-arrays", marks=needs_numpy),
    "scalar",
)


@contextlib.contextmanager
def _env(soa_flag: str, floor: int):
    saved_env = os.environ.get("REPRO_SOA")
    saved_floor = soa.BUILD_MIN_NODES
    os.environ["REPRO_SOA"] = soa_flag
    soa.BUILD_MIN_NODES = floor
    try:
        yield
    finally:
        soa.BUILD_MIN_NODES = saved_floor
        if saved_env is None:
            os.environ.pop("REPRO_SOA", None)
        else:
            os.environ["REPRO_SOA"] = saved_env


def _array_positions(positions):
    import numpy as np

    return soa.ArrayPositions(
        np.fromiter(positions.keys(), dtype=np.int64, count=len(positions)),
        np.array([p.x for p in positions.values()], dtype=np.float64),
        np.array([p.y for p in positions.values()], dtype=np.float64),
    )


def _oracle(positions, radio_range, edge_filter=None) -> TopologySnapshot:
    with _env("0", 0):
        snapshot = TopologySnapshot(dict(positions), radio_range, edge_filter)
    assert snapshot._masks is None and snapshot._csr is None
    return snapshot


def _masked(arm, positions, radio_range, edge_filter=None) -> TopologySnapshot:
    assert len(positions) < soa.BUILD_MIN_NODES
    if arm == "numpy-arrays":
        positions = _array_positions(positions)
    with _env("0" if arm == "scalar" else "1", soa.BUILD_MIN_NODES):
        snapshot = TopologySnapshot(positions, radio_range, edge_filter)
    assert snapshot._masks is not None and snapshot._csr is None
    return snapshot


def _assert_equal(masked: TopologySnapshot, oracle: TopologySnapshot) -> None:
    """Bit-level equality of everything routing and flooding observe."""
    nodes = list(oracle.positions)
    assert list(masked.positions) == nodes
    assert masked.nodes == oracle.nodes
    assert list(masked._adjacency.items()) == list(oracle._adjacency.items())
    for node in nodes:
        assert masked.neighbors(node) == oracle.neighbors(node), node
    outsider = max(nodes, default=0) + 1
    for node_a in nodes + [outsider]:
        for node_b in nodes + [outsider]:
            assert masked.has_edge(node_a, node_b) == oracle.has_edge(node_a, node_b)
    assert masked.edge_count() == oracle.edge_count()
    assert masked.connected_components() == oracle.connected_components()
    for source in nodes:
        levels, parents, prefix = masked._bfs_from(source)
        ref_levels, ref_parents, ref_prefix = oracle._bfs_from(source)
        assert list(levels.items()) == list(ref_levels.items()), source
        assert parents == ref_parents, source
        assert prefix == ref_prefix, source
        for depth in (-1, 0, 1, 2, 3, None):
            got = masked.bfs_levels(source, max_depth=depth)
            want = oracle.bfs_levels(source, max_depth=depth)
            assert list(got.items()) == list(want.items()), (source, depth)


# ----------------------------------------------------------------------
# Static graphs
# ----------------------------------------------------------------------
_coord = st.floats(min_value=-200.0, max_value=1800.0)


@st.composite
def _populations(draw, max_size=63):
    """Positions keyed by distinct, non-contiguous ids in unsorted order."""
    points = draw(st.lists(st.tuples(_coord, _coord), max_size=max_size))
    ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=10**6),
            min_size=len(points),
            max_size=len(points),
            unique=True,
        )
    )
    return {node: Point(x, y) for node, (x, y) in zip(ids, points)}


@pytest.mark.parametrize("arm", ARMS)
@settings(max_examples=30, deadline=None)
@given(_populations(), st.floats(min_value=10.0, max_value=800.0))
def test_masks_match_dict_oracle(arm, positions, radio_range):
    _assert_equal(_masked(arm, positions, radio_range), _oracle(positions, radio_range))


@pytest.mark.parametrize("arm", ARMS)
@pytest.mark.parametrize("count", [0, 1, 63])
def test_masks_match_at_size_limits(arm, count):
    rng = random.Random(count)
    terrain = Terrain(1500.0, 1500.0)
    positions = {7 * i + 3: terrain.random_point(rng) for i in range(count)}
    _assert_equal(_masked(arm, positions, 250.0), _oracle(positions, 250.0))


@pytest.mark.parametrize("arm", ARMS)
@pytest.mark.parametrize("radio_range", [0.0, -30.0, 250.0])
def test_masks_match_on_cell_boundaries(arm, radio_range):
    # Coincident nodes, pairs exactly one range apart and pairs straddling
    # cell edges: the spots where the grid and the distance test meet.
    # (-1e-300, 0) and (250, 0) are within 250 m but two cells apart, so
    # the spatial hash never links them and the dense pass must not either.
    coords = [(0, 0), (0, 0), (250, 0), (500, 0), (250, 250), (499.9, 0.1),
              (-250, 0), (-0.0, 250), (750, 0), (1, 1), (-1, -1), (125, 125),
              (-1e-300, 0)]
    positions = {10 * i: Point(float(x), float(y)) for i, (x, y) in enumerate(coords)}
    _assert_equal(
        _masked(arm, positions, radio_range), _oracle(positions, radio_range)
    )


@pytest.mark.parametrize("arm", ARMS)
@settings(max_examples=20, deadline=None)
@given(
    _populations(max_size=40),
    st.floats(min_value=50.0, max_value=600.0),
    st.floats(min_value=-200.0, max_value=1800.0),
    st.integers(min_value=0, max_value=2**16),
)
def test_masks_match_under_symmetric_edge_filter(arm, positions, radio_range, cut, salt):
    isolated = {node for node in positions if (node ^ salt) % 3 == 0}

    def allowed(node_a, node_b, pos_a, pos_b):
        if (node_a in isolated) != (node_b in isolated):
            return False
        return (pos_a.x >= cut) == (pos_b.x >= cut)

    _assert_equal(
        _masked(arm, positions, radio_range, allowed),
        _oracle(positions, radio_range, allowed),
    )


# ----------------------------------------------------------------------
# Snapshots of a live network under churn
# ----------------------------------------------------------------------
class _Node(NetworkNode):
    def __init__(self, node_id, sim, mobility):
        self._id = node_id
        self._sim = sim
        self.mobility = mobility
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
        return self.mobility.position(self._sim.now)

    def position_valid_until(self):
        return self.mobility.position_valid_until(self._sim.now)

    def deliver(self, message):
        return None


@pytest.mark.parametrize("soa_flag", [pytest.param("1", marks=needs_numpy), "0"])
@settings(max_examples=8, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**20),
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=5, max_size=30),
)
def test_network_snapshots_match_oracle_under_churn(soa_flag, seed, toggles):
    terrain = Terrain(1200.0, 1200.0)
    with _env(soa_flag, soa.BUILD_MIN_NODES):
        sim = Simulator()
        net = Network(sim, radio_range=250.0)
        nodes = []
        for index in range(50):
            rng = random.Random(seed * 1000 + index)
            model = (
                Stationary(terrain.random_point(rng))
                if index % 3 == 0
                else RandomWalk(terrain, rng, 5.0, 25.0, epoch=4.0)
            )
            nodes.append(_Node(1000 + 3 * index, sim, model))
        for node in nodes:
            net.register(node)
        for tick, toggle in enumerate(toggles, start=1):
            sim.run_until(float(tick))
            node = nodes[toggle % len(nodes)]
            node.set_online(not node.online)
            snapshot = net.snapshot()
            assert snapshot._masks is not None
            if soa_flag == "1":
                assert isinstance(snapshot.positions, soa.ArrayPositions)
            _assert_equal(snapshot, _oracle(dict(snapshot.positions), 250.0))
