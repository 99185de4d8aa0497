"""Property tests: the vectorized core is bit-identical to the scalar core.

Every test here constructs the same world twice — once with the
struct-of-arrays fast path (``REPRO_SOA=1``, :data:`soa.BUILD_MIN_NODES`
dropped to 0 so tiny graphs vectorize too) and once with it forced off —
and asserts that everything the network layer can observe is equal *and
in the same order*: positions, neighbour lists, BFS levels and discovery
order, depth-bounded floods, edge counts and connected components.

Regimes: the vectorized arm always builds a CSR.  The scalar arm keeps
the default floor, so it builds rank bitmasks below 64 nodes (every
test here except the larger draws of the paper-density one) and the
dict of lists from 64 up.  ``tests/test_topology_masks.py`` holds the
bitmask regimes to the dict-of-lists oracle directly.

The whole module skips cleanly when numpy (the ``perf`` extra) is not
installed: in that configuration only the scalar core exists and there
is nothing to compare.
"""

from __future__ import annotations

import contextlib
import os
import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility.base import MobilityModel
from repro.mobility.stationary import PiecewiseLinear, Stationary
from repro.mobility.terrain import Point, Terrain
from repro.mobility.walk import RandomWalk
from repro.mobility.waypoint import RandomWaypoint
from repro.net import soa
from repro.net.network import Network
from repro.net.node import NetworkNode
from repro.net.topology import TopologySnapshot
from repro.sim.engine import Simulator

pytestmark = pytest.mark.skipif(
    not soa.HAVE_NUMPY, reason="numpy (the perf extra) is not installed"
)

RANGE = 250.0


@contextlib.contextmanager
def _core(vectorized: bool):
    """Force one core for the duration of the block.

    The vectorized arm also drops :data:`soa.BUILD_MIN_NODES` to zero so
    the small populations hypothesis generates take the array path
    instead of silently falling back to the scalar build.
    """
    saved_env = os.environ.get("REPRO_SOA")
    saved_floor = soa.BUILD_MIN_NODES
    os.environ["REPRO_SOA"] = "1" if vectorized else "0"
    if vectorized:
        soa.BUILD_MIN_NODES = 0
    try:
        yield
    finally:
        soa.BUILD_MIN_NODES = saved_floor
        if saved_env is None:
            os.environ.pop("REPRO_SOA", None)
        else:
            os.environ["REPRO_SOA"] = saved_env


def _assert_snapshots_identical(vec: TopologySnapshot, ref: TopologySnapshot):
    """Bit-level equality of everything routing and flooding observe."""
    assert list(vec.positions) == list(ref.positions)
    assert dict(vec.positions) == dict(ref.positions)
    for node in ref.positions:
        assert vec.neighbors(node) == ref.neighbors(node), node
    assert vec.edge_count() == ref.edge_count()
    for source in ref.positions:
        for depth in (0, 1, 3, None):
            vec_levels = vec.bfs_levels(source, max_depth=depth)
            ref_levels = ref.bfs_levels(source, max_depth=depth)
            assert vec_levels == ref_levels, (source, depth)
            assert list(vec_levels) == list(ref_levels), (source, depth)
    assert vec.connected_components() == ref.connected_components()


# ----------------------------------------------------------------------
# Adjacency builds
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2000.0),
            st.floats(min_value=0.0, max_value=2000.0),
        ),
        max_size=40,
    ),
    st.floats(min_value=10.0, max_value=800.0),
)
def test_vectorized_build_matches_scalar(points, radio_range):
    # CSR against scalar rank bitmasks (at most 40 nodes).
    positions = {i: Point(x, y) for i, (x, y) in enumerate(points)}
    with _core(vectorized=False):
        ref = TopologySnapshot(dict(positions), radio_range)
        assert ref._csr is None
    with _core(vectorized=True):
        vec = TopologySnapshot(dict(positions), radio_range)
        assert vec._csr is not None
        _assert_snapshots_identical(vec, ref)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**20))
def test_vectorized_build_matches_scalar_at_paper_density(seed):
    # CSR against scalar rank bitmasks (< 64 nodes) or the dict of lists.
    rng = random.Random(seed)
    count = rng.randrange(1, 120)
    side = 1500.0 * (count / 50.0) ** 0.5
    terrain = Terrain(side, side)
    positions = {i: terrain.random_point(rng) for i in range(count)}
    with _core(vectorized=False):
        ref = TopologySnapshot(dict(positions), 350.0)
    with _core(vectorized=True):
        vec = TopologySnapshot(dict(positions), 350.0)
        assert vec._csr is not None
        _assert_snapshots_identical(vec, ref)


# ----------------------------------------------------------------------
# The full pipeline under movement and churn
# ----------------------------------------------------------------------
class _Node(NetworkNode):
    """Minimal concrete node whose position comes from a mobility model."""

    def __init__(self, node_id: int, sim: Simulator, mobility: MobilityModel):
        self._id = node_id
        self._sim = sim
        self.mobility = mobility
        self._online = True

    @property
    def node_id(self) -> int:
        return self._id

    @property
    def online(self) -> bool:
        return self._online

    def set_online(self, flag: bool) -> None:
        if flag != self._online:
            self._online = flag
            self.notify_state_change()

    def current_position(self) -> Point:
        return self.mobility.position(self._sim.now)

    def position_valid_until(self) -> float:
        return self.mobility.position_valid_until(self._sim.now)

    def deliver(self, message) -> None:
        return None


class _OpaqueModel(MobilityModel):
    """A model the bulk-kernel registry does not recognise.

    Wraps a real trajectory so the FallbackKernel arm exercises genuine
    movement, not just a stationary point.
    """

    def __init__(self, inner: MobilityModel):
        self._inner = inner

    def position(self, time: float) -> Point:
        return self._inner.position(time)

    def position_valid_until(self, time: float) -> float:
        return self._inner.position_valid_until(time)


def _make_model(family: str, terrain: Terrain, seed: int) -> MobilityModel:
    rng = random.Random(seed)
    if family == "stationary":
        return Stationary(terrain.random_point(rng))
    if family == "waypoint":
        return RandomWaypoint(terrain, rng, 10.0, 40.0, pause_time=3.0)
    if family == "walk":
        return RandomWalk(terrain, rng, 10.0, 40.0, epoch=4.0)
    if family == "piecewise":
        times = [0.0, 5.0, 12.0, 30.0]
        return PiecewiseLinear(
            [(t, terrain.random_point(rng)) for t in times]
        )
    if family == "fallback":
        return _OpaqueModel(RandomWalk(terrain, rng, 10.0, 40.0, epoch=4.0))
    raise AssertionError(family)


FAMILIES = ("stationary", "waypoint", "walk", "piecewise", "fallback")


def _build_world(vectorized: bool, seed: int, count: int, families):
    terrain = Terrain(900.0, 900.0)
    with _core(vectorized):
        sim = Simulator()
        net = Network(sim, radio_range=RANGE)
        assert net.core == ("vectorized" if vectorized else "scalar")
        nodes = [
            _Node(
                i, sim,
                _make_model(families[i % len(families)], terrain, seed * 1000 + i),
            )
            for i in range(count)
        ]
        for node in nodes:
            net.register(node)
    return sim, net, nodes


def _run_both(seed: int, count: int, families, toggles):
    """Walk two identically seeded worlds and compare every snapshot."""
    vec_sim, vec_net, vec_nodes = _build_world(True, seed, count, families)
    ref_sim, ref_net, ref_nodes = _build_world(False, seed, count, families)
    for tick, toggle in enumerate(toggles, start=1):
        vec_sim.run_until(float(tick))
        ref_sim.run_until(float(tick))
        if toggle is not None:
            index = toggle % count
            flag = not vec_nodes[index].online
            vec_nodes[index].set_online(flag)
            ref_nodes[index].set_online(flag)
        with _core(True):
            vec_snap = vec_net.snapshot()
        with _core(False):
            ref_snap = ref_net.snapshot()
        _assert_snapshots_identical(vec_snap, ref_snap)


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**20),
    st.lists(
        st.one_of(st.none(), st.integers(min_value=0, max_value=63)),
        min_size=4,
        max_size=24,
    ),
)
def test_pipeline_identical_under_movement_and_churn(seed, toggles):
    """All mobility families at once, random churn, every quantum compared.

    20 nodes: CSR (vectorized) against scalar rank bitmasks.
    """
    _run_both(seed, count=20, families=FAMILIES, toggles=toggles)


@pytest.mark.parametrize("family", FAMILIES)
def test_bulk_mobility_kernels_match_scalar_models(family):
    """Each kernel family alone: bulk sampling equals per-node sampling.

    16 nodes: CSR (vectorized) against scalar rank bitmasks.
    """
    _run_both(seed=7, count=16, families=(family,), toggles=[None] * 20)
    _run_both(seed=23, count=16, families=(family,), toggles=[3, None, 9] * 5)
