"""Topology-refresh benchmarks: one snapshot build per quantum.

Each benchmark walks a :class:`~repro.net.topology.TopologyService`
through a precomputed per-quantum position schedule (mobility sampling is
hoisted out of the timed region, so the numbers isolate topology work):

* **pause-heavy** (200 and 1000 nodes) — random-waypoint motion with
  long (30-minute) pauses sampled past its initial all-moving transient:
  most quanta move only a handful of nodes.
* **churn-heavy** (200 nodes) — every node teleports every quantum.

Every quantum builds a fresh snapshot in both regimes.
``run_bench.py --suite topology`` gates the three timings against
``BENCH_topology.json``.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Tuple

from repro.mobility.terrain import Point, Terrain
from repro.mobility.waypoint import RandomWaypoint
from repro.net.topology import TopologyService

RADIO_RANGE = 350.0
TICKS = 60
PAUSE = 1800.0

#: Schedules are expensive to sample (60k positions at the 1000-node
#: scale), so they are built once per process.
_SCHEDULES: Dict[str, List[Dict[int, Point]]] = {}


def _scaled_terrain(count: int) -> Terrain:
    """Terrain at the paper's density (50 nodes per 1500 m square)."""
    side = 1500.0 * math.sqrt(count / 50.0)
    return Terrain(side, side)


def pause_heavy_schedule(count: int, seed: int = 7) -> List[Dict[int, Point]]:
    """Per-quantum positions of ``count`` pause-heavy waypoint nodes.

    Legs take ~100 s at 30-50 m/s across the scaled terrain while pauses
    last ``PAUSE`` (1800) s, so a node is parked ~95% of the time.  Every
    model starts a leg at t=0, which would keep the population travelling
    in synchronized waves; a random per-node phase offset staggers the
    cycles so each quantum sees the steady-state mover fraction instead.
    """
    key = f"pause_{count}"
    if key not in _SCHEDULES:
        terrain = _scaled_terrain(count)
        rng = random.Random(seed)
        models = [
            RandomWaypoint(
                terrain,
                random.Random(seed * 10_000 + i),
                speed_min=30.0,
                speed_max=50.0,
                pause_time=PAUSE,
            )
            for i in range(count)
        ]
        # Offsets span several full travel+pause cycles so sampling lands
        # uniformly across each node's cycle, not on the t=0 wave.
        base = 3.0 * (PAUSE + 100.0)
        phases = [base + rng.uniform(0.0, base) for _ in range(count)]
        _SCHEDULES[key] = [
            {
                i: model.position(phases[i] + tick)
                for i, model in enumerate(models)
            }
            for tick in range(TICKS)
        ]
    return _SCHEDULES[key]


def churn_heavy_schedule(count: int, seed: int = 11) -> List[Dict[int, Point]]:
    """Every node teleports every quantum."""
    key = f"churn_{count}"
    if key not in _SCHEDULES:
        terrain = _scaled_terrain(count)
        rng = random.Random(seed)
        _SCHEDULES[key] = [
            {i: terrain.random_point(rng) for i in range(count)}
            for _ in range(TICKS)
        ]
    return _SCHEDULES[key]


def _make_refresh_bench(schedule: List[Dict[int, Point]]) -> Callable[[], None]:
    """One iteration = a fresh service walking every quantum of ``schedule``.

    Pure refresh cost: the per-quantum query mix is covered by the kernel
    suite (route/flood bursts); here each arm isolates what building each
    quantum's snapshot costs.
    """

    def run() -> None:
        clock = {"t": 0.0}
        row = {"states": schedule[0]}
        service = TopologyService(
            clock=lambda: clock["t"],
            node_states=lambda: [
                (node, pos, True) for node, pos in row["states"].items()
            ],
            radio_range=RADIO_RANGE,
            quantum=1.0,
        )
        for tick, states in enumerate(schedule):
            clock["t"] = float(tick)
            row["states"] = states
            service.current()

    return run


def topology_benchmarks(workdir: str) -> List[Tuple[str, Callable[[], None]]]:
    """Name -> one-iteration callable for every gated topology benchmark."""
    pause_200 = pause_heavy_schedule(200)
    pause_1000 = pause_heavy_schedule(1000)
    churn_200 = churn_heavy_schedule(200)
    return [
        ("pause_fresh_200", _make_refresh_bench(pause_200)),
        ("pause_fresh_1000", _make_refresh_bench(pause_1000)),
        ("churn_fresh_200", _make_refresh_bench(churn_200)),
    ]

