"""Scaling benchmarks: the vectorized core against the scalar core.

Each benchmark runs one short RPCC simulation at 1k/5k/10k peers with
the struct-of-arrays fast path either forced on (``REPRO_SOA=1``) or
forced off (``REPRO_SOA=0``) and reports the wall-clock seconds of the
**run phase only** — ``Simulation.run()`` from a freshly built world.
Building the world (host registration, placement, RNG stream derivation)
is identical O(n) setup work on both arms, so timing it would only
dilute the per-quantum speedup the fast path exists to deliver; the
benchmarks are therefore *self-timing* (``run_bench.py`` calls them via
``measure_returned`` instead of timing the call).

The configuration is chosen to keep the run phase topology-dominated —
the regime the paper's larger deployments live in, and the one the
vectorized core targets:

* random-walk mobility resamples every node each epoch, so every quantum
  samples every node and rebuilds the snapshot (the mobility + adjacency
  hot loop is what scales with n);
* the ``single_source`` scenario keeps setup O(n) and the protocol load
  light (one update source, sparse queries), so protocol handlers do not
  drown the per-quantum core being compared;
* long RPCC timers (TTN/TTR/TTP) keep invalidation floods rare for the
  same reason.

Both arms produce bit-identical results — :func:`verify_identity`
asserts it on the event count and the full metrics summary, and is run
by the benchmark tests and the CI smoke job.

``run_bench.py --suite scale`` gates all six timings against
``BENCH_scale.json`` and derives the per-scale speedups into the
baseline metadata via :func:`scale_speedups`.
"""

from __future__ import annotations

import math
import os
import time
from typing import Callable, Dict, List, Tuple

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import build_simulation
from repro.net import soa

SCALES = (1_000, 5_000, 10_000)
SPEC = "rpcc-hy"
SIM_TIME = 30.0


def scale_config(n_peers: int, sim_time: float = SIM_TIME) -> SimulationConfig:
    """The topology-dominated scaling configuration at ``n_peers``.

    Terrain grows with ``sqrt(n)`` to hold the paper's density (50 nodes
    per 1500 m square), so per-node degree — and therefore per-quantum
    adjacency work — stays comparable across scales.
    """
    side = 1500.0 * math.sqrt(n_peers / 50.0)
    return SimulationConfig(
        n_peers=n_peers,
        terrain_width=side,
        terrain_height=side,
        sim_time=sim_time,
        warmup=0.0,
        seed=7,
        mobility="walk",
        stable_fraction=0.1,
        ttn=3600.0,
        ttr=2700.0,
        ttp=7200.0,
        query_interval=float(n_peers),
        update_interval=1000.0,
    )


def _run_once(n_peers: int, vectorized: bool, sim_time: float = SIM_TIME):
    """Build and run one simulation on the chosen core.

    Returns ``(run_seconds, result)``; only ``Simulation.run()`` is
    inside the timed region.
    """
    saved = os.environ.get("REPRO_SOA")
    os.environ["REPRO_SOA"] = "1" if vectorized else "0"
    try:
        simulation = build_simulation(
            scale_config(n_peers, sim_time), SPEC, scenario="single_source"
        )
        expected = "vectorized" if vectorized else "scalar"
        if simulation.network.core != expected:  # pragma: no cover - env guard
            raise RuntimeError(
                f"asked for the {expected} core but got "
                f"{simulation.network.core} (numpy missing?)"
            )
        started = time.perf_counter()
        result = simulation.run()
        elapsed = time.perf_counter() - started
    finally:
        if saved is None:
            os.environ.pop("REPRO_SOA", None)
        else:
            os.environ["REPRO_SOA"] = saved
    return elapsed, result


def _make_scale_bench(n_peers: int, vectorized: bool) -> Callable[[], float]:
    def run() -> float:
        return _run_once(n_peers, vectorized)[0]

    return run


def verify_identity(n_peers: int = 1_000, sim_time: float = 10.0) -> None:
    """Assert both cores produce bit-identical results at ``n_peers``.

    Compares the processed-event count and the full metrics summary of
    one scalar and one vectorized run of the same configuration.
    """
    _, vec = _run_once(n_peers, vectorized=True, sim_time=sim_time)
    _, ref = _run_once(n_peers, vectorized=False, sim_time=sim_time)
    if vec.events_processed != ref.events_processed or vec.summary != ref.summary:
        raise AssertionError(
            f"cores diverged at n={n_peers}: "
            f"events {vec.events_processed} vs {ref.events_processed}"
        )


def scale_benchmarks(workdir: str) -> List[Tuple[str, Callable[[], float]]]:
    """Name -> self-timing callable for every gated scale benchmark.

    Without numpy (the ``perf`` extra) only the scalar arm exists; the
    vectorized entries are omitted and the gate treats them as missing
    (which never fails the comparison).
    """
    benches: List[Tuple[str, Callable[[], float]]] = []
    for n_peers in SCALES:
        benches.append(
            (f"scale_run_scalar_{n_peers}", _make_scale_bench(n_peers, False))
        )
        if soa.HAVE_NUMPY:
            benches.append(
                (f"scale_run_vectorized_{n_peers}", _make_scale_bench(n_peers, True))
            )
    return benches


#: The committed 10k-node vectorized run-phase seconds *before* the
#: timer-wheel engine and message fast path landed (the PR-6 baseline,
#: measured on the same reference machine).  The engine PR's acceptance
#: bar — held by the committed-target test — is >= 2x over this number.
PR6_VECTORIZED_10000 = 2.4789593999994395


def scale_speedups(results: Dict[str, float]) -> Dict[str, float]:
    """Derive the per-scale vectorized speedups from the timings."""
    ratios: Dict[str, float] = {}
    for n_peers in SCALES:
        scalar = results.get(f"scale_run_scalar_{n_peers}")
        vectorized = results.get(f"scale_run_vectorized_{n_peers}")
        if scalar and vectorized:
            ratios[f"vectorized_speedup_{n_peers}"] = scalar / vectorized
    vec_10k = results.get("scale_run_vectorized_10000")
    if vec_10k:
        ratios["engine_speedup_vs_pr6"] = PR6_VECTORIZED_10000 / vec_10k
    return ratios
