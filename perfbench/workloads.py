"""The benchmark's three workloads and the checks on their outputs.

Each workload is a function ``(seed, workdir) -> (runs, counts)`` that
builds and runs its simulations serially in this process; ``counts``
holds the per-layer counts that only the workload can see (trace events
emitted, warm-pass store hits).  Every run is seeded from the workload
seed only, so one seed always produces the same runs, and every run is
reduced to a digest of its summary fields, ``events_processed`` and
``transmissions``.

Simulations are built through ``repro.experiments.runner.build_simulation``
looked up on the module at call time, so :class:`HostClock` (and the
traced run's span wrappers) see every world build, including the ones
the campaign executor makes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.experiments import runner
from repro.experiments.config import SimulationConfig
from repro.experiments.executor import CampaignExecutor
from repro.experiments.store import ResultStore
from repro.faults import FaultPlan
from repro.obs import InvariantChecker, ListSink, TraceBus
from repro.scenarios.matrix import MatrixSpec, expand_matrix

from perfbench import yardstick

__all__ = [
    "DEFAULT_SEED",
    "WORKLOADS",
    "HostClock",
    "Run",
    "combined_digest",
    "result_digest",
]

#: The seed whose digests ``reference.json`` records.
DEFAULT_SEED = 1

ROOT = Path(__file__).resolve().parent.parent
FAULT_PLANS = ROOT / "examples" / "faults"

TABLE1_SPECS = ("push", "pull", "rpcc-hy")
TABLE1_WARMUP = 600.0
TABLE1_HORIZON = 1800.0

CHAOS_PLANS = ("partition", "bursty_loss", "relay_kill", "crash_reboot")
CHAOS_SPECS = ("push", "pull", "rpcc-sc", "rpcc-dc", "rpcc-wc")
CHAOS_POLICIES = ("static", "hysteresis")

CATALOG_SCENARIOS = (
    "urban-grid", "highway-strip", "trace-replay",
    "campus-partition", "flash-crowd", "multi-source",
)
CATALOG_SPECS = ("push", "pull", "rpcc-sc")
CATALOG_POLICIES = ("lru", "ttl-value")
CATALOG_WARMUP = 120.0
CATALOG_HORIZON = 300.0

#: Simulated seconds between two yardstick calls (see :class:`HostClock`).
SLICE = 5.0


class Run(NamedTuple):
    """One simulation run of a workload and what its checks found."""

    label: str
    digest: str
    #: Simulated node-seconds: peers x (warm-up + horizon); 0 when the
    #: run simulated nothing (a warm-pass point served from the store).
    node_seconds: float
    #: ``None`` when the run passed its workload's own checks.
    problem: Optional[str] = None
    result: object = None


Output = Tuple[List[Run], Dict[str, int]]


def result_digest(result) -> str:
    """Digest of one result: summary fields, events and transmissions."""
    payload = {
        "summary": dataclasses.asdict(result.summary),
        "events_processed": result.events_processed,
        "transmissions": result.summary.transmissions,
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def combined_digest(runs: Sequence[Run]) -> str:
    """Digest of a whole repetition, in run order."""
    blob = "\n".join(f"{run.label}={run.digest}" for run in runs)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _node_seconds(config: SimulationConfig) -> float:
    return config.n_peers * (config.warmup + config.sim_time)


def _failed_run(label: str, exc: BaseException) -> Run:
    traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)
    return Run(label, "", 0.0, f"raised {type(exc).__name__}: {exc}")


class HostClock:
    """Times every world build and measures the host's speed during runs.

    While installed it wraps ``build_simulation``: it times each build,
    and, when ``yardstick`` is set, makes each built simulator run in
    steps of :data:`SLICE` simulated seconds with one
    :func:`perfbench.yardstick.call` after each step.  Stepping only adds
    clock stops between events; every event still fires in the same
    order, which the digest checks confirm.

    Setting ``keep`` holds on to the built simulations so the traced run
    can read their counters after they ran; the timed runs leave it off so
    the benchmark keeps no world alive longer than the program would.
    """

    def __init__(self) -> None:
        self.keep = False
        self.yardstick = True
        self.engines = set()
        self._original: Optional[Callable] = None
        self.reset()

    def install(self) -> None:
        original = self._original = runner.build_simulation

        def timed_build(*args, **kwargs):
            started = time.perf_counter()
            simulation = original(*args, **kwargs)
            self.seconds += time.perf_counter() - started
            self.engines.add("wheel" if simulation.sim.wheel_enabled else "heap")
            if self.yardstick:
                self._slice(simulation.sim)
            if self.keep:
                self.built.append(simulation)
            return simulation

        runner.build_simulation = timed_build

    def _slice(self, sim) -> None:
        run_until = sim.run_until

        def sliced(until: float, max_events: Optional[int] = None) -> int:
            if max_events is not None:
                return run_until(until, max_events)
            processed = 0
            while True:
                stop = min(sim.now + SLICE, until)
                processed += run_until(stop)
                self.yardstick_s += yardstick.call()
                self.yardstick_calls += 1
                if stop >= until:
                    return processed

        sim.run_until = sliced

    def uninstall(self) -> None:
        if self._original is not None:
            runner.build_simulation = self._original
            self._original = None

    def reset(self) -> None:
        self.seconds = 0.0
        self.yardstick_s = 0.0
        self.yardstick_calls = 0
        self.built: List[runner.Simulation] = []


# ----------------------------------------------------------------------
# table1: the paper run.

def table1(seed: int, workdir: Path) -> Output:
    runs = []
    for spec in TABLE1_SPECS:
        config = SimulationConfig(
            seed=seed, warmup=TABLE1_WARMUP, sim_time=TABLE1_HORIZON
        )
        try:
            result = runner.build_simulation(config, spec).run()
        except Exception as exc:
            runs.append(_failed_run(spec, exc))
            continue
        runs.append(Run(spec, result_digest(result), _node_seconds(config), None, result))
    return runs, {}


# ----------------------------------------------------------------------
# chaos-control: the checker-gated adaptive-vs-static fault campaign.

def chaos_seeds(seed: int) -> Sequence[int]:
    """The cell seeds derived from the workload seed.

    The work of a cell varies by up to 15 % from seed to seed; four
    seeds a cell average most of that out of the workload's time.
    """
    return tuple(4 * seed + index for index in range(4))


def chaos_control(seed: int, workdir: Path) -> Output:
    plans = {name: FaultPlan.load(FAULT_PLANS / f"{name}.json") for name in CHAOS_PLANS}
    runs = []
    events = 0
    for plan_name in CHAOS_PLANS:
        for spec in CHAOS_SPECS:
            for index, cell_seed in enumerate(chaos_seeds(seed)):
                for policy in CHAOS_POLICIES:
                    label = f"{plan_name}/{spec}/{index}/{policy}"
                    config = SimulationConfig(
                        n_peers=20,
                        terrain_width=1000.0,
                        terrain_height=1000.0,
                        sim_time=180.0,
                        warmup=60.0,
                        seed=cell_seed,
                        switch_interval=60.0,
                        faults=plans[plan_name],
                        controller=policy,
                    )
                    try:
                        bus = TraceBus()
                        sink = bus.add_sink(ListSink())
                        result = runner.build_simulation(
                            config, spec, "standard", trace=bus
                        ).run()
                        bus.close()
                        events += bus.events_emitted
                        report = InvariantChecker(delta=config.ttp).feed_all(
                            sink.events
                        ).finish()
                    except Exception as exc:
                        runs.append(_failed_run(label, exc))
                        continue
                    violations = len(report.violations)
                    problem = f"{violations} checker violations" if violations else None
                    runs.append(Run(
                        label, result_digest(result), _node_seconds(config), problem, result
                    ))
    return runs, {"obs.events": events}


# ----------------------------------------------------------------------
# catalog-campaign: a resumable matrix campaign over the scenario catalog.

def catalog_campaign(seed: int, workdir: Path) -> Output:
    """A cold pass into a fresh store, then a warm resume pass from it.

    Each point is one run.  It fails when its cold run raises, when the
    warm pass simulates anything, or when its warm result is not
    digest-equal to its cold result.
    """
    points = expand_matrix(MatrixSpec(
        scenarios=CATALOG_SCENARIOS,
        strategies=CATALOG_SPECS,
        policies=CATALOG_POLICIES,
        seeds=(seed,),
        base={"warmup": CATALOG_WARMUP, "sim_time": CATALOG_HORIZON},
    ))
    labels = [f"{p.scenario}/{p.strategy}/{p.policy}" for p in points]
    tasks = [point.task for point in points]
    workdir.mkdir(parents=True, exist_ok=True)
    store_dir = workdir / f"store-{time.perf_counter_ns()}"
    try:
        cold_pass = CampaignExecutor(jobs=1, store=ResultStore(store_dir))
        cold = cold_pass.run_many(tasks)
        warm_pass = CampaignExecutor(jobs=1, store=ResultStore(store_dir))
        warm = warm_pass.run_many(tasks)
    except Exception as exc:
        failed = _failed_run("catalog-campaign", exc)
        return [failed._replace(label=label) for label in labels], {}
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    resumed = warm_pass.runs_executed == 0 and warm_pass.store_hits == len(tasks)
    runs = []
    for label, point, cold_result, warm_result in zip(labels, points, cold, warm):
        digest = result_digest(cold_result)
        problem = None
        if not resumed:
            problem = (
                f"warm pass simulated {warm_pass.runs_executed} runs and served "
                f"{warm_pass.store_hits} of {len(tasks)} from the store"
            )
        elif result_digest(warm_result) != digest:
            problem = "warm result differs from its cold result"
        runs.append(Run(label, digest, _node_seconds(point.config), problem, cold_result))
    return runs, {
        "experiments.store_hits": warm_pass.store_hits,
        "experiments.runs_executed": warm_pass.runs_executed,
    }


WORKLOADS: Dict[str, Callable[[int, Path], Output]] = {
    "table1": table1,
    "chaos-control": chaos_control,
    "catalog-campaign": catalog_campaign,
}
