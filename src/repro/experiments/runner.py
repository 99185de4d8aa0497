"""Build and run complete simulations.

A *strategy spec* names what Fig 7/8 plot on their legends:

* ``"push"`` / ``"pull"`` — the baselines (always validated strongly);
* ``"rpcc-sc"`` / ``"rpcc-dc"`` / ``"rpcc-wc"`` — RPCC under a pure
  consistency-level workload;
* ``"rpcc-hy"`` — RPCC under the hybrid workload (equal thirds).

Three placement scenarios exist: ``"standard"`` (Table 1, random
placement), ``"single_source"`` (Fig 9: one randomly chosen source whose
item is cached by every other peer) and ``"hot_set"`` (a multi-source
generalisation: ``hot_set_size`` items each cached by every other peer,
queries restricted to the hot set).

The strategy family is discoverable through the
:data:`~repro.scenarios.registry.STRATEGIES` registry; each factory maps
``(context, config) -> ConsistencyStrategy`` and is keyed by the family
name (``push``/``pull``/``rpcc``), while the spec strings above add the
workload-mix suffix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cache.catalog import Catalog
from repro.cache.directory import CacheDirectory
from repro.cache.discovery import Discovery
from repro.cache.placement import (
    hot_set_placement,
    random_placement,
    single_item_placement,
)
from repro.cache.replacement import make_policy
from repro.consistency.base import (
    ConsistencyStrategy,
    RetryBackoff,
    StrategyContext,
)
from repro.consistency.pull import PullStrategy
from repro.consistency.push import PushStrategy
from repro.consistency.rpcc import RPCCConfig, RPCCStrategy
from repro.control import OnlineController
from repro.energy.battery import Battery
from repro.errors import ConfigurationError
from repro.experiments.config import SimulationConfig
from repro.faults import FaultInjector
from repro.metrics.collector import MetricsCollector, MetricsSummary
from repro.metrics.degradation import DegradationMeter
from repro.metrics.timeseries import TimeSeries
from repro.mobility.stationary import Stationary
from repro.mobility.subnets import SubnetGrid, SubnetTracker
from repro.mobility.terrain import Terrain
from repro.mobility.trace import record_trace
from repro.mobility.walk import RandomWalk
from repro.mobility.waypoint import RandomWaypoint
from repro.net.link import LinkModel
from repro.net.network import Network
from repro.net.routing import CachingRouter, ShortestPathRouter
from repro.peers.coefficients import CoefficientTracker
from repro.peers.host import MobileHost
from repro.peers.switching import SwitchingProcess
from repro.scenarios.registry import CONTROLLERS, STRATEGIES, register_strategy
from repro.sim.engine import Simulator, StartupBatch
from repro.sim.rng import RandomStreams
from repro.sim.timers import PeriodicTimer
from repro.workload.access import (
    AccessPattern,
    FlashCrowdAccess,
    UniformAccess,
    ZipfAccess,
)
from repro.workload.drivers import QueryWorkload, UpdateWorkload
from repro.workload.mix import LevelMix

__all__ = [
    "PLACEMENT_SCENARIOS",
    "STRATEGY_SPECS",
    "Simulation",
    "SimulationResult",
    "build_simulation",
    "run_simulation",
]

#: Every legend entry of Fig 7/8.
STRATEGY_SPECS = ("pull", "push", "rpcc-sc", "rpcc-dc", "rpcc-wc", "rpcc-hy")

#: Placement scenarios build_simulation understands.
PLACEMENT_SCENARIOS = ("standard", "single_source", "hot_set")

#: Sampling interval of the recorded trace replayed by mobility="trace".
TRACE_SAMPLE_INTERVAL = 10.0


def _parse_spec(spec: str) -> Tuple[str, LevelMix]:
    spec = spec.strip().lower()
    if spec == "push" or spec == "pull":
        return spec, LevelMix.pure("sc")
    if spec.startswith("rpcc-"):
        suffix = spec.split("-", 1)[1]
        if suffix == "hy":
            return "rpcc", LevelMix.hybrid()
        return "rpcc", LevelMix.pure(suffix)
    raise ConfigurationError(
        f"unknown strategy spec {spec!r}; choose from {STRATEGY_SPECS}"
    )


@dataclass
class SimulationResult:
    """Everything a finished run reports."""

    spec: str
    scenario: str
    config: SimulationConfig
    summary: MetricsSummary
    total_queries: int
    total_updates: int
    relay_samples: List[Tuple[float, int]] = field(default_factory=list)
    traffic_series: Optional[TimeSeries] = None
    energy_consumed: float = 0.0
    mean_battery_fraction: float = 0.0
    wall_clock_seconds: float = 0.0
    events_processed: int = 0
    #: TopologyService counters (snapshots built, invalidations; the
    #: reused/incremental keys are always 0) at end of run.
    topology_stats: Dict[str, int] = field(default_factory=dict)
    #: Degradation metrics (availability, stale-serve rate in partition,
    #: time-to-reconverge); empty for fault-free runs without a meter.
    fault_stats: Dict[str, float] = field(default_factory=dict)
    #: Which per-quantum core executed this run: ``"vectorized"`` (numpy
    #: struct-of-arrays fast path) or ``"scalar"``.  Both produce
    #: bit-identical results; the field only records which one ran.
    core: str = "scalar"
    #: Applied online-control decisions in order (empty without a
    #: controller): ``{"time", "policy", "reason", "applied", "modes"}``.
    control_decisions: List[Dict[str, object]] = field(default_factory=list)

    @property
    def transmissions_per_minute(self) -> float:
        """Hop transmissions normalised by simulated time."""
        minutes = self.config.sim_time / 60.0
        return self.summary.transmissions / minutes if minutes > 0 else 0.0

    @property
    def mean_relay_count(self) -> float:
        """Time-averaged relay population (0 for non-RPCC runs)."""
        if not self.relay_samples:
            return 0.0
        return sum(count for _, count in self.relay_samples) / len(self.relay_samples)


class Simulation:
    """A fully wired simulation, ready to :meth:`run`."""

    def __init__(
        self,
        spec: str,
        scenario: str,
        config: SimulationConfig,
        sim: Simulator,
        network: Network,
        hosts: Dict[int, MobileHost],
        catalog: Catalog,
        strategy: ConsistencyStrategy,
        metrics: MetricsCollector,
        update_workload: UpdateWorkload,
        query_workload: QueryWorkload,
        single_source_item: Optional[int] = None,
        controller: Optional[OnlineController] = None,
    ) -> None:
        self.spec = spec
        self.scenario = scenario
        self.config = config
        self.sim = sim
        self.network = network
        self.hosts = hosts
        self.catalog = catalog
        self.strategy = strategy
        self.metrics = metrics
        self.update_workload = update_workload
        self.query_workload = query_workload
        self.single_source_item = single_source_item
        self.controller = controller
        self._relay_samples: List[Tuple[float, int]] = []
        self._traffic_series = TimeSeries("transmissions")
        self._last_tx_total = 0

    def run(self, until: Optional[float] = None) -> SimulationResult:
        """Run warm-up plus the measured window (``config.sim_time``).

        Metrics are reset after ``config.warmup`` seconds so that the
        relay-bootstrap transient does not pollute steady-state numbers.
        """
        measured = self.config.sim_time if until is None else float(until)
        started = time.perf_counter()
        # Collect every startup arm (one TTN timer, two arrival streams,
        # one period timer and one switching process per host) and file
        # them in a single vectorized pass.  add-order == the historical
        # per-call schedule order and nothing else schedules before the
        # flush, so sequence numbers — and hence the event stream — are
        # bit-identical to the unbatched path.
        batch = StartupBatch()
        self.strategy.start(batch)
        self.update_workload.start(batch)
        self.query_workload.start(batch)
        for host in self.hosts.values():
            host.start_period_timer(batch)
            if host.switching is not None:
                host.switching.start(batch)
        if isinstance(self.strategy, RPCCStrategy):
            sampler = PeriodicTimer(self.sim, 60.0, self._sample_relays)
            sampler.start(batch)
        traffic_sampler = PeriodicTimer(self.sim, 60.0, self._sample_traffic)
        traffic_sampler.start(batch)
        if self.controller is not None:
            self.controller.start(batch)
        batch.flush(self.sim)
        if self.config.warmup > 0:
            self.sim.run_until(self.config.warmup)
            self.metrics.reset()
            self._relay_samples.clear()
        self.sim.run_until(self.config.warmup + measured)
        elapsed = time.perf_counter() - started
        energy = sum(host.battery.total_consumed for host in self.hosts.values())
        fraction = sum(
            host.battery.fraction for host in self.hosts.values()
        ) / len(self.hosts)
        summary = self.metrics.summary()
        return SimulationResult(
            spec=self.spec,
            scenario=self.scenario,
            config=self.config,
            summary=summary,
            total_queries=self.query_workload.total_queries,
            total_updates=self.update_workload.total_updates,
            relay_samples=list(self._relay_samples),
            traffic_series=self._traffic_series,
            energy_consumed=energy,
            mean_battery_fraction=fraction,
            wall_clock_seconds=elapsed,
            events_processed=self.sim.events_processed,
            topology_stats=self.network.topology.stats(),
            fault_stats=dict(summary.fault_stats),
            core=self.network.core,
            control_decisions=(
                list(self.controller.decisions)
                if self.controller is not None
                else []
            ),
        )

    def _sample_traffic(self) -> None:
        """Record the per-minute transmission rate (a convergence series)."""
        total = self.metrics.traffic.transmissions()
        delta = total - self._last_tx_total
        # A metrics reset at warm-up end makes the cumulative total drop;
        # restart the delta baseline instead of recording a negative rate.
        if delta < 0:
            delta = total
        self._last_tx_total = total
        self._traffic_series.record(self.sim.now, float(delta))

    def _sample_relays(self) -> None:
        assert isinstance(self.strategy, RPCCStrategy)
        if self.single_source_item is not None:
            count = self.strategy.relay_count_for(self.single_source_item)
        else:
            count = self.strategy.relay_count()
        self._relay_samples.append((self.sim.now, count))


def build_simulation(
    config: SimulationConfig,
    spec: str,
    scenario: str = "standard",
    *,
    trace=None,
) -> Simulation:
    """Wire every substrate into a runnable simulation.

    Parameters
    ----------
    config:
        The full parameter set (Table 1 defaults via ``SimulationConfig()``).
    spec:
        One of :data:`STRATEGY_SPECS`.
    scenario:
        One of :data:`PLACEMENT_SCENARIOS`: ``"standard"``,
        ``"single_source"`` (Fig 9) or ``"hot_set"``.
    trace:
        Optional :class:`repro.obs.TraceBus`; when given, every
        instrumented subsystem emits trace events into it.  Omitted (the
        default) the simulator keeps its no-op bus and tracing costs one
        branch per emit site.
    """
    if scenario not in PLACEMENT_SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {scenario!r}; choose from {PLACEMENT_SCENARIOS}"
        )
    strategy_name, mix = _parse_spec(spec)
    # An empty plan is the same as no plan: no fault RNG streams, no
    # scheduled fault events, no degradation meter — bit-identical runs.
    plan = (
        config.faults
        if config.faults is not None and not config.faults.is_empty
        else None
    )
    sim = Simulator()
    streams = RandomStreams(config.seed)
    metrics = MetricsCollector(delta=config.ttp)
    if plan is not None:
        metrics.degradation = DegradationMeter(lambda: sim.now)
    if trace is not None:
        sim.attach_trace(trace)
        metrics.attach_trace(trace, lambda: sim.now)
    router = CachingRouter() if config.routing == "cached" else ShortestPathRouter()
    # loss_rate == 0 keeps the seed's exact LinkModel behaviour (and RNG
    # stream layout): hop_is_lost() short-circuits without drawing.
    link = LinkModel(
        loss_rate=config.loss_rate,
        rng=streams.stream("link-loss") if config.loss_rate > 0 else None,
    )
    network = Network(
        sim,
        radio_range=config.radio_range,
        link=link,
        traffic=metrics,
        router=router,
    )
    terrain = Terrain(config.terrain_width, config.terrain_height)
    grid = SubnetGrid(terrain, config.subnet_cell)
    catalog = Catalog.one_item_per_host(range(config.n_peers), config.content_size)
    directory = CacheDirectory()

    stable_rng = streams.stream("stable-assignment")
    stable_count = round(config.stable_fraction * config.n_peers)
    stable_ids = set(stable_rng.sample(range(config.n_peers), stable_count))

    battery_rng = streams.stream("battery")
    hosts: Dict[int, MobileHost] = {}
    for host_id in range(config.n_peers):
        stable = host_id in stable_ids
        if stable:
            mobility = Stationary(terrain.random_point(streams.stream(f"pos/{host_id}")))
        elif config.mobility == "walk":
            mobility = RandomWalk(
                terrain,
                streams.stream(f"mobility/{host_id}"),
                speed_min=config.speed_min,
                speed_max=config.speed_max,
            )
        else:
            mobility = RandomWaypoint(
                terrain,
                streams.stream(f"mobility/{host_id}"),
                speed_min=config.speed_min,
                speed_max=config.speed_max,
                pause_time=config.pause_time,
            )
            if config.mobility == "trace":
                # Trace replay: sample the waypoint trajectory up front and
                # replay it as piecewise-linear motion — every strategy run
                # over this config sees the *identical* movement, which is
                # the trace-replay scenario's whole point.
                recorded = record_trace(
                    mobility,
                    duration=config.warmup + config.sim_time + TRACE_SAMPLE_INTERVAL,
                    interval=TRACE_SAMPLE_INTERVAL,
                )
                mobility = recorded.as_model()
        initial = 100.0 if stable else battery_rng.uniform(40.0, 100.0)
        host = MobileHost(
            host_id,
            sim,
            mobility,
            battery=Battery(capacity=100.0, initial=initial),
            cache_capacity=config.cache_num,
            directory=directory,
            coefficient_tracker=CoefficientTracker(
                phi=config.switch_interval, omega=config.omega
            ),
            subnet_tracker=SubnetTracker(grid, mobility),
            # One fresh policy instance per host: stateful policies keep
            # per-store history.  ttl/clock are wiring the TTL-aware
            # policy accepts; stateless ones ignore them.
            replacement_policy=make_policy(
                config.replacement_policy, ttl=config.ttp, clock=lambda: sim.now
            ),
        )
        host.attach_source(catalog.master(host_id))
        if not stable:
            host.switching = SwitchingProcess(
                sim,
                streams.stream(f"switch/{host_id}"),
                host.set_online,
                mean_online=config.mean_online,
                mean_offline=config.mean_offline,
            )
        network.register(host)
        hosts[host_id] = host

    discovery = Discovery(catalog, directory)
    backoff_on = (
        config.retry_backoff
        if config.retry_backoff is not None
        else plan is not None
    )
    backoff = (
        RetryBackoff(
            factor=config.backoff_factor,
            cap=config.backoff_cap,
            jitter=config.backoff_jitter,
            seed=config.seed,
        )
        if backoff_on
        else None
    )
    context = StrategyContext(
        network,
        catalog,
        discovery,
        metrics,
        delta=config.ttp,
        fetch_timeout=config.fetch_timeout,
        cache_on_read=config.cache_on_read,
        backoff=backoff,
    )
    strategy = _make_strategy(strategy_name, context, config)
    for host in hosts.values():
        host.agent = strategy.make_agent(host)

    single_item: Optional[int] = None
    stores = {host_id: host.store for host_id, host in hosts.items()}
    if scenario == "single_source":
        single_item = streams.stream("fig9-source").randrange(config.n_peers)
        single_item_placement(catalog, stores, single_item)
        update_hosts = [hosts[catalog.source_of(single_item)]]
        restrict = [single_item]
    elif scenario == "hot_set":
        k = min(config.hot_set_size, len(catalog.item_ids))
        hot_items = sorted(
            streams.stream("hot-set").sample(sorted(catalog.item_ids), k)
        )
        hot_set_placement(catalog, stores, hot_items)
        update_hosts = [hosts[catalog.source_of(item)] for item in hot_items]
        restrict = hot_items
    else:
        random_placement(
            catalog, stores, config.cache_num, streams.stream("placement")
        )
        update_hosts = list(hosts.values())
        restrict = None
    # Pre-placed copies count as freshly validated for RPCC.
    if isinstance(strategy, RPCCStrategy):
        for host in hosts.values():
            agent = strategy.agent_for(host.node_id)
            for item_id in host.store.item_ids:
                agent.cache_peer.renew_ttp(item_id)  # type: ignore[attr-defined]

    update_workload = UpdateWorkload(
        update_hosts, streams, mean_interval=config.update_interval
    )
    if config.access_pattern == "flash-crowd":
        access: AccessPattern = FlashCrowdAccess(
            catalog.item_ids,
            theta=config.zipf_theta,
            seed=config.seed,
            shift_at=config.flash_crowd_at,
            clock=lambda: sim.now,
        )
    elif config.access_pattern == "zipf" or config.zipf_theta > 0:
        # zipf_theta > 0 alone is the pre-catalog shorthand for Zipf;
        # honouring it keeps older configs (and goldens) bit-identical.
        access = ZipfAccess(
            catalog.item_ids, theta=config.zipf_theta, seed=config.seed
        )
    else:
        access = UniformAccess(catalog.item_ids)
    query_workload = QueryWorkload(
        hosts.values(),
        streams,
        strategy,
        access,
        mix,
        mean_interval=config.query_interval,
        restrict_to_items=restrict,
    )
    injector: Optional[FaultInjector] = None
    if plan is not None:
        injector = FaultInjector(
            plan,
            sim=sim,
            network=network,
            hosts=hosts,
            metrics=metrics,
            strategy=strategy,
            seed=config.seed,
            terrain_width=config.terrain_width,
            terrain_height=config.terrain_height,
            degradation=metrics.degradation,
        )
        network.faults = injector
        injector.start()
    controller: Optional[OnlineController] = None
    if config.controller is not None:
        # Constructed last so the "controller" RNG stream is derived only
        # when a controller actually runs: controller=None draws the
        # exact pre-controller random sequences.
        controller = OnlineController(
            CONTROLLERS.get(config.controller)(),
            strategy,
            metrics,
            streams,
            hosts=hosts.values(),
            injector=injector,
            interval=config.controller_interval,
        )
    return Simulation(
        spec=spec,
        scenario=scenario,
        config=config,
        sim=sim,
        network=network,
        hosts=hosts,
        catalog=catalog,
        strategy=strategy,
        metrics=metrics,
        update_workload=update_workload,
        query_workload=query_workload,
        single_source_item=single_item,
        controller=controller,
    )


@register_strategy("push")
def _build_push(context: StrategyContext, config: SimulationConfig) -> ConsistencyStrategy:
    return PushStrategy(context, ttn=config.ttn, ttl=config.ttl_broadcast)


@register_strategy("pull")
def _build_pull(context: StrategyContext, config: SimulationConfig) -> ConsistencyStrategy:
    return PullStrategy(
        context, ttl=config.ttl_broadcast, poll_timeout=config.poll_timeout
    )


@register_strategy("rpcc")
def _build_rpcc(context: StrategyContext, config: SimulationConfig) -> ConsistencyStrategy:
    # Protocol hardening rides along with fault injection: fault-free
    # runs keep the paper-faithful defaults (and their golden digests).
    hardened = config.faults is not None and not config.faults.is_empty
    rpcc_config = RPCCConfig(
        ttl_invalidation=config.ttl_rpcc,
        ttn=config.ttn,
        ttr=config.ttr,
        ttp=config.ttp,
        poll_timeout=config.poll_timeout,
        broadcast_ttl=config.ttl_broadcast,
        thresholds=config.thresholds,
        update_repush_attempts=2 if hardened else 0,
        resync_on_reconnect=hardened,
        fast_relay_failover=hardened,
    )
    return RPCCStrategy(context, rpcc_config)


def _make_strategy(
    name: str, context: StrategyContext, config: SimulationConfig
) -> ConsistencyStrategy:
    return STRATEGIES.get(name)(context, config)


def run_simulation(
    config: SimulationConfig,
    spec: str,
    scenario: str = "standard",
    *,
    trace=None,
) -> SimulationResult:
    """Convenience: build and run in one call."""
    return build_simulation(config, spec, scenario, trace=trace).run()
