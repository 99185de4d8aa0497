"""Which calls make up each layer, and what each per-layer metric means.

``BOUNDARIES`` lists the public functions the traced run wraps, one
layer name per entry (see :func:`perfbench.spans.install`).  Code that
runs inside no boundary is charged to the nearest enclosing span: event
dispatch and unwrapped callbacks (workload arrivals, protocol timers) to
``sim``, and anything outside ``Simulator.run_until`` and
``build_simulation`` to the root span, reported as ``trace.remainder_s``.

``PER_LAYER`` is the per-layer metric table of ``BENCHMARK.json``, with
each metric's source and the end-to-end metric and workload it should
move, so a later change can cite the row it claims to move.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from perfbench.spans import Boundary

BOUNDARIES: Tuple[Boundary, ...] = (
    ("sim", "repro.sim.engine:Simulator", ("run_until",)),
    ("sim", "repro.sim.engine:StartupBatch", ("add", "flush")),
    ("sim", "repro.sim.timers:PeriodicTimer", ("start",)),
    ("sim", "repro.workload.arrivals:ExponentialProcess", ("start",)),
    ("mobility", "repro.mobility.base:MobilityModel", ("position", "position_valid_until")),
    ("mobility", "repro.mobility.bulk:_Kernel", ("sample",)),
    ("net.topology", "repro.net.topology:TopologyService", ("current",)),
    ("net.route", "repro.net.topology:TopologySnapshot",
     ("shortest_path", "bfs_levels", "hop_distance")),
    ("net.route", "repro.net.routing:Router", ("find_route",)),
    ("net.send", "repro.net.network:Network", ("unicast", "flood")),
    ("peers", "repro.peers.host:MobileHost",
     ("deliver", "set_online", "on_transmit", "on_receive", "crash", "reboot",
      "update_master", "start_period_timer")),
    ("peers", "repro.peers.switching:SwitchingProcess", ("start",)),
    ("peers", "repro.peers.coefficients:CoefficientTracker", ("close_period",)),
    ("consistency", "repro.consistency.base:BaseAgent",
     ("handle_message", "handle_protocol_message", "local_query",
      "on_local_update", "on_period_closed", "on_reconnect", "on_disconnect",
      "broadcast_report")),
    ("cache", "repro.cache.store:CacheStore", ("get", "put", "discard")),
    ("cache", "repro.cache.discovery:Discovery", ("nearest_holder", "nearest_among")),
    ("energy", "repro.energy.battery:Battery", ("on_transmit", "on_receive", "idle")),
    ("metrics", "repro.metrics.collector:MetricsCollector",
     ("record_transmissions", "bump", "summary", "reset")),
    ("metrics", "repro.metrics.latency:LatencyRecorder", ("open", "close")),
    ("metrics", "repro.metrics.staleness:StalenessTracker", ("record_update", "record_read")),
    ("obs.emit", "repro.obs.bus:TraceBus", ("emit",)),
    ("obs.check", "repro.obs.checker:InvariantChecker", ("feed_all", "finish")),
    ("faults", "repro.faults.injector:FaultInjector",
     ("unicast_hop_lost", "extra_delay", "duplicate")),
    ("control", "repro.control.controller:OnlineController", ("sample", "actuate")),
    ("control", "repro.control.policies:ControlPolicy", ("decide",)),
    ("experiments.build", "repro.experiments.runner", ("build_simulation",)),
    ("experiments.store_write", "repro.experiments.store:SegmentWriter",
     ("add_result", "close")),
    ("experiments.store_read", "repro.experiments.store:ResultStore", ("get_many",)),
    ("experiments.store_read", "repro.experiments.store:RunRecord", ("to_result",)),
    ("experiments.campaign", "repro.experiments.executor:CampaignExecutor", ("run_many",)),
)

#: Span layer -> the per-layer metric reporting its self time.
SELF_TIME_METRIC: Dict[str, str] = {
    "sim": "sim.self_s",
    "mobility": "mobility.s",
    "net.topology": "net.topology_s",
    "net.route": "net.route_s",
    "net.send": "net.send_s",
    "peers": "peers.s",
    "consistency": "consistency.s",
    "cache": "cache.s",
    "energy": "energy.s",
    "metrics": "metrics.s",
    "obs.emit": "obs.emit_s",
    "obs.check": "obs.check_s",
    "faults": "faults.s",
    "control": "control.s",
    "experiments.build": "experiments.build_s",
    "experiments.store_write": "experiments.store_write_s",
    "experiments.store_read": "experiments.store_read_s",
    "experiments.campaign": "experiments.campaign_s",
}


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    source: str
    moves: str


PER_LAYER: Tuple[LayerMetric, ...] = (
    LayerMetric("sim.self_s", "s", "lower",
                "Simulator.run_until minus child spans (event dispatch, unwrapped callbacks)",
                "wall_ref_s on chaos-control, table1"),
    LayerMetric("sim.events", "count", "lower", "SimulationResult.events_processed",
                "wall_ref_s on chaos-control, table1"),
    LayerMetric("mobility.s", "s", "lower",
                "MobilityModel.position/position_valid_until, bulk kernel sample",
                "wall_ref_s on table1, chaos-control; setup_s on catalog-campaign (trace-replay)"),
    LayerMetric("net.topology_s", "s", "lower", "TopologyService.current",
                "wall_ref_s on table1 (core choice)"),
    LayerMetric("net.snapshots_built", "count", "lower", "topology_stats",
                "wall_ref_s on table1"),
    LayerMetric("net.snapshots_reused", "count", "higher", "topology_stats",
                "wall_ref_s on table1; 0 on every workload today"),
    LayerMetric("net.incremental_updates", "count", "higher", "topology_stats",
                "wall_ref_s on catalog-campaign; 0 on every workload today"),
    LayerMetric("net.route_s", "s", "lower",
                "TopologySnapshot.shortest_path/bfs_levels/hop_distance, Router.find_route",
                "wall_ref_s on table1"),
    LayerMetric("net.send_s", "s", "lower", "Network.unicast/flood",
                "wall_ref_s on table1 (pull floods)"),
    LayerMetric("net.messages_sent", "count", "lower", "Network.messages_sent",
                "wall_ref_s on table1"),
    LayerMetric("net.undeliverable_ratio", "ratio", "lower",
                "Network.messages_undeliverable / messages_sent", "wall_ref_s on table1"),
    LayerMetric("net.transmissions", "count", "lower", "summary.transmissions",
                "wall_ref_s on table1"),
    LayerMetric("peers.s", "s", "lower",
                "MobileHost.deliver/set_online/on_transmit/on_receive, "
                "CoefficientTracker.close_period",
                "wall_ref_s on table1"),
    LayerMetric("consistency.s", "s", "lower",
                "BaseAgent.handle_message/local_query and subclass handlers",
                "wall_ref_s on table1, chaos-control"),
    LayerMetric("consistency.answered_ratio", "ratio", "higher",
                "summary.queries_answered / queries_issued", "wall_ref_s on table1, chaos-control"),
    LayerMetric("cache.s", "s", "lower", "CacheStore.get/put/discard, Discovery.nearest_holder",
                "wall_ref_s on catalog-campaign"),
    LayerMetric("cache.hit_ratio", "ratio", "higher", "CacheStore.hits / (hits + misses)",
                "wall_ref_s on catalog-campaign"),
    LayerMetric("energy.s", "s", "lower", "Battery.on_transmit/on_receive/idle",
                "wall_ref_s on table1"),
    LayerMetric("metrics.s", "s", "lower",
                "MetricsCollector.record_transmissions/bump/summary, latency and staleness records",
                "wall_ref_s on table1"),
    LayerMetric("obs.emit_s", "s", "lower", "TraceBus.emit",
                "wall_ref_s, peak_rss_mb on chaos-control only"),
    LayerMetric("obs.events", "count", "lower", "TraceBus.events_emitted",
                "wall_ref_s, peak_rss_mb on chaos-control only"),
    LayerMetric("obs.check_s", "s", "lower", "InvariantChecker.feed_all/finish",
                "wall_ref_s on chaos-control only"),
    LayerMetric("faults.s", "s", "lower",
                "FaultInjector.unicast_hop_lost/extra_delay/duplicate",
                "wall_ref_s on chaos-control only"),
    LayerMetric("control.s", "s", "lower",
                "OnlineController.sample/actuate, ControlPolicy.decide",
                "wall_ref_s on chaos-control only"),
    LayerMetric("control.actuations", "count", "lower", "len(SimulationResult.control_decisions)",
                "wall_ref_s on chaos-control only"),
    LayerMetric("experiments.build_s", "s", "lower", "build_simulation",
                "setup_s, mostly on catalog-campaign"),
    LayerMetric("experiments.store_write_s", "s", "lower", "SegmentWriter.add_result/close",
                "wall_ref_s on catalog-campaign only"),
    LayerMetric("experiments.store_read_s", "s", "lower",
                "ResultStore.get_many, RunRecord.to_result", "wall_ref_s on catalog-campaign only"),
    LayerMetric("experiments.store_hits", "count", "higher",
                "CampaignExecutor.store_hits of the warm pass", "wall_ref_s on catalog-campaign only"),
    LayerMetric("experiments.runs_executed", "count", "lower",
                "CampaignExecutor.runs_executed of the warm pass (0 when resume works)",
                "wall_ref_s on catalog-campaign only"),
    LayerMetric("experiments.campaign_s", "s", "lower",
                "CampaignExecutor.run_many minus child spans (run keys, bookkeeping)",
                "wall_ref_s on catalog-campaign only"),
    LayerMetric("trace.wall_s", "s", "lower", "root span: one traced repetition, set-up included",
                "- (the sum the layer self times add up to)"),
    LayerMetric("trace.remainder_s", "s", "lower", "root span self time: code inside no boundary",
                "- (the stated remainder of the layer sum)"),
    LayerMetric("trace.overhead_s", "s", "lower",
                "traced repetition minus untraced repetition, set-up included",
                "- (what the wrappers cost)"),
)
