"""Golden end-to-end regression digests for the seeded strategy matrix.

Each (spec, seed) cell runs a short traced simulation and is reduced to
a *digest*: the integer metrics, rounded float metrics and per-event-type
trace counts.  Digests are compared against ``tests/golden/digests.json``
— any behavioural drift in the engine, the network, a protocol, or the
trace instrumentation shows up as a digest mismatch here before it can
silently corrupt a figure.

Digests deliberately contain **no** ids (query/poll/message/fetch ids
come from process-global counters and depend on test execution order)
and no wall-clock fields.  Regenerate after an intentional behaviour
change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_e2e.py

and commit the refreshed ``digests.json`` alongside the change.

Every run is also replayed through the invariant checker: the golden
matrix doubles as the "checker passes seeded e2e runs of all strategies
and levels" acceptance gate.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import build_simulation
from repro.obs import InvariantChecker, ListSink, TraceBus

GOLDEN_PATH = Path(__file__).parent / "golden" / "digests.json"
UPDATE = bool(os.environ.get("REPRO_UPDATE_GOLDEN"))

SPECS = ("push", "pull", "rpcc-sc", "rpcc-dc", "rpcc-wc")
SEEDS = (7, 11)
MATRIX = [(spec, seed) for spec in SPECS for seed in SEEDS]

_INT_METRICS = (
    "transmissions", "messages", "bytes_on_air",
    "queries_issued", "queries_answered", "queries_unanswered",
)
_FLOAT_METRICS = (
    "mean_latency", "mean_hit_latency", "p95_latency",
    "local_answer_ratio", "stale_ratio", "violation_ratio",
    "mean_staleness_age",
)


def _config(seed: int) -> SimulationConfig:
    return SimulationConfig(
        n_peers=20,
        terrain_width=1000.0,
        terrain_height=1000.0,
        sim_time=180.0,
        warmup=60.0,
        seed=seed,
    )


def _run_cell(spec: str, seed: int):
    bus = TraceBus()
    sink = bus.add_sink(ListSink())
    result = build_simulation(_config(seed), spec, "standard", trace=bus).run()
    bus.close()
    return result, sink.events


def _digest(result, events) -> dict:
    summary = result.summary
    digest = {name: getattr(summary, name) for name in _INT_METRICS}
    digest.update({
        name: round(getattr(summary, name), 6) for name in _FLOAT_METRICS
    })
    digest["counters"] = dict(sorted(summary.counters.items()))
    digest["transmissions_by_type"] = dict(
        sorted(summary.transmissions_by_type.items())
    )
    digest["total_queries"] = result.total_queries
    digest["total_updates"] = result.total_updates
    digest["events"] = dict(sorted(Counter(e.etype for e in events).items()))
    return digest


def _load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


def _store_golden(key: str, digest: dict) -> None:
    golden = _load_golden()
    golden[key] = digest
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("spec,seed", MATRIX, ids=[f"{s}-s{d}" for s, d in MATRIX])
def test_golden_digest(spec, seed):
    result, events = _run_cell(spec, seed)
    digest = _digest(result, events)

    # The invariant gate rides along on every golden run.
    report = InvariantChecker(delta=result.config.ttp).feed_all(events).finish()
    assert report.ok, f"{spec} seed={seed}:\n{report.format()}"
    assert report.reads_checked > 0  # the pass is not vacuous

    key = f"{spec}-seed{seed}"
    if UPDATE:
        _store_golden(key, digest)
        pytest.skip(f"updated golden digest for {key}")
    golden = _load_golden()
    assert key in golden, (
        f"no golden digest for {key}; regenerate with REPRO_UPDATE_GOLDEN=1"
    )
    assert digest == golden[key], (
        f"behaviour drift in {key}: digest no longer matches "
        f"tests/golden/digests.json (regenerate only if the change is intended)"
    )


def test_replay_is_bit_identical():
    """Same config, same seed, fresh build — byte-for-byte the same digest."""
    first_result, first_events = _run_cell("rpcc-sc", 7)
    second_result, second_events = _run_cell("rpcc-sc", 7)
    assert _digest(first_result, first_events) == _digest(second_result, second_events)
    # Stronger than the digest: the full timestamped event streams match.
    strip = lambda events: [
        {k: v for k, v in e.to_dict().items() if not k.endswith("_id")}
        for e in events
    ]
    assert strip(first_events) == strip(second_events)


def test_golden_digest_identical_on_both_cores(monkeypatch):
    """One golden cell rerun on each core must yield the committed digest.

    ``BUILD_MIN_NODES`` drops to 0 so the 20-peer golden population
    builds a CSR on the vectorized arm and the dict of lists on the
    scalar arm, instead of the rank bitmasks the other golden tests run.
    """
    from repro.net import soa

    if not soa.HAVE_NUMPY:
        pytest.skip("numpy (the perf extra) is not installed")
    monkeypatch.setenv("REPRO_SOA", "1")
    monkeypatch.setattr(soa, "BUILD_MIN_NODES", 0)
    vectorized = _digest(*_run_cell("rpcc-sc", 7))
    monkeypatch.setenv("REPRO_SOA", "0")
    scalar = _digest(*_run_cell("rpcc-sc", 7))
    assert vectorized == scalar
    golden = _load_golden()
    if not UPDATE and "rpcc-sc-seed7" in golden:
        assert vectorized == golden["rpcc-sc-seed7"]


def test_golden_file_covers_the_whole_matrix():
    if UPDATE:
        pytest.skip("regenerating")
    golden = _load_golden()
    assert set(golden) == {f"{spec}-seed{seed}" for spec, seed in MATRIX}
