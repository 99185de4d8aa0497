"""Run one benchmark workload, check its outputs and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 35 --trace 0

``--trace 0`` repeats the workload until ``--seconds`` have passed (at
least twice) and reports the end-to-end metrics: ``wall_ref_s`` (median
over repetitions of the host time of one repetition, set-up excluded),
``setup_s`` (median over repetitions of the time spent in
``build_simulation``), both in reference seconds, ``node_s_per_ref_s``
(simulated node-seconds per reference second) and ``peak_rss_mb``.

A reference second is host time divided by the host's speed at the
time, as measured by :mod:`perfbench.yardstick`, which the runs call
every few simulated seconds: one reference second is the host time of
``1 / yardstick.NOMINAL_CALL_S`` yardstick calls.  The host's phases
slow the workload and the yardstick alike, so a repetition's reference
seconds stay put while its plain host seconds (``wall_s``, printed and
recorded too) swing by up to 2x.  ``setup_s`` keeps the unit name ``s``
that the benchmark format fixes for it.

``--trace 1`` runs the workload once with every layer boundary of
``perfbench/layers.py`` wrapped in a span, between two untraced
repetitions, and reports the per-layer metrics instead.

Every run is checked: it fails when it raises, when its digest differs
from ``perfbench/reference.json`` (default seed) or from the first
repetition, when the invariant checker finds a violation, or when a
warm-pass result is not served from the store.  Failures are counted in
``failed`` of the last output line, which is one JSON object::

    {"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}

``--update-reference`` rewrites the workload's reference digests from a
default-seed run.  Exit code 2 means the program's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
#: Scratch space for the campaign's result stores (removed after each pass).
WORKDIR = ROOT / ".perfbench_tmp"
#: Repetitions every timed run makes at least, so counts can be compared.
MIN_REPS = 2

WORKLOAD_NAMES = ("table1", "chaos-control", "catalog-campaign")


class Rep(NamedTuple):
    """One repetition of a workload."""

    seconds: float  # whole repetition, set-up and yardstick included
    setup_s: float  # spent in build_simulation
    runs: list
    counts: Dict[str, int]
    cores: Set[str]
    yardstick_s: float = 0.0
    yardstick_calls: int = 0

    @property
    def wall_s(self) -> float:
        """Host seconds of the workload, set-up and yardstick excluded."""
        return self.seconds - self.setup_s - self.yardstick_s

    @property
    def slowdown(self) -> float:
        """Mean yardstick call over its nominal time: host s per reference s."""
        from perfbench.yardstick import NOMINAL_CALL_S

        return self.yardstick_s / (NOMINAL_CALL_S * self.yardstick_calls)

    @property
    def wall_ref_s(self) -> float:
        """:attr:`wall_s` in reference seconds."""
        return self.wall_s / self.slowdown

    @property
    def setup_ref_s(self) -> float:
        """:attr:`setup_s` in reference seconds."""
        return self.setup_s / self.slowdown


def program_present() -> bool:
    return (ROOT / "src" / "repro" / "__init__.py").is_file() and (
        ROOT / "examples" / "faults"
    ).is_dir()


# ----------------------------------------------------------------------
# Running

def run_rep(name: str, seed: int, clock, recorder=None) -> Rep:
    """Run the workload once; ``recorder`` opens the root span around it."""
    from perfbench.spans import ROOT as ROOT_SPAN
    from perfbench.workloads import WORKLOADS

    gc.collect()
    clock.reset()
    started = time.perf_counter()
    if recorder is not None:
        recorder.enter(ROOT_SPAN)
    try:
        runs, counts = WORKLOADS[name](seed, WORKDIR)
    finally:
        if recorder is not None:
            recorder.exit()
    seconds = time.perf_counter() - started
    cores = {run.result.core for run in runs if run.result is not None}
    return Rep(
        seconds, clock.seconds, runs, counts, cores,
        clock.yardstick_s, clock.yardstick_calls,
    )


def timed_reps(name: str, seed: int, budget: float, clock) -> List[Rep]:
    """Repeat the workload until ``budget`` seconds are (about) used up."""
    reps: List[Rep] = []
    started = time.perf_counter()
    while True:
        rep = run_rep(name, seed, clock)
        # Drop the results so no finished world stays alive between reps.
        reps.append(rep._replace(runs=[run._replace(result=None) for run in rep.runs]))
        elapsed = time.perf_counter() - started
        typical = statistics.median(r.seconds for r in reps)
        if len(reps) >= MIN_REPS and elapsed + typical / 2 > budget:
            return reps


# ----------------------------------------------------------------------
# Checking

def score(
    name: str, seed: int, reps: Sequence[Rep], reference: Dict
) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` over every run of every rep.

    A run fails on its own workload check, on a digest that differs from
    the reference (default seed) or from the same run of the first
    repetition, and when its repetition's counts differ from the first
    repetition's.  With any other seed, a repetition whose digest equals
    the default seed's fails as a whole: the seed did not reach the runs.
    """
    from perfbench.workloads import combined_digest

    ref = reference.get(name)
    first = reps[0]
    attempted = failed = 0
    problems: List[str] = []
    for index, rep in enumerate(reps):
        ignored_seed = (
            ref is not None
            and seed != ref["seed"]
            and combined_digest(rep.runs) == ref["digest"]
        )
        for position, run in enumerate(rep.runs):
            attempted += 1
            why = run.problem
            if why is None and ref is not None and seed == ref["seed"]:
                expected = ref["runs"].get(run.label)
                if run.digest != expected:
                    why = f"digest {run.digest} differs from reference {expected}"
            if why is None and ignored_seed:
                why = f"digest equals the reference of seed {ref['seed']}"
            if why is None and index > 0:
                same = (
                    position < len(first.runs)
                    and first.runs[position].label == run.label
                    and first.runs[position].digest == run.digest
                )
                if not same:
                    why = "digest drifted from the first repetition"
                elif rep.counts != first.counts:
                    why = f"counts drifted: {rep.counts} != {first.counts}"
            if why is not None:
                failed += 1
                problems.append(f"rep {index} {run.label}: {why}")
    return attempted, failed, problems


def load_reference() -> Dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text())


def update_reference(name: str, rep: Rep) -> None:
    from perfbench.workloads import DEFAULT_SEED, combined_digest

    reference = load_reference()
    reference[name] = {
        "seed": DEFAULT_SEED,
        "digest": combined_digest(rep.runs),
        "runs": {run.label: run.digest for run in rep.runs},
    }
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Provenance

def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` (``unknown`` outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, cores: Set[str], engines: Set[str]) -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "core": sorted(cores),
        "engine": sorted(engines),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": seed,
    }


# ----------------------------------------------------------------------
# Metrics

def end_to_end(reps: Sequence[Rep]) -> Dict[str, Tuple[float, str]]:
    wall = statistics.median(rep.wall_ref_s for rep in reps)
    node_seconds = sum(run.node_seconds for run in reps[0].runs)
    return {
        "wall_ref_s": (wall, "ref_s"),
        "setup_s": (statistics.median(rep.setup_ref_s for rep in reps), "s"),
        "node_s_per_ref_s": (node_seconds / wall, "1/ref_s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(rep: Rep, untraced: Rep, recorder, built) -> Dict[str, Tuple[float, str]]:
    """Per-layer self times of the traced ``rep`` plus its counts."""
    from perfbench.layers import PER_LAYER, SELF_TIME_METRIC
    from perfbench.spans import ROOT as ROOT_SPAN

    results = [run.result for run in rep.runs if run.result is not None]
    summaries = [result.summary for result in results]
    stores = [host.store for simulation in built for host in simulation.hosts.values()]
    sent = sum(simulation.network.messages_sent for simulation in built)
    undeliverable = sum(simulation.network.messages_undeliverable for simulation in built)
    hits = sum(store.hits for store in stores)
    lookups = hits + sum(store.misses for store in stores)
    values: Dict[str, float] = {
        metric: recorder.self_time.get(layer, 0.0)
        for layer, metric in SELF_TIME_METRIC.items()
    }
    values.update({
        "sim.events": sum(result.events_processed for result in results),
        "net.snapshots_built": sum(r.topology_stats["snapshots_built"] for r in results),
        "net.snapshots_reused": sum(r.topology_stats["snapshots_reused"] for r in results),
        "net.incremental_updates": sum(
            r.topology_stats["incremental_updates"] for r in results
        ),
        "net.messages_sent": sent,
        "net.undeliverable_ratio": _ratio(undeliverable, sent),
        "net.transmissions": sum(s.transmissions for s in summaries),
        "consistency.answered_ratio": _ratio(
            sum(s.queries_answered for s in summaries),
            sum(s.queries_issued for s in summaries),
        ),
        "cache.hit_ratio": _ratio(hits, lookups),
        "control.actuations": sum(len(r.control_decisions) for r in results),
        "obs.events": rep.counts.get("obs.events", 0),
        "experiments.store_hits": rep.counts.get("experiments.store_hits", 0),
        "experiments.runs_executed": rep.counts.get("experiments.runs_executed", 0),
        "trace.wall_s": rep.seconds,
        "trace.remainder_s": recorder.self_time.get(ROOT_SPAN, 0.0),
        "trace.overhead_s": rep.seconds - untraced.seconds,
    })
    return {metric.name: (values[metric.name], metric.unit) for metric in PER_LAYER}


# ----------------------------------------------------------------------
# Output

def _call_us(rep: Rep) -> float:
    return 1e6 * rep.yardstick_s / rep.yardstick_calls


def print_metrics(metrics: Dict[str, Tuple[float, str]], note: str) -> None:
    for name, (value, unit) in metrics.items():
        where = "(peak of this process)" if name == "peak_rss_mb" else note
        print(f"  {name:28s} {value:14.6f} {unit:6s} {where}")


def report(
    name: str,
    seed: int,
    reps: Sequence[Rep],
    reference: Dict,
    metrics: Dict[str, Tuple[float, str]],
    note: str,
    engines: Set[str],
) -> Dict:
    from perfbench.workloads import combined_digest
    from perfbench.yardstick import NOMINAL_CALL_S

    attempted, failed, problems = score(name, seed, reps, reference)
    digest = combined_digest(reps[0].runs)
    ref = reference.get(name)
    if ref is None:
        verdict = "no reference recorded"
    elif seed == ref["seed"]:
        verdict = "matches reference" if digest == ref["digest"] else "DIFFERS from reference"
    else:
        verdict = f"reference is for seed {ref['seed']}"
    print(f"perfbench {name} seed={seed} repetitions={len(reps)} runs/rep={len(reps[0].runs)}")
    print_metrics(metrics, note)
    timed = [rep for rep in reps if rep.yardstick_calls]
    if timed:
        for plain in ("wall_s", "setup_s"):
            value = statistics.median(getattr(rep, plain) for rep in timed)
            print(f"  {'plain ' + plain:28s} {value:14.6f} {'s':6s} "
                  "(host seconds, median; not bounded)")
        print(f"  {'yardstick_call_us':28s} {statistics.median(_call_us(rep) for rep in timed):14.6f} "
              f"{'us':6s} (median; {NOMINAL_CALL_S * 1e6:g} us is one reference)")
    print(f"  {'fail_rate':28s} {_ratio(failed, attempted):14.6f} {'ratio':6s} ({failed}/{attempted} runs)")
    print(f"  digest {digest} ({verdict})")
    for problem in problems:
        print(f"  FAIL {problem}")
    cores = set().union(*(rep.cores for rep in reps))
    print("record " + json.dumps({
        "workload": name,
        "digest": digest,
        "repetitions": len(reps),
        "fail_rate": _ratio(failed, attempted),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "rep_wall_s": [rep.wall_s for rep in reps],
        "rep_wall_ref_s": [rep.wall_ref_s for rep in timed],
        "rep_setup_ref_s": [rep.setup_ref_s for rep in timed],
        "rep_yardstick_call_us": [_call_us(rep) for rep in timed],
        "rep_setup_s": [rep.setup_s for rep in reps],
        "provenance": provenance(seed, cores, engines),
    }, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--update-reference", action="store_true",
        help="rewrite this workload's reference digests (default seed only)",
    )
    args = parser.parse_args(argv)
    if not program_present():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench.layers import BOUNDARIES
    from perfbench.spans import SpanRecorder, install
    from perfbench.workloads import DEFAULT_SEED, HostClock

    if args.update_reference and args.seed != DEFAULT_SEED:
        parser.error(f"--update-reference needs --seed {DEFAULT_SEED}")
    reference = {} if args.update_reference else load_reference()
    clock = HostClock()
    clock.install()
    try:
        if args.trace:
            # Per-layer self times come from plain runs: no yardstick.
            clock.yardstick = False
            # Untraced repetitions before and after the traced one: the
            # faster of the two is the overhead baseline, so one-off costs
            # of a process's first repetition do not hide the wrappers' cost.
            before = run_rep(args.workload, args.seed, clock)
            recorder = SpanRecorder()
            restore = install(recorder, BOUNDARIES)
            clock.keep = True
            try:
                traced = run_rep(args.workload, args.seed, clock, recorder)
            finally:
                restore()
            built, clock.keep = clock.built, False
            after = run_rep(args.workload, args.seed, clock)
            reps = [before, traced, after]
            baseline = min(before, after, key=lambda rep: rep.seconds)
            metrics = per_layer(traced, baseline, recorder, built)
            note = "(one traced repetition)"
        else:
            reps = timed_reps(args.workload, args.seed, args.seconds, clock)
            metrics = end_to_end(reps)
            note = f"(median of {len(reps)} repetitions)"
        engines = set(clock.engines)
    finally:
        clock.uninstall()
    if args.update_reference:
        update_reference(args.workload, reps[0])
        print(f"perfbench: wrote {args.workload} reference digests to {REFERENCE.name}")
        reference = load_reference()
    result = report(args.workload, args.seed, reps, reference, metrics, note, engines)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
