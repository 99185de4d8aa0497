"""CLI coverage of the profiling flag and the topology counter footer."""

from __future__ import annotations

import pstats

import pytest

from repro.cli import build_parser, main

BASE = ["--sim-time", "120", "--warmup", "30", "--seed", "3"]


@pytest.fixture(autouse=True)
def _isolate_cache(tmp_path, monkeypatch):
    """Keep CLI result caches out of the repo during tests."""
    monkeypatch.chdir(tmp_path)


def test_run_profile_writes_loadable_pstats(tmp_path, capsys):
    out = tmp_path / "run.pstats"
    code = main(BASE + ["--no-cache", "run", "push", "--profile", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert f"-> {out}" in captured.out
    assert "events processed" in captured.out

    # The hot-spot digest goes to stderr: top functions by cumulative
    # time, without polluting the stdout summary.
    assert "cumulative" in captured.err
    assert "engine.py" in captured.err

    # Round-trip: the dump must load as pstats data and contain frames
    # from the simulation loop itself.
    stats = pstats.Stats(str(out))
    assert stats.total_calls > 0
    assert any("engine.py" in filename for filename, _, _ in stats.stats)


def test_run_profile_bypasses_result_cache(tmp_path, capsys):
    # Prime the cache, then profile the same configuration: the profiled
    # run must execute the simulation (a cache hit would profile nothing).
    assert main(BASE + ["run", "push"]) == 0
    capsys.readouterr()
    out = tmp_path / "cached.pstats"
    assert main(BASE + ["run", "push", "--profile", str(out)]) == 0
    stats = pstats.Stats(str(out))
    assert any("engine.py" in filename for filename, _, _ in stats.stats)


def test_run_footer_reports_topology_counters(capsys):
    code = main(BASE + ["--no-cache", "run", "push"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "topology:" in captured
    assert " built, " in captured
    assert "invalidations" in captured


def test_run_footer_reports_which_core_ran(capsys):
    from repro.net import soa

    code = main(BASE + ["--no-cache", "run", "push"])
    assert code == 0
    captured = capsys.readouterr().out
    expected = "vectorized" if soa.soa_enabled() else "scalar"
    assert f"({expected} core)" in captured


def test_run_footer_reports_scalar_core_when_forced(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SOA", "0")
    code = main(BASE + ["--no-cache", "run", "push"])
    assert code == 0
    assert "(scalar core)" in capsys.readouterr().out


def test_parser_accepts_profile_flag():
    parser = build_parser()
    args = parser.parse_args(["run", "push", "--profile", "out.pstats"])
    assert args.profile == "out.pstats"
    args = parser.parse_args(["run", "push"])
    assert args.profile is None
