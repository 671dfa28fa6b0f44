"""Tests of the benchmark's own harness: the layer wrappers, the
self-time arithmetic, the calibration probes, the tail rule and the
golden gate.

Run with ``python -m pytest perfbench``.
"""

import json
import time

import pytest

import calibrate
import run as bench
import workloads
from layers import BOUNDARIES, LayerRecorder
from stats import tail
from workloads import FedSiteLoss, SiteDay


class SmallSiteDay(SiteDay):
    """The site-day path (cold start, mid-run checkpoint -> load ->
    restore, final hash) on a 30-host site over two hours."""

    HOSTS = 30
    HORIZON = 2 * 3600.0
    MIDPOINT = 3600.0


def _traced_and_plain(wl):
    plain = wl.run_unit(wl.prepare(), repeat=1)
    with LayerRecorder() as rec:
        traced = wl.run_unit(wl.prepare(), rec, repeat=1)
    return plain, traced, rec


# -- wrappers are behaviour-neutral --------------------------------------------

def test_traced_site_outputs_equal_untraced(tmp_path):
    wl = SmallSiteDay(0, str(tmp_path))
    plain, traced, rec = _traced_and_plain(wl)
    assert plain.failures == [] and traced.failures == []
    assert traced.outputs == plain.outputs
    # and both equal the uninterrupted run
    assert wl.run_unit(wl.prepare(), repeat=0).outputs == plain.outputs
    assert traced.counters == plain.counters
    m = rec.metrics()
    for name in ("core.agent.run", "core.agent.monitor", "cluster.fs",
                 "persist.snapshot", "persist.write", "persist.load",
                 "persist.restore", "experiments.build_site", "sim.run"):
        assert m[f"{name}.calls"] > 0, name


def test_traced_federation_outputs_equal_untraced(tmp_path):
    wl = FedSiteLoss(0, str(tmp_path))
    plain, traced, rec = _traced_and_plain(wl)
    assert traced.outputs == plain.outputs
    assert wl.check(traced.outputs) == []
    assert rec.metrics()["federation.epoch.calls"] == len(traced.ops)


def test_uninstall_restores_every_patched_attribute():
    from repro.cluster.cron import Crond
    from repro.core import admin
    from repro.ontology.base import OntologyDoc
    from repro.persist.checkpoint import CheckpointManager
    before = (Crond.__dict__["register"], admin.build_dgspl,
              OntologyDoc.__dict__["parse"],
              CheckpointManager.__dict__["load"])
    with LayerRecorder():
        assert admin.build_dgspl is not before[1]
        assert isinstance(OntologyDoc.__dict__["parse"], classmethod)
        assert isinstance(CheckpointManager.__dict__["load"], staticmethod)
    after = (Crond.__dict__["register"], admin.build_dgspl,
             OntologyDoc.__dict__["parse"],
             CheckpointManager.__dict__["load"])
    assert after == before


# -- self-time arithmetic ------------------------------------------------------

def test_self_time_is_inclusive_minus_wrapped_children():
    now = [0.0]
    rec = LayerRecorder(clock=lambda: now[0])

    def leaf():
        now[0] += 2.0

    w_leaf = rec.wrap("cluster.fs", leaf)

    def middle():
        now[0] += 1.0
        w_leaf()
        now[0] += 3.0
        w_leaf()

    w_middle = rec.wrap("core.agent.run", middle)

    def top():
        w_middle()
        now[0] += 0.5

    rec.wrap("sim.run", top)()
    m = rec.metrics()
    assert (m["cluster.fs.calls"], m["cluster.fs.incl_s"],
            m["cluster.fs.self_s"]) == (2, 4.0, 4.0)
    assert (m["core.agent.run.incl_s"], m["core.agent.run.self_s"]) == \
        (8.0, 4.0)
    assert (m["sim.run.incl_s"], m["sim.run.self_s"]) == (8.5, 0.5)
    assert rec.top_level_seconds() == 8.5 == now[0]
    assert sum(m[f"{n}.self_s"] for n in BOUNDARIES) == 8.5


def test_wrapped_exception_propagates_and_closes_the_span():
    rec = LayerRecorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("cluster.fs", boom)()
    assert rec.metrics()["cluster.fs.calls"] == 1
    assert rec._stack == []


def test_top_level_inclusive_time_fits_in_the_run_wall(tmp_path):
    wl = FedSiteLoss(0, str(tmp_path))
    with LayerRecorder() as rec:
        t0 = time.perf_counter()
        wl.run_unit(wl.prepare(), rec)
        wall = time.perf_counter() - t0
    top = rec.top_level_seconds()
    assert 0.0 < top <= wall
    m = rec.metrics()
    for name in BOUNDARIES:
        assert m[f"{name}.self_s"] <= m[f"{name}.incl_s"] + 1e-9


# -- calibration ---------------------------------------------------------------

def test_paced_site_run_equals_the_unpaced_one(tmp_path):
    """Probes between site-day's short run() calls must not change the
    simulation."""
    wl = SmallSiteDay(0, str(tmp_path))
    pacer = calibrate.Pacer(period=0.0)
    paced = wl.run_unit(wl.prepare(), repeat=1, pacer=pacer)
    plain = wl.run_unit(wl.prepare(), repeat=1)
    assert paced.outputs == plain.outputs
    assert paced.counters == plain.counters
    assert [s for _, s in paced.ops] == [s for _, s in plain.ops]
    assert len(pacer.walls) >= len(paced.ops)


def test_pacer_probes_once_a_period_went_by(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(calibrate.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(calibrate, "probe",
                        lambda: 2 * calibrate.REFERENCE_S)
    pacer = calibrate.Pacer(period=1.0)
    assert pacer.slowdown() == 0.0
    pacer.tick()
    now[0] = 0.9
    pacer.tick()
    assert pacer.walls == []
    now[0] = 1.0
    pacer.tick()
    pacer.tick()
    assert len(pacer.walls) == 1
    assert pacer.slowdown() == pytest.approx(2.0)


def test_bracketed_divides_by_the_slowdown_around_the_step(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(calibrate.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(calibrate, "probe",
                        lambda: 4 * calibrate.REFERENCE_S)

    def step():
        now[0] += 3.0
        return "world"

    assert calibrate.bracketed(step) == ("world", pytest.approx(0.75))


# -- the tail rule -------------------------------------------------------------

@pytest.mark.parametrize("n, percentile", [
    (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (414, 95.0),
    (2070, 99.0), (20000, 99.9)])
def test_tail_is_the_highest_percentile_with_ten_beyond(n, percentile):
    t = tail(list(range(n)))
    assert t["percentile"] == percentile
    assert t["n"] == n
    assert t["beyond"] >= 10
    assert sum(1 for x in range(n) if x > t["value"]) == t["beyond"]


def test_no_tail_below_twenty_samples():
    assert tail(list(range(19))) is None
    assert tail([]) is None


# -- the golden gate -----------------------------------------------------------

def test_golden_mismatch_marks_the_run_failed(monkeypatch, capsys):
    goldens = workloads.load_goldens()
    goldens["fed-siteloss"]["0"] = {"availability": 0.5,
                                    "summary_sha256": "0" * 64}
    monkeypatch.setattr(workloads, "load_goldens", lambda: goldens)
    code = bench.main(["--workload", "fed-siteloss", "--seed", "0",
                       "--seconds", "0.1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_matching_golden_passes(capsys):
    code = bench.main(["--workload", "fed-siteloss", "--seed", "0",
                       "--seconds", "0.1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] is True
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(bench.END_TO_END)


# -- the benchmark declaration -------------------------------------------------

def test_benchmark_json_declares_what_the_harness_prints():
    import os
    root = os.path.dirname(os.path.dirname(os.path.abspath(bench.__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        decl = json.load(fh)
    assert {m["name"]: m["unit"] for m in decl["end_to_end"]} == \
        bench.END_TO_END
    assert {m["name"]: m["unit"] for m in decl["per_layer"]} == \
        bench.per_layer_units()
    assert [w["name"] for w in decl["workloads"]] == \
        list(workloads.WORKLOADS)
