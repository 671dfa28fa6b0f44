"""Observability-overhead guard for the repro.observe tier.

The acceptance bound from the incident-reporting work: running the
full pipeline -- telemetry hub rollups and burn-rate/anomaly
evaluation -- on a 1000-host fleet must cost less than 5% wall time
over the same fleet without it, and a constructed-but-stopped pipeline
must cost ~0 (it schedules nothing).

Three interleaved arms over identical fleets (same seed, same events):

- **base**    -- fleet + tracer, no observe tier at all;
- **off**     -- hub and alert manager constructed but never started;
- **enabled** -- hub started (30 s rollups), alert manager with an
  anomaly detector on the agent wake rate.

The tracer is on in *all* arms so the hub has a live registry to
snapshot and the measured delta isolates the observe tier itself.
The measured walls are written to ``BENCH_observe.json`` on full-size
runs as the recorded artefact.
"""

import gc
import json
import os
import time

from repro.experiments.wakes import build_fleet
from repro.observe import AlertManager, TelemetryHub
from repro.trace import install_tracer

from conftest import emit

_FULL_HOSTS = 1000
_QUICK_HOSTS = 100
_WINDOW = 3600.0
_QUICK_WINDOW = 1800.0
_ROUNDS = 3
_QUICK_ROUNDS = 2
_INTERVAL = 30.0


def _arm(n_hosts: int, window: float, mode: str) -> dict:
    """Build one fleet, deploy the requested slice of the observe
    tier, run the window, and report wall seconds + witness counts."""
    sim, dc, suites = build_fleet(n_hosts, "fixed", seed=0)
    install_tracer(sim)
    hub = mgr = None
    if mode in ("off", "enabled"):
        hub = TelemetryHub(sim, interval=_INTERVAL)
        mgr = AlertManager(sim, hub)
        mgr.add_detector("metric/agent.runs/rate")
    if mode == "enabled":
        hub.start()
        hub.watch_counter("agent.runs")
    before = sim.events_processed
    gc.collect()        # pay collection for the previous fleet up front
    t0 = time.perf_counter()
    sim.run(until=sim.now + window)
    wall = time.perf_counter() - t0
    return {
        "wall": wall,
        "events": sim.events_processed - before,
        "ticks": 0 if hub is None else hub.ticks,
        "series": 0 if hub is None else len(hub.names()),
    }


def _best_of_interleaved(n_hosts: int, window: float, rounds: int):
    """Min wall per arm with the arms interleaved round by round and
    the order rotated per round, so warm-up, CPU-frequency drift and
    heap growth hit all three equally."""
    modes = ("base", "off", "enabled")
    best = {}
    for r in range(rounds):
        for i in range(3):
            mode = modes[(r + i) % 3]
            got = _arm(n_hosts, window, mode)
            cur = best.get(mode)
            if cur is None or got["wall"] < cur["wall"]:
                best[mode] = got
    return best


def test_observe_overhead_under_5pct(benchmark, quick):
    n_hosts = _QUICK_HOSTS if quick else _FULL_HOSTS
    window = _QUICK_WINDOW if quick else _WINDOW
    rounds = _QUICK_ROUNDS if quick else _ROUNDS
    _arm(n_hosts, window, "base")        # warm-up round, discarded

    best = benchmark.pedantic(
        _best_of_interleaved, args=(n_hosts, window, rounds),
        rounds=1, iterations=1)
    base, off, enabled = best["base"], best["off"], best["enabled"]

    off_ratio = off["wall"] / base["wall"]
    on_ratio = enabled["wall"] / base["wall"]
    lines = [
        f"observe overhead -- {n_hosts} hosts, {window / 3600:.1f} h "
        f"window, best of {rounds}:",
        f"  base (no observe tier)  {base['wall'] * 1e3:9.1f} ms  "
        f"({base['events']} events)",
        f"  constructed, stopped    {off['wall'] * 1e3:9.1f} ms  "
        f"({(off_ratio - 1) * 100:+.1f}%)",
        f"  hub+alerts              {enabled['wall'] * 1e3:9.1f} ms  "
        f"({(on_ratio - 1) * 100:+.1f}%, {enabled['ticks']} rollups, "
        f"{enabled['series']} series)",
    ]
    emit("\n".join(lines))

    # the pipeline actually ran in the enabled arm
    assert enabled["ticks"] >= window / _INTERVAL - 1
    assert enabled["series"] > 0
    # a stopped pipeline scheduled nothing and recorded nothing
    assert off["ticks"] == 0 and off["events"] == base["events"]

    # wall bounds: tight at full size, loose in --quick (small walls)
    off_budget, on_budget = (0.25, 0.50) if quick else (0.03, 0.05)
    assert off_ratio - 1 < off_budget, (
        f"stopped pipeline costs {(off_ratio - 1) * 100:.1f}% "
        f"(budget: {off_budget * 100:.0f}%)")
    assert on_ratio - 1 < on_budget, (
        f"enabled pipeline costs {(on_ratio - 1) * 100:.1f}% "
        f"(budget: {on_budget * 100:.0f}%)")

    if quick:
        return
    baseline = {
        "n_hosts": n_hosts,
        "window_s": window,
        "rounds": rounds,
        "base_wall_s": round(base["wall"], 4),
        "off_wall_s": round(off["wall"], 4),
        "enabled_wall_s": round(enabled["wall"], 4),
        "off_overhead_pct": round((off_ratio - 1) * 100, 2),
        "enabled_overhead_pct": round((on_ratio - 1) * 100, 2),
        "events": base["events"],
        "rollup_ticks": enabled["ticks"],
        "series": enabled["series"],
    }
    path = os.path.join(os.path.dirname(__file__), "BENCH_observe.json")
    with open(path, "w") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")
