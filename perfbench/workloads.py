"""The three benchmark workloads.

Each workload is a class with the same surface:

- ``IMPORTS`` names the program modules it needs (their import time is
  part of ``setup_s``);
- ``prepare()`` builds a fresh world (each call is one set-up sample);
- ``run_unit(world, rec, repeat, pacer)`` runs one checked unit of
  work on that world and returns a :class:`Unit`: per-operation wall
  times,
  persist times, the outputs the goldens pin, and the program's public
  counters.  Every repeat of a run does the same work and must give
  the same outputs; ``repeat`` only selects the code path where a
  workload has two that must agree;
- ``check(outputs)`` compares outputs with the committed goldens and
  the workload's invariants and returns the failures.

``rec`` is a :class:`~layers.LayerRecorder` on traced runs (``run_unit``
stamps each span with the operation index) and None on timed runs.
``pacer`` is a :class:`~calibrate.Pacer` on timed runs: ``run_unit``
ticks it between operations, and between short steps of long ones,
outside the operation clock.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["Unit", "SiteDay", "FedSiteLoss", "ChaosFuzz", "WORKLOADS",
           "import_all", "load_goldens", "digest"]

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS_PATH = os.path.join(HERE, "goldens.json")


def import_all(modules) -> None:
    for name in modules:
        importlib.import_module(name)


def load_goldens() -> dict:
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)


def digest(obj) -> str:
    """sha256 of an object's canonical JSON."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Unit:
    """One unit of checked work."""

    #: per operation: (wall seconds, simulated seconds)
    ops: List[tuple] = field(default_factory=list)
    #: persist step -> wall seconds (site-day only)
    persist: Dict[str, float] = field(default_factory=dict)
    #: what the goldens pin
    outputs: dict = field(default_factory=dict)
    #: public program counters (the bases of the ratio metrics)
    counters: Dict[str, float] = field(default_factory=dict)
    #: operations that failed in flight (exception, oracle violation)
    failures: List[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(w for w, _ in self.ops)

    @property
    def sim_seconds(self) -> float:
        return sum(s for _, s in self.ops)


def _site_counters(site, counters: Dict[str, float]) -> None:
    """Fold one site's public counters into ``counters``."""
    for suite in site.suites.values():
        for agent in suite.agents:
            s = agent.stats
            counters["agent_runs"] += s.runs
            counters["agent_skipped"] += s.skipped
            counters["agent_demand_wakes"] += s.demand_wakes
            counters["heals_attempted"] += s.heals_attempted
            counters["heals_succeeded"] += s.heals_succeeded
        # the builder's counters are public; the status agent keeps
        # the builder itself private
        builder = suite.status._builder
        counters["dlsp_probes"] += builder.probes
        counters["dlsp_reused"] += builder.reused
    if site.admin is not None:
        counters["dgspl_builds"] += site.admin.dgspl_generations
    counters["sim_events"] += site.sim.events_processed


def _new_counters() -> Dict[str, float]:
    return {k: 0 for k in (
        "agent_runs", "agent_skipped", "agent_demand_wakes",
        "heals_attempted", "heals_succeeded", "dlsp_probes", "dlsp_reused",
        "dgspl_builds", "sim_events", "ckpt_written", "ckpt_deferred",
        "wan_delivered", "wan_failed", "chaos_episodes", "chaos_admitted")}


# -- site-day ------------------------------------------------------------------

class SiteDay:
    """The 1000-host ``fullyear.site_config`` site from a cold start:
    adaptive wakes, ledger control plane and paper-rate Poisson faults,
    with the final world hash as the output.

    Units alternate between the uninterrupted run (even repeats) and
    the ``fig2 --full-year`` segmented path (odd repeats): one
    ``CheckpointManager.epoch`` -> ``load`` -> ``FidelityHarness.resume``
    into a fresh world halfway, then on to the horizon.  Every run does
    one of each, so equal outputs across its repeats are the
    monolithic == segmented contract."""

    name = "site-day"
    HOSTS = 1000
    #: simulated horizon and checkpoint instant (absolute sim seconds)
    HORIZON = 4 * 3600.0
    MIDPOINT = 2 * 3600.0
    #: one operation: one backed-off wake period, so each holds one
    #: wake burst (900 s windows are bimodal)
    SEGMENT = 1800.0
    #: simulated seconds between pacer ticks inside a segment
    STEP = 10.0
    SETUP_SAMPLES = 1
    #: operation wall of one unit on a 2-vCPU box, seconds (sizes the
    #: number of repeats a run's budget buys)
    UNIT_SECONDS = 15.0
    MIN_UNITS = 2
    IMPORTS = ("repro.experiments.runner", "repro.experiments.site",
               "repro.experiments.fullyear", "repro.persist")

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.workdir = workdir
        self.config = {"workload": self.name, "hosts": self.HOSTS,
                       "horizon_s": self.HORIZON,
                       "checkpoint_at_s": self.MIDPOINT,
                       "segment_s": self.SEGMENT}

    def prepare(self):
        from repro.experiments import site as site_mod
        from repro.experiments.fullyear import site_config
        from repro.experiments.runner import FidelityHarness
        from repro.faults.models import CATEGORY_PROFILES
        harness = FidelityHarness(site_mod.build_site(
            site_config(hosts=self.HOSTS, seed=self.seed)))
        rates = {p.category: p.rate_per_year / 365.0
                 for p in CATEGORY_PROFILES.values()}
        harness.injector.schedule_poisson(rates, self.HORIZON)
        return harness

    def run_unit(self, harness, rec=None, repeat: int = 1,
                 pacer=None) -> Unit:
        import repro.persist as persist

        unit = Unit(counters=_new_counters())
        segmented = repeat % 2 == 1
        index = 0
        while harness.sim.now < self.HORIZON - 1e-9:
            sim = harness.sim
            until = min(self.HORIZON,
                        (math.floor(sim.now / self.SEGMENT) + 1)
                        * self.SEGMENT)
            if rec is not None:
                rec.tag = index
            start, wall = sim.now, 0.0
            # back-to-back run() calls tile time exactly
            while sim.now < until:
                t0 = time.perf_counter()
                sim.run(until=min(until, sim.now + self.STEP))
                wall += time.perf_counter() - t0
                if pacer is not None:
                    pacer.tick()
            unit.ops.append((wall, sim.now - start))
            index += 1
            if segmented and sim.now >= self.MIDPOINT - 1e-9:
                harness = self._checkpoint_and_resume(harness, unit)
                if harness is None:
                    return unit
                segmented = False
        final = persist.snapshot_site(harness.site,
                                      extras=harness._extras())
        unit.outputs["state_hash"] = final["state_hash"]
        unit.outputs["sim_now"] = harness.sim.now
        _site_counters(harness.site, unit.counters)
        return unit

    def _checkpoint_and_resume(self, harness, unit: Unit):
        """Checkpoint, then resume from the file into a fresh world;
        returns the resumed harness (None when the barrier was not
        quiescent, which this workload treats as a failure)."""
        from repro.experiments.runner import FidelityHarness
        from repro.persist import CheckpointManager

        # the same extras (downtime ledger, fault injector) the
        # run_full_year checkpoints and resume() restores
        mgr = CheckpointManager(harness.site, self.workdir,
                                every_hours=self.SEGMENT / 3600.0,
                                retain=1, extras=harness._extras(),
                                label=f"site-day-s{self.seed}")
        t0 = time.perf_counter()
        path = mgr.epoch(force=True)
        unit.persist["checkpoint_s"] = time.perf_counter() - t0
        unit.counters["ckpt_written"] += mgr.written
        unit.counters["ckpt_deferred"] += mgr.deferred
        if path is None:
            unit.failures.append(
                f"checkpoint deferred at {harness.sim.now} s")
            return None
        del harness, mgr
        # a resumed run starts in a fresh process: collect the old
        # world now rather than inside the next timed segment
        gc.collect()
        t0 = time.perf_counter()
        snap = CheckpointManager.load(path)
        resumed = FidelityHarness.resume(snap)
        unit.persist["resume_s"] = time.perf_counter() - t0
        os.remove(path)
        return resumed

    def check(self, outputs: dict) -> List[str]:
        bad = []
        if outputs.get("sim_now") != self.HORIZON:
            bad.append(f"run ended at {outputs.get('sim_now')}, "
                       f"not {self.HORIZON}")
        want = load_goldens()[self.name].get(str(self.seed))
        if want is not None and outputs.get("state_hash") != want:
            bad.append(f"state_hash {outputs.get('state_hash')} != "
                       f"uninterrupted-run golden {want}")
        return bad


# -- fed-siteloss --------------------------------------------------------------

class FedSiteLoss:
    """The S-fed full arm: 3 sites x 13 hosts, 1M users, Hong Kong
    crashed at exactly 03:00 UTC, driven one 60 s lockstep epoch per
    ``Federation.run`` call."""

    name = "fed-siteloss"
    POPULATION = 1_000_000
    LOSS_AT = 3 * 3600.0
    OBSERVE = 4 * 3600.0
    EPOCH = 60.0
    LOST_SITE = "hkg"
    SETUP_SAMPLES = 3
    UNIT_SECONDS = 1.3
    MIN_UNITS = 3
    IMPORTS = ("repro.federation", "repro.federation.config")

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.workdir = workdir
        self.config = {"workload": self.name,
                       "population": self.POPULATION,
                       "loss_at_s": self.LOSS_AT, "observe_s": self.OBSERVE,
                       "epoch_s": self.EPOCH, "lost_site": self.LOST_SITE,
                       "arm": "full"}

    def prepare(self):
        from repro.federation import build_federation
        from repro.federation.config import three_site_config
        fed = build_federation(three_site_config(
            population=self.POPULATION, seed=self.seed,
            geo_steering=True, cross_site_relocation=True))
        fed.start_traffic()
        return fed

    def _epoch(self, fed, dt: float, unit: Unit, rec, pacer) -> None:
        if rec is not None:
            rec.tag = len(unit.ops)
        start = fed.now
        t0 = time.perf_counter()
        fed.run(dt)
        unit.ops.append((time.perf_counter() - t0, fed.now - start))
        if pacer is not None:
            pacer.tick()

    def run_unit(self, fed, rec=None, repeat: int = 0, pacer=None) -> Unit:
        unit = Unit(counters=_new_counters())
        # the federation clock starts where the sites' warm-up ended
        # (400 s), so whole 60 s epochs would overshoot 03:00; the last
        # pre-loss epoch is cut short to land the loss exactly
        while fed.now < self.LOSS_AT - 1e-9:
            self._epoch(fed, min(self.EPOCH, self.LOSS_AT - fed.now),
                        unit, rec, pacer)
        unit.outputs["loss_at"] = fed.now
        site = fed.sites[self.LOST_SITE]
        for name in sorted(site.dc.hosts):
            site.dc.hosts[name].crash()
        end = fed.now + self.OBSERVE
        while fed.now < end - 1e-9:
            self._epoch(fed, self.EPOCH, unit, rec, pacer)
        summary = fed.summary()
        unit.outputs["availability"] = summary["global"]["availability"]
        unit.outputs["summary_sha256"] = digest(summary)
        for s in fed.sites.values():
            _site_counters(s, unit.counters)
        unit.counters["wan_delivered"] = fed.courier.delivered
        unit.counters["wan_failed"] = fed.courier.failed
        return unit

    def check(self, outputs: dict) -> List[str]:
        bad = []
        if outputs.get("loss_at") != self.LOSS_AT:
            bad.append(f"site loss landed at {outputs.get('loss_at')} s, "
                       f"not {self.LOSS_AT} s")
        want = load_goldens()[self.name].get(str(self.seed))
        if want is not None:
            for key in ("availability", "summary_sha256"):
                if outputs.get(key) != want[key]:
                    bad.append(f"{key} {outputs.get(key)} != golden "
                               f"{want[key]}")
        return bad


# -- chaos-fuzz ----------------------------------------------------------------

class ChaosFuzz:
    """A seeded single-process ``ScenarioFuzzer`` campaign: one
    test-scale paired scan+ledger site per episode, tracer on."""

    name = "chaos-fuzz"
    EPISODES = 48
    BATCH = 8
    SETUP_SAMPLES = 5
    UNIT_SECONDS = 8.0
    MIN_UNITS = 2
    IMPORTS = ("repro.chaos.executor", "repro.chaos.fuzzer",
               "repro.experiments.site")

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.workdir = workdir
        self.config = {"workload": self.name, "episodes": self.EPISODES,
                       "batch": self.BATCH, "processes": 1}

    def prepare(self):
        """The fuzzer, plus one build of the site every episode builds
        (the first simulated second of the campaign sits behind it)."""
        from repro.chaos.fuzzer import ScenarioFuzzer
        from repro.experiments import site as site_mod
        fuzzer = ScenarioFuzzer(self.seed, episodes=self.EPISODES,
                                batch=self.BATCH, processes=1)
        site_mod.build_site(site_mod.SiteConfig.test_scale(
            seed=self.seed, control_plane="paired", spare_servers=1,
            with_workload=False, with_feeds=False))
        return fuzzer

    def run_unit(self, fuzzer, rec=None, repeat: int = 0,
                 pacer=None) -> Unit:
        import repro.chaos.executor as executor
        import repro.chaos.fuzzer as fuzzer_mod

        unit = Unit(counters=_new_counters())
        run_packed = fuzzer_mod._run_packed
        run_episode = executor.run_episode

        def timed_episode(jsons, *args):
            # the operation clock: one wall time per episode
            index = args[-1]
            if rec is not None:
                rec.tag = len(unit.ops)
            t0 = time.perf_counter()
            try:
                summary = run_packed(jsons, *args)
            finally:
                wall = time.perf_counter() - t0
                unit.ops.append(
                    (wall, json.loads(jsons[index])["horizon"]))
                if pacer is not None:
                    pacer.tick()
            return summary

        def harvest(*args, **kwargs):
            ep = run_episode(*args, **kwargs)
            _site_counters(ep.site, unit.counters)
            return ep

        fuzzer_mod._run_packed = timed_episode
        if rec is not None:
            executor.run_episode = harvest
        try:
            result = fuzzer.run()
        finally:
            fuzzer_mod._run_packed = run_packed
            executor.run_episode = run_episode
        unit.failures.extend(result.errors)
        unit.failures.extend(
            f"{v['scenario_id']}: {v['violated']}" for v in result.violations)
        fingerprint = {
            "episodes": result.episodes,
            "admitted": list(result.admitted),
            "coverage": sorted(result.coverage.counts),
            "growth": [list(g) for g in result.coverage.growth],
        }
        unit.outputs["episodes"] = result.episodes
        unit.outputs["admitted"] = len(result.admitted)
        unit.outputs["coverage_markers"] = len(result.coverage)
        unit.outputs["fingerprint_sha256"] = digest(fingerprint)
        unit.counters["chaos_episodes"] = result.episodes
        unit.counters["chaos_admitted"] = len(result.admitted)
        return unit

    def check(self, outputs: dict) -> List[str]:
        bad = []
        if outputs.get("episodes") != self.EPISODES:
            bad.append(f"campaign ran {outputs.get('episodes')} episodes, "
                       f"not {self.EPISODES}")
        want = load_goldens()[self.name].get(str(self.seed))
        if want is not None:
            for key, value in want.items():
                if outputs.get(key) != value:
                    bad.append(f"{key} {outputs.get(key)} != golden {value}")
        return bad


WORKLOADS = {cls.name: cls for cls in (SiteDay, FedSiteLoss, ChaosFuzz)}
