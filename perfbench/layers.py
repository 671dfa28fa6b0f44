"""Outside-in layer timing: wrap each layer's public functions from the
benchmark's own code and keep one span per wrapped call.

Every boundary is patched where its caller looks it up (a class
attribute, or a module global such as ``repro.core.admin.build_dgspl``),
so nothing under ``src/`` changes and :meth:`LayerRecorder.uninstall`
restores the originals.  A span keeps its name, start, end, parent span
and the operation tag the workload set (segment, epoch or episode
index).  Self time is a span's duration minus the durations of
the wrapped calls made directly inside it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["BOUNDARIES", "LayerRecorder"]

#: every boundary the recorder wraps, in report order
BOUNDARIES: Tuple[str, ...] = (
    # agent wake cycle
    "core.agent.run", "core.agent.monitor", "metrics.sample_all",
    "core.status.build_and_ship", "core.flags.raise_flag",
    "core.flags.clear_before", "cluster.fs", "ontology.render",
    "ontology.parse", "controlplane.append", "core.admin.receive_dlsp",
    "net.lan.send",
    # DGSPL build and watchdog
    "core.admin.dgspl", "ontology.build_dgspl", "core.admin.watchdog",
    # fault path
    "core.agent.diagnose", "core.agent.heal", "relocate.plan",
    # traffic and federation
    "traffic.geo_tick", "traffic.route", "traffic.steer",
    "federation.epoch", "net.wan.send", "relocate.crosssite",
    # persist
    "persist.snapshot", "persist.write", "persist.load", "persist.restore",
    # set-up
    "experiments.build_site",
    # chaos harness
    "chaos.episode", "chaos.oracles", "chaos.reports", "chaos.mutate",
    # kernel
    "sim.run",
)

#: (boundary, module, class or None, attribute) -- patched in place
_TARGETS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("metrics.sample_all", "repro.metrics.samplers", "SamplerSuite",
     "sample_all"),
    ("core.status.build_and_ship", "repro.core.status_agent",
     "StatusAgent", "build_and_ship"),
    ("core.flags.raise_flag", "repro.core.flags", "FlagStore",
     "raise_flag"),
    ("core.flags.clear_before", "repro.core.flags", "FlagStore",
     "clear_before"),
    ("cluster.fs", "repro.cluster.filesystem", "FileSystem", "write"),
    ("cluster.fs", "repro.cluster.filesystem", "FileSystem", "append"),
    ("cluster.fs", "repro.cluster.filesystem", "FileSystem", "read"),
    ("cluster.fs", "repro.cluster.filesystem", "FileSystem", "remove"),
    ("cluster.fs", "repro.cluster.filesystem", "FileSystem", "listdir"),
    ("ontology.render", "repro.ontology.base", "OntologyDoc", "render"),
    ("ontology.parse", "repro.ontology.base", "OntologyDoc", "parse"),
    ("controlplane.append", "repro.controlplane.ledger",
     "ConditionLedger", "append"),
    ("core.admin.receive_dlsp", "repro.core.admin",
     "AdministrationServers", "receive_dlsp"),
    ("net.lan.send", "repro.net.network", "Lan", "send"),
    # the admin cron jobs capture these bound methods when the site is
    # built, so the class attribute is where they are looked up
    ("core.admin.dgspl", "repro.core.admin", "AdministrationServers",
     "_build_dgspl"),
    ("ontology.build_dgspl", "repro.core.admin", None, "build_dgspl"),
    ("core.admin.watchdog", "repro.core.admin", "AdministrationServers",
     "_watchdog"),
    ("core.agent.diagnose", "repro.core.reasoning", "RuleEngine",
     "diagnose"),
    ("core.agent.heal", "repro.core.agent", None, "apply_action"),
    ("relocate.plan", "repro.relocate.planner", "PlacementPlanner",
     "plan"),
    ("traffic.geo_tick", "repro.federation.traffic", "GeoTrafficDriver",
     "tick"),
    ("traffic.route", "repro.traffic.frontdoor", "FrontDoor", "route"),
    ("traffic.steer", "repro.traffic.frontdoor", "GeoFrontDoor", "steer"),
    ("federation.epoch", "repro.federation.build", "Federation", "run"),
    ("net.wan.send", "repro.net.network", "Wan", "send"),
    ("relocate.crosssite", "repro.relocate.crosssite",
     "CrossSiteRelocator", "tick"),
    ("relocate.crosssite", "repro.relocate.crosssite",
     "CrossSiteRelocator", "relocate_host"),
    ("persist.snapshot", "repro.persist.checkpoint", None, "snapshot_site"),
    ("persist.snapshot", "repro.persist", None, "snapshot_site"),
    ("persist.write", "repro.persist.checkpoint", "CheckpointManager",
     "_write"),
    ("persist.load", "repro.persist.checkpoint", "CheckpointManager",
     "load"),
    ("persist.restore", "repro.persist", None, "restore_site"),
    ("experiments.build_site", "repro.experiments.site", None,
     "build_site"),
    ("experiments.build_site", "repro.federation.build", None,
     "build_site"),
    ("chaos.episode", "repro.chaos.executor", None, "run_episode"),
    ("chaos.oracles", "repro.chaos.oracles", None, "run_oracles"),
    ("chaos.reports", "repro.observe.incidents", None, "build_reports"),
    ("chaos.reports", "repro.observe.incidents", None, "reconcile"),
    ("chaos.mutate", "repro.chaos.fuzzer", "ScenarioFuzzer", "mutate"),
    ("sim.run", "repro.sim.kernel", "Simulator", "run"),
)


class LayerRecorder:
    """Wraps the layer boundaries and accumulates calls, inclusive and
    self time per boundary, plus the raw spans.

    ``clock`` is injectable so the self-time arithmetic can be tested
    with a fake clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: boundary -> [calls, inclusive seconds, self seconds]
        self.table: Dict[str, List[float]] = {
            name: [0, 0.0, 0.0] for name in BOUNDARIES}
        #: operation tag stamped on every span (set by the workload)
        self.tag = -1
        self._names: Dict[str, int] = {n: i for i, n in enumerate(BOUNDARIES)}
        self._span_name = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("i")
        self._span_tag = array("i")
        #: open frames: [span index, seconds spent in wrapped children]
        self._stack: List[list] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- the wrapper ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped as one call of boundary ``name``."""
        row = self.table[name]
        name_id = self._names[name]
        clock = self.clock
        stack = self._stack
        starts, ends = self._span_start, self._span_end
        parents, names, tags = (self._span_parent, self._span_name,
                                self._span_tag)

        def wrapper(*args, **kwargs):
            index = len(starts)
            parents.append(stack[-1][0] if stack else -1)
            names.append(name_id)
            tags.append(self.tag)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            ends.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                ends[index] = t1
                row[0] += 1
                row[1] += dur
                row[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return functools.update_wrapper(wrapper, fn)

    # -- install / uninstall -------------------------------------------------

    def _patch(self, owner, attr: str, name: str) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(name, raw.__func__))
        else:
            new = self.wrap(name, raw)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> "LayerRecorder":
        """Patch every boundary.  Sites must be built after this so the
        cron jobs they register capture the wrapped callables."""
        if self._patched:
            raise RuntimeError("recorder already installed")
        try:
            for name, module, cls, attr in _TARGETS:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                self._patch(owner, attr, name)
            self._patch_monitors()
            self._patch_cron_register()
        except BaseException:
            self.uninstall()        # leave no half-patched program
            raise
        return self

    def _patch_monitors(self) -> None:
        """Every agent class that defines its own ``monitor``."""
        importlib.import_module("repro.core.suite")
        from repro.core.agent import Intelliagent
        todo, seen = [Intelliagent], set()
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            if "monitor" in cls.__dict__:
                self._patch(cls, "monitor", "core.agent.monitor")

    def _patch_cron_register(self) -> None:
        """Agent jobs are bound ``run`` methods handed to
        ``Crond.register``; wrap them on their way in."""
        from repro.cluster.cron import Crond
        from repro.core.agent import Intelliagent
        original = Crond.__dict__["register"]
        recorder = self

        def register(crond, name, period, fn, *args, **kwargs):
            owner = getattr(fn, "__self__", None)
            if isinstance(owner, Intelliagent) and \
                    getattr(fn, "__name__", "") == "run":
                fn = recorder.wrap("core.agent.run", fn)
            return original(crond, name, period, fn, *args, **kwargs)

        register.__wrapped__ = original
        self._patched.append((Crond, "register", original))
        Crond.register = register

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def __enter__(self) -> "LayerRecorder":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._span_start)

    def top_level_seconds(self) -> float:
        """Sum of the durations of spans with no wrapped parent."""
        return sum(self._span_end[i] - self._span_start[i]
                   for i in range(len(self._span_start))
                   if self._span_parent[i] < 0)

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name in BOUNDARIES:
            calls, incl, self_s = self.table[name]
            out[f"{name}.calls"] = int(calls)
            out[f"{name}.incl_s"] = incl
            out[f"{name}.self_s"] = max(0.0, self_s)
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as gzip CSV: name, start, end, parent, tag
        (times in seconds relative to the first span)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        base = self._span_start[0] if len(self._span_start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start_s,end_s,parent,tag\n")
            for i in range(len(self._span_start)):
                fh.write(f"{i},{BOUNDARIES[self._span_name[i]]},"
                         f"{self._span_start[i] - base:.7f},"
                         f"{self._span_end[i] - base:.7f},"
                         f"{self._span_parent[i]},{self._span_tag[i]}\n")
