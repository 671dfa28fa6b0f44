"""Benchmark entry point.

    python3 perfbench/run.py --workload site-day --seed 0 --seconds 10 --trace 0

Runs one workload in this process with the program from ``src/``.

- ``--trace 0`` repeats the workload's checked unit as many times as
  ``--seconds`` buys at the unit's nominal wall time (at least
  ``MIN_UNITS``) and reports the end-to-end metrics.
- ``--trace 1`` runs the unit with every layer boundary wrapped and
  once untraced (after a warm-up unit where units are short), and
  reports the per-layer table plus the tracing overhead.

Outputs are checked against ``goldens.json`` and the workload's
invariants on every run.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every operation succeeded and every check passed,
and 2 when the program's sources are missing.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)

import stats  # noqa: E402
from calibrate import Pacer, bracketed  # noqa: E402
from layers import BOUNDARIES, LayerRecorder  # noqa: E402
from workloads import WORKLOADS, import_all  # noqa: E402

#: end-to-end metrics (--trace 0): name -> unit
END_TO_END = {"setup_s": "s", "sim_speed": "sim_s/s", "peak_rss_mb": "MiB"}

#: units shorter than this (seconds) get a warm-up unit on traced runs
SHORT_UNIT_S = 5.0

#: ratio metrics: name -> (numerator counter, base counters)
RATIOS = {
    "core.status.dlsp_reuse": ("dlsp_reused",
                               ("dlsp_reused", "dlsp_probes")),
    "core.agent.skip_ratio": ("agent_skipped",
                              ("agent_runs", "agent_skipped")),
    "core.agent.demand_ratio": ("agent_demand_wakes", ("agent_runs",)),
    "core.agent.heal_success": ("heals_succeeded", ("heals_attempted",)),
    "persist.deferred_ratio": ("ckpt_deferred",
                               ("ckpt_written", "ckpt_deferred")),
    "net.wan.delivery_ratio": ("wan_delivered",
                               ("wan_delivered", "wan_failed")),
    "chaos.admit_ratio": ("chaos_admitted", ("chaos_episodes",)),
}


def per_layer_units():
    """Every per-layer metric name with its unit."""
    out = {}
    for name in BOUNDARIES:
        out[f"{name}.calls"] = "count"
        out[f"{name}.incl_s"] = "s"
        out[f"{name}.self_s"] = "s"
    out["sim.events"] = "count"
    out["core.admin.dgspl_builds"] = "count"
    for name in RATIOS:
        out[name] = "ratio"
        out[f"{name}.base"] = "count"
    out["trace.overhead"] = "ratio"
    out["trace.spans"] = "count"
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Bookkeeping for one benchmark process."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def judge(self, unit) -> None:
        """Count a unit's operations and fold in its checks."""
        self.attempted += max(1, len(unit.ops))
        bad = list(unit.failures) + self.wl.check(unit.outputs)
        self.failed += len(bad)
        self.problems.extend(bad)

    def crashed(self, where: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{where}: {traceback.format_exc()}")


def import_seconds(modules, samples: int = 5) -> float:
    """Median wall time of a fresh interpreter that imports ``modules``
    and exits: the process-start share of set-up.  (Not divided by a
    slowdown: the child may run on another virtual CPU than the
    probes.)"""
    code = ("import importlib, sys; sys.path.insert(0, sys.argv[1]); "
            "[importlib.import_module(m) for m in sys.argv[2:]]")
    walls = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, SRC, *modules],
                       check=True)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def prepare(wl, walls: list):
    """One set-up sample: build a fresh world, record its time in
    reference-machine seconds."""
    world, wall = bracketed(wl.prepare)
    walls.append(wall)
    return world


class Window:
    """Wall, CPU and machine steal time over the timed window."""

    def __enter__(self):
        self.steal0 = stats.steal_seconds()
        self.w0, self.c0 = time.perf_counter(), time.process_time()
        self.out = {}
        return self

    def __exit__(self, *exc):
        self.out["wall_s"] = time.perf_counter() - self.w0
        self.out["cpu_s"] = time.process_time() - self.c0
        steal1 = stats.steal_seconds()
        if self.steal0 is not None and steal1 is not None:
            self.out["steal_s"] = steal1 - self.steal0


def unit_count(wl, seconds: float) -> int:
    """How many repeats of the unit ``seconds`` buys: a function of the
    budget alone, so every run of a workload does the same work."""
    return max(wl.MIN_UNITS, round(seconds / wl.UNIT_SECONDS))


def timed(args, wl, run: Run):
    """Repeat the workload's unit (the same seed, so the same work)
    :func:`unit_count` times, with calibration probes interleaved.

    The shared virtual CPU changes speed by tens of percent within
    seconds, so each unit's operation wall is divided by the machine's
    slowdown over that unit (:class:`calibrate.Pacer`): ``sim_speed``
    is simulated seconds per second of the reference machine, the
    median over the units.  ``setup_s`` is the import time plus the
    median of every world build in the run, each build divided by the
    slowdown probed around it."""
    import_s = import_seconds(wl.IMPORTS)
    import_all(wl.IMPORTS)
    builds, world = [], None
    for _ in range(wl.SETUP_SAMPLES):
        world = None
        world = prepare(wl, builds)
    units, slowdowns = [], []
    with Window() as window:
        for i in range(unit_count(wl, args.seconds)):
            if i:
                world = None
                world = prepare(wl, builds)
            pacer = Pacer()
            try:
                unit = wl.run_unit(world, repeat=i, pacer=pacer)
            except Exception:
                run.crashed("unit")
                break
            units.append(unit)
            slowdowns.append(pacer.slowdown())
            run.judge(unit)
    setup_s = import_s + statistics.median(builds)
    record = {"setup_s": setup_s,
              "op_walls": [[w for w, _ in u.ops] for u in units]}
    if not units:
        return {}, {}, window.out, record
    first = units[0]
    for i, unit in enumerate(units[1:], 1):
        if unit.outputs != first.outputs or len(unit.ops) != len(first.ops):
            run.failed += 1
            run.problems.append(f"repeat {i} outputs {unit.outputs} != "
                                f"repeat 0 outputs {first.outputs}")
    walls = [min(u.ops[i][0] for u in units if i < len(u.ops))
             for i in range(len(first.ops))]
    ref_wall = statistics.median(u.wall / f for u, f in
                                 zip(units, slowdowns))
    metrics = {
        "setup_s": setup_s,
        "sim_speed": first.sim_seconds / ref_wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    record["slowdowns"] = slowdowns
    extras = {"import_s": import_s, "build_s": builds,
              "units": len(units), "ops_per_unit": len(walls),
              "slowdown": statistics.median(slowdowns),
              "sim_speed_raw": first.sim_seconds
              / statistics.median(u.wall for u in units),
              "ops_per_s": len(walls) / ref_wall,
              "op_ms_p50": statistics.median(walls) * 1e3,
              "op_ms_tail": stats.tail([w * 1e3 for w in walls])}
    for key in ("checkpoint_s", "resume_s"):
        vals = [u.persist[key] for u in units if key in u.persist]
        if vals:
            extras[key] = statistics.median(vals)
    extras["outputs"] = first.outputs
    return metrics, extras, window.out, record


def traced(wl, run: Run):
    """The unit traced, with the same unit untraced after it as the
    overhead base (repeat 1: site-day's segmented path).  Workloads
    whose units are short run one more untraced unit first, to warm
    the process up."""
    import_all(wl.IMPORTS)

    def plain(where):
        try:
            unit = wl.run_unit(wl.prepare(), repeat=1)
        except Exception:
            run.crashed(where)
            return None
        run.judge(unit)
        return unit

    first = (plain("untraced warm-up unit")
             if wl.UNIT_SECONDS < SHORT_UNIT_S else None)
    rec = LayerRecorder()
    unit = None
    with Window() as window, rec:
        try:
            unit = wl.run_unit(wl.prepare(), rec, repeat=1)
        except Exception:
            run.crashed("traced unit")
    if unit is None:
        return {}, {}, window.out, {}
    run.judge(unit)
    base = plain("untraced base unit")
    for other in (first, base):
        if other is not None and unit.outputs != other.outputs:
            run.failed += 1
            run.problems.append(
                f"traced outputs {unit.outputs} != untraced "
                f"{other.outputs}")
    base_wall = base.wall if base is not None else 0.0
    metrics = rec.metrics()
    c = unit.counters
    metrics["sim.events"] = int(c["sim_events"])
    metrics["core.admin.dgspl_builds"] = int(c["dgspl_builds"])
    for name, (num, bases) in RATIOS.items():
        total = sum(c[b] for b in bases)
        metrics[name] = stats.ratio(c[num], total)
        metrics[f"{name}.base"] = int(total)
    metrics["trace.overhead"] = (unit.wall / base_wall
                                 if base_wall else 0.0)
    metrics["trace.spans"] = rec.span_count
    extras = {"traced_wall_s": unit.wall, "untraced_wall_s": base_wall,
              "top_level_s": rec.top_level_seconds(),
              "outputs": unit.outputs}
    path = os.path.join(OUT, f"spans-{wl.name}-s{wl.seed}.csv.gz")
    rec.write_spans(path)
    extras["spans_file"] = os.path.relpath(path, ROOT)
    record = {"op_walls": [[w for w, _ in u.ops]
                           for u in (first, unit, base) if u is not None]}
    return metrics, extras, window.out, record


def layer_table(metrics: dict, wall: float) -> str:
    """Boundaries by inclusive time; shares are of ``wall``, the whole
    traced pass (set-up build included)."""
    rows = sorted(BOUNDARIES, key=lambda n: -metrics[f"{n}.incl_s"])
    lines = [f"{'layer':<28}{'calls':>10}{'incl s':>10}{'self s':>10}"
             f"{'incl %':>8}{'self %':>8}"]
    for n in rows:
        calls = metrics[f"{n}.calls"]
        if not calls:
            continue
        incl, self_s = metrics[f"{n}.incl_s"], metrics[f"{n}.self_s"]
        lines.append(f"{n:<28}{calls:>10}{incl:>10.3f}{self_s:>10.3f}"
                     f"{100 * incl / wall:>8.1f}{100 * self_s / wall:>8.1f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)

    wl = WORKLOADS[args.workload](args.seed, OUT)
    run = Run(wl)
    # anything the program prints goes to stderr: stdout carries the
    # report, and its last line is the result
    with contextlib.redirect_stdout(sys.stderr):
        try:
            if args.trace:
                metrics, extras, window, record = traced(wl, run)
            else:
                metrics, extras, window, record = timed(args, wl, run)
        except Exception:
            run.crashed("set-up")
            metrics, extras, window, record = {}, {}, {}, {}

    declared = END_TO_END if not args.trace else per_layer_units()
    meta = {"workload": wl.name, "seed": wl.seed, "seconds": args.seconds,
            "trace": args.trace, "config_hash": stats.config_hash(wl.config),
            "git_sha": stats.git_sha(ROOT),
            "python": platform.python_version(), "nproc": stats.cpu_count(),
            "window": window}
    print(f"# {wl.name} seed={wl.seed} trace={args.trace}")
    for name, unit in declared.items():
        if name in metrics and (not args.trace or name in RATIOS
                                or name == "trace.overhead"):
            print(f"{name:<28}{metrics[name]:>14.6g} {unit}")
    for key, value in extras.items():
        print(f"{key:<28}{json.dumps(value)}")
    if args.trace and metrics:
        print(layer_table(metrics, window["wall_s"]))
    print(f"{'fail_ratio':<28}{stats.ratio(run.failed, run.attempted):>14.6g}"
          f" ({run.failed} of {run.attempted} operations)")
    for problem in run.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print("# meta " + json.dumps(meta, sort_keys=True))
    correct = run.failed == 0 and set(metrics) == set(declared)
    result = {
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items() if name in metrics},
    }
    record.update(meta=meta, result=result, extras=extras,
                  problems=run.problems)
    path = os.path.join(
        OUT, f"run-{wl.name}-s{wl.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
