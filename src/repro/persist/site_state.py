"""Whole-site snapshot/restore.

:func:`snapshot_site` walks every stateful layer of a built
:class:`~repro.experiments.site.Site` and returns one strictly-JSON
dict; :func:`restore_site` rebuilds the same site fresh (via
:func:`~repro.experiments.site.build_site`, which is deterministic),
wipes its schedule, and overwrites every layer from the snapshot,
re-arming each pending event at its exact saved heap token.  The two
are inverses: a restored world produces byte-identical summaries,
decision logs and coverage signatures to the world that never stopped.

Two safety rails make that claim checkable rather than hopeful:

- **claimed-event coverage** -- every live heap event must be claimed
  by exactly one component's ``claimed_seqs()``.  An unclaimed event
  means some layer scheduled work the snapshot cannot carry across;
  the snapshot is refused (:class:`QuiescenceError`) instead of
  silently dropping the event.
- **quiescence predicates** -- in-flight relocations, open tracer
  spans, live batch jobs and in-progress DB backups have no
  serialisable representation; snapshots are only legal at barriers
  where none exist.  The checkpoint manager defers to the next epoch
  when one trips.

Both walk one table of ``(section, component)`` pairs (:func:`_sections`):
a component is anything with ``snapshot_state``/``restore_state`` (most
declare their fields, see :mod:`repro.persist.declared`), a (nested)
name -> component mapping, or ``None`` for a layer this site was built
without.

Checkpointable configurations run with the overnight workload and the
market feeds off: both drive generator processes whose continuations
live in Python frames, which this layer deliberately refuses to pickle.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.persist.core import FORMAT_VERSION, QuiescenceError, state_hash
from repro.persist.declared import claims_tree, dump_tree, load_tree

__all__ = ["snapshot_site", "restore_site"]


# -- quiescence --------------------------------------------------------------

def _check_quiescent(site) -> None:
    """All the reasons a snapshot must be refused, with names."""
    cfg = site.config
    if cfg.with_workload or cfg.with_feeds:
        raise QuiescenceError(
            "checkpointable configurations need with_workload=False and "
            "with_feeds=False (their generator processes cannot be "
            "serialised)")
    tracer = site.sim.tracer
    if getattr(tracer, "_stack", None):
        raise QuiescenceError(
            f"{len(tracer._stack)} tracer span(s) still open")
    if site.relocator is not None and site.relocator.active:
        raise QuiescenceError(
            f"relocations in flight: {sorted(site.relocator.active)}")
    if site.lsf.pending or site.lsf.running:
        raise QuiescenceError(
            f"batch jobs on the books (pending={len(site.lsf.pending)} "
            f"running={len(site.lsf.running)})")
    for db in site.databases:
        if getattr(db, "active_jobs", None):
            raise QuiescenceError(
                f"{db.host.name}/{db.name} has attached batch jobs")


def _claims(sections: Iterable[Tuple[str, object]]) -> Dict[int, str]:
    """seq -> owner for every pending event the sections claim; a seq
    claimed twice means two components would both re-arm it."""
    claimed: Dict[int, str] = {}
    for section, comp in sections:
        for owner, seq in claims_tree(comp, section):
            prev = claimed.get(seq)
            if prev is not None:
                raise QuiescenceError(
                    f"event seq {seq} claimed twice: by {prev} and {owner}")
            claimed[seq] = owner
    return claimed


def _coverage_check(site, claimed: Dict[int, str]) -> None:
    """Every live heap event must be claimed by exactly one owner."""
    unclaimed = []
    for ev in site.sim.live_events():
        if ev.seq not in claimed:
            fn = getattr(ev.fn, "__qualname__", repr(ev.fn))
            unclaimed.append(f"seq={ev.seq} t={ev.time:.3f} fn={fn}")
    if unclaimed:
        raise QuiescenceError(
            "unclaimed pending events (no component owns their "
            "re-arm): " + "; ".join(unclaimed[:8])
            + (f" ... +{len(unclaimed) - 8} more"
               if len(unclaimed) > 8 else ""))


# -- the component walk -------------------------------------------------------

def _tracer_of(site):
    from repro.trace.tracer import NULL_TRACER
    tracer = site.sim.tracer
    return None if tracer is NULL_TRACER else tracer


def _sections(site, extras: Mapping[str, object]):
    """Every stateful layer, in restore order: the kernel first (re-armed
    events must not land before its clock), hosts before apps and agents
    (they relink their processes by pid)."""
    hosts = site.dc.hosts
    return (
        ("kernel", site.sim),
        ("rng", site.streams),
        ("tracer", _tracer_of(site)),
        ("lans", site.dc.lans),
        ("hosts", hosts),
        ("apps", {name: host.apps for name, host in hosts.items()}),
        ("nameservice", site.nameservice),
        ("channel", site.channel),
        ("pool", site.pool),
        ("notifications", site.notifications),
        ("lsf", site.lsf),
        ("services", {svc.name: svc for svc in site.services}),
        ("suites", site.suites),
        ("ledger", site.ledger),
        ("admin", site.admin),
        ("jobmgr", site.jobmgr),
        ("spares", site.spares),
        ("relocator", site.relocator),
        ("reroute", site.reroute),
        ("telemetry", site.telemetry),
        ("alerts", site.alerts),
        ("extras", extras),
    )


def snapshot_site(site, *, extras: Optional[Mapping[str, object]] = None
                  ) -> dict:
    """One dict for the whole world.

    ``extras`` adds harness-owned components (fault injector, downtime
    ledger, traffic engine, ...) by name; each must be Snapshottable
    and participates in claimed-event coverage when it owns events.
    The same names must be passed to :func:`restore_site`.
    """
    _check_quiescent(site)
    sections = _sections(site, dict(extras or {}))
    state: dict = {"format": FORMAT_VERSION, "config": asdict(site.config)}
    for section, comp in sections:
        state[section] = dump_tree(comp)
    _coverage_check(site, _claims(sections))
    state["state_hash"] = state_hash(state)
    return state


def restore_site(snapshot: dict, *, site=None,
                 extras: Optional[Mapping[str, object]] = None):
    """Rebuild the snapshotted world and return the restored Site.

    Without ``site``, a fresh one is built from the snapshot's config
    (the caller then wires its own harness around the result *before*
    restoring extras -- pass the pre-built site and the extras mapping
    in that case).  The fresh world's schedule is wiped and every
    pending event re-armed at its exact saved token, so the first event
    the resumed run pops is the one the snapshotted run would have
    popped next.
    """
    if snapshot.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"checkpoint format {snapshot.get('format')!r} != "
            f"supported {FORMAT_VERSION}")
    extras = dict(extras or {})
    missing = set(snapshot["extras"]) - set(extras)
    if missing:
        raise KeyError(
            f"snapshot carries extras {sorted(missing)} with no restore "
            f"target supplied")
    extras = {name: extras[name] for name in snapshot["extras"]}

    if site is None:
        from repro.experiments.site import SiteConfig, build_site
        site = build_site(SiteConfig(**snapshot["config"]))
    elif asdict(site.config) != snapshot["config"]:
        raise ValueError(
            "supplied site was built from a different config than "
            "the snapshot's")

    site.sim.clear_events()
    if snapshot["tracer"] is not None and _tracer_of(site) is None:
        from repro.trace import install_tracer
        install_tracer(site.sim)
    sections = _sections(site, extras)
    for section, comp in sections:
        load_tree(comp, snapshot[section], section)

    # the re-armed heap must be exactly the claimed set the snapshot
    # covered -- anything else means a restore path scheduled fresh work
    live = sorted(ev.seq for ev in site.sim.live_events())
    claimed = sorted(_claims(sections))
    if live != claimed:
        raise QuiescenceError(
            f"restored heap does not match claims: live={live[:12]} "
            f"claimed={claimed[:12]}")
    return site
