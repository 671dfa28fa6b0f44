"""Declared persistent state and the site walker's safety rails.

The codec walker must round-trip every field shape without sharing a
container with the snapshot it restores from, and the site walker must
refuse a checkpoint whose pending events are not each claimed by
exactly one component.
"""

import pytest

from repro.experiments.runner import FidelityHarness
from repro.experiments.site import SiteConfig, build_site
from repro.faults.models import Category
from repro.persist import QuiescenceError, canonical_json, snapshot_site
from repro.persist.declared import (DICT, LIST, NESTED, SET, SORTED,
                                    Declared, HeapToken)
from repro.sim import Simulator


def _site(**kw):
    defaults = dict(seed=0, with_workload=False, with_feeds=False)
    defaults.update(kw)
    return build_site(SiteConfig.test_scale(**defaults))


class _Leaf(Declared):
    __state__ = ("n",)

    def __init__(self):
        self.n = 0


class _Toy(Declared):
    __state__ = ("count", ("ratio", "_ratio"), ("tags", SET),
                 ("by_name", SORTED), ("order", DICT), ("items", LIST),
                 ("leaf", NESTED), ("leaves", NESTED),
                 ("wake", "_wake", HeapToken("_fire")))

    def __init__(self, sim):
        self.sim = sim
        self.count = 0
        self._ratio = 0.0
        self.tags = set()
        self.by_name = {}
        self.order = {}
        self.items = []
        self.leaf = _Leaf()
        self.leaves = {"a": _Leaf(), "b": _Leaf()}
        self._wake = None
        self.fired = 0

    def _fire(self):
        self.fired += 1


def test_declared_fields_round_trip_without_sharing_containers():
    sim = Simulator()
    toy = _Toy(sim)
    toy.count, toy._ratio = 3, 0.5
    toy.tags = {"z", "a"}
    toy.by_name = {"y": 2, "x": 1}
    toy.order = {"second": 2, "first": 1}
    toy.items = ["p", "q"]
    toy.leaf.n = 7
    toy.leaves["b"].n = 9
    toy._wake = sim.schedule(30.0, toy._fire)
    snap = toy.snapshot_state()
    assert snap["tags"] == ["a", "z"]
    assert list(snap["by_name"]) == ["x", "y"]
    assert list(snap["order"]) == ["second", "first"]
    assert snap["leaves"] == {"a": {"n": 0}, "b": {"n": 9}}
    assert snap["wake"] == [30.0, 0, toy._wake.seq]
    assert toy.claimed_seqs() == [toy._wake.seq]

    before = canonical_json(snap)
    sim2 = Simulator()
    fresh = _Toy(sim2)
    fresh.restore_state(snap)
    assert canonical_json(fresh.snapshot_state()) == before
    assert fresh.claimed_seqs() == [snap["wake"][2]]
    # every container is the restored object's own
    fresh.tags.add("new")
    fresh.by_name["w"] = 0
    fresh.order["third"] = 3
    fresh.items.append("r")
    assert canonical_json(snap) == before
    # the re-armed event fires the rebuilt object's callback on time
    sim2.run(until=60.0)
    assert fresh.fired == 1 and fresh.claimed_seqs() == []


def test_nested_mapping_restore_rejects_other_names():
    toy = _Toy(Simulator())
    snap = toy.snapshot_state()
    snap["leaves"] = {"a": {"n": 1}}
    with pytest.raises(KeyError):
        _Toy(Simulator()).restore_state(snap)


def test_snapshot_refuses_unclaimed_stray_event():
    site = _site()
    site.run(600.0)

    def stray_tick():
        pass

    site.sim.schedule(42.0, stray_tick)
    with pytest.raises(QuiescenceError, match="stray_tick"):
        snapshot_site(site)


class _Claimer:
    """A harness extra that (wrongly) claims someone else's event."""

    def __init__(self, seq):
        self.seq = seq

    def snapshot_state(self):
        return {}

    def claimed_seqs(self):
        return [self.seq]


def test_snapshot_refuses_double_claimed_seq():
    site = _site()
    site.run(600.0)
    host = site.dc.hosts[sorted(site.dc.hosts)[0]]
    seq = host.claimed_seqs()[0]
    with pytest.raises(QuiescenceError, match=f"seq {seq} claimed twice"):
        snapshot_site(site, extras={"thief": _Claimer(seq)})


def test_restore_never_aliases_the_snapshot():
    """Two worlds seeded from one in-memory snapshot (no JSON round
    trip) evolve identically and leave the snapshot untouched."""
    harness = FidelityHarness(_site(seed=4, observe=True, spare_servers=1))
    harness.injector.schedule_poisson(
        {Category.MID_CRASH: 6.0, Category.FRONT_END: 4.0}, 3 * 3600.0)
    harness.run_hours(1.0)
    snap = harness.snapshot()
    before = canonical_json(snap)

    worlds = [FidelityHarness.resume(snap) for _ in range(2)]
    for world in worlds:
        world.run_hours(1.0)
    hashes = [world.snapshot()["state_hash"] for world in worlds]
    assert hashes[0] == hashes[1]
    assert canonical_json(snap) == before
