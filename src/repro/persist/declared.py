"""Declared persistent state: one field-spec walker for every layer.

A stateful class lists its persistent fields once, as a class-level
``__state__`` spec, and inherits ``snapshot_state`` / ``restore_state`` /
``claimed_seqs`` from :class:`Declared`.  Each spec entry is one of::

    "name"                        # plain scalar, key == attribute
    ("key", "attr")               # plain scalar read from another attribute
    ("key", CODEC)                # codec applied to the attribute ``key``
    ("key", "attr", CODEC)        # both

``attr`` may be a dotted path (``"samplers.samples_taken"``).  Specs
accumulate along the MRO, are compiled once per class on first use and
cost nothing per instance.

Codecs decide the snapshot shape:

- plain (the default) -- an immutable JSON scalar, copied as is (no
  coercion, so a value keeps its int-vs-float type across round trips);
- ``SET`` -- a set saved as a sorted list;
- ``SORTED`` / ``DICT`` -- a dict of scalars, saved in sorted key order
  or in insertion order;
- ``LIST`` -- a list of scalars;
- ``EnumValue(cls)`` -- an enum member saved as its ``value``;
- ``NESTED`` -- a component that snapshots itself, or a (nested) name
  -> component dict saved in sorted name order (:func:`dump_tree`);
  ``None`` on either side skips it;
- ``HeapToken("_callback")`` -- a pending kernel :class:`Event` saved as
  its ``[time, priority, seq]`` token, claimed for the site walker's
  coverage proof and re-armed through ``Simulator.schedule_exact``;
- ``EXTRA`` -- a sub-dict of the fields a subclass declares in
  ``__extra_state__`` (the per-kind rider of apps and agents).

Restore copies every container out of the snapshot, so a snapshot can
seed any number of worlds without them sharing state.  A field whose
shape no codec carries (positional rows, object links, sentinels JSON
cannot hold) stays hand-written: the class overrides ``snapshot_state``
/ ``restore_state`` and calls ``super()`` for the declared rest.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, List, Optional, Tuple

__all__ = ["Declared", "EnumValue", "HeapToken", "SET", "SORTED", "DICT",
           "LIST", "NESTED", "EXTRA", "token_of", "dump_tree", "load_tree",
           "claims_tree"]


def token_of(ev) -> Optional[list]:
    """A live event's ``[time, priority, seq]`` heap token, else None."""
    if ev is not None and ev.alive:
        return [ev.time, ev.priority, ev.seq]
    return None


def _same(value):
    return value


class Codec:
    """How one field crosses into a snapshot and back: ``dump`` makes
    the snapshot value, ``load`` a fresh attribute value from it."""

    __slots__ = ("dump", "load")
    #: True for codecs whose values can own pending kernel events
    claims = False

    def __init__(self, dump=_same, load=_same):
        self.dump = dump
        self.load = load

    def snapshot(self, owner, attr):
        return self.dump(getattr(owner, attr))

    def restore(self, owner, attr, value) -> None:
        setattr(owner, attr, self.load(value))

    def claimed(self, owner, attr) -> Iterable[int]:
        return ()


class _Plain(Codec):
    __slots__ = ()

    def snapshot(self, owner, attr):
        return getattr(owner, attr)

    def restore(self, owner, attr, value) -> None:
        setattr(owner, attr, value)


class EnumValue(Codec):
    """An enum member, saved as its ``value``."""

    __slots__ = ()

    def __init__(self, enum_cls):
        super().__init__(attrgetter("value"), enum_cls)


def dump_tree(comp):
    """Snapshot a component, or a (nested) name -> component mapping
    in sorted name order; ``None`` stays ``None``."""
    if comp is None:
        return None
    if isinstance(comp, dict):
        return {name: dump_tree(c) for name, c in sorted(comp.items())}
    return comp.snapshot_state()


def load_tree(comp, state, where: str) -> None:
    """Restore what :func:`dump_tree` saved into a rebuilt ``comp``;
    mapping levels must name exactly the rebuilt members."""
    if comp is None or state is None:
        return
    if isinstance(comp, dict):
        if set(state) != set(comp):
            raise KeyError(
                f"{where}: snapshot-only={sorted(set(state) - set(comp))} "
                f"build-only={sorted(set(comp) - set(state))}")
        for name, c in comp.items():
            load_tree(c, state[name], f"{where}/{name}")
    else:
        comp.restore_state(state)


def claims_tree(comp, where: str):
    """``(owner, seq)`` for every pending event a component (or a
    mapping of them) claims."""
    if comp is None:
        return []
    if isinstance(comp, dict):
        return [(f"{where}/{owner}", seq) for name, c in comp.items()
                for owner, seq in claims_tree(c, name)]
    return [(where, seq) for seq in getattr(comp, "claimed_seqs", tuple)()]


class _Nested(Codec):
    __slots__ = ()
    claims = True

    def snapshot(self, owner, attr):
        return dump_tree(getattr(owner, attr))

    def restore(self, owner, attr, value) -> None:
        load_tree(getattr(owner, attr), value,
                  f"{type(owner).__name__}.{attr}")

    def claimed(self, owner, attr) -> Iterable[int]:
        return [seq for _w, seq in claims_tree(getattr(owner, attr), attr)]


class HeapToken(Codec):
    """A pending :class:`~repro.sim.kernel.Event` held in one attribute,
    re-armed on restore by calling ``owner.<callback>`` at its token."""

    __slots__ = ("callback",)
    claims = True

    def __init__(self, callback: str):
        self.callback = callback

    def snapshot(self, owner, attr):
        return token_of(getattr(owner, attr))

    def restore(self, owner, attr, value) -> None:
        ev = getattr(owner, attr)
        if ev is not None:
            ev.cancel()
            ev = None
        if value is not None:
            t, prio, seq = value
            ev = owner.sim.schedule_exact(t, prio, seq,
                                          getattr(owner, self.callback))
        setattr(owner, attr, ev)

    def claimed(self, owner, attr) -> Iterable[int]:
        ev = getattr(owner, attr)
        return [ev.seq] if ev is not None and ev.alive else ()


class _Extra(Codec):
    __slots__ = ()
    claims = True

    def snapshot(self, owner, attr):
        return _dump(owner, _spec(type(owner), "__extra_state__")[0])

    def restore(self, owner, attr, value) -> None:
        _load(owner, _spec(type(owner), "__extra_state__")[0], value)

    def claimed(self, owner, attr) -> Iterable[int]:
        return _claims(owner, _spec(type(owner), "__extra_state__")[1])


PLAIN = _Plain()
SET = Codec(sorted, set)
SORTED = Codec(lambda d: dict(sorted(d.items())), dict)
DICT = Codec(dict, dict)
LIST = Codec(list, list)
NESTED = _Nested()
EXTRA = _Extra()

#: one compiled entry: (key, attribute path, attribute, codec)
_Field = Tuple[str, Tuple[str, ...], str, Codec]


def _parse(entry) -> _Field:
    if isinstance(entry, str):
        key, attr, codec = entry, entry, PLAIN
    elif len(entry) == 3:
        key, attr, codec = entry
    elif isinstance(entry[1], str):
        (key, attr), codec = entry, PLAIN
    else:
        key, codec = entry
        attr = key
    *path, name = attr.split(".")
    return key, tuple(path), name, codec


def _spec(cls, name: str) -> Tuple[Tuple[_Field, ...], Tuple[_Field, ...]]:
    """``(all fields, fields that can claim events)`` for ``cls``,
    compiled from ``name`` along the MRO and cached on the class."""
    cache = "_compiled" + name
    spec = cls.__dict__.get(cache)
    if spec is None:
        fields = tuple(_parse(entry) for base in reversed(cls.__mro__)
                       for entry in base.__dict__.get(name, ()))
        spec = (fields, tuple(f for f in fields if f[3].claims))
        setattr(cls, cache, spec)
    return spec



def _owner(obj, path):
    for part in path:
        obj = getattr(obj, part)
    return obj


def _dump(obj, fields) -> dict:
    return {key: codec.snapshot(_owner(obj, path) if path else obj, attr)
            for key, path, attr, codec in fields}


def _load(obj, fields, state: dict) -> None:
    for key, path, attr, codec in fields:
        codec.restore(_owner(obj, path) if path else obj, attr, state[key])


def _claims(obj, fields) -> List[int]:
    return [seq for _key, path, attr, codec in fields
            for seq in codec.claimed(_owner(obj, path) if path else obj,
                                     attr)]


class Declared:
    """Mixin: ``snapshot_state`` / ``restore_state`` / ``claimed_seqs``
    walked from the class's ``__state__`` spec."""

    __slots__ = ()

    def snapshot_state(self) -> dict:
        """Logical state as a strictly-JSON-serialisable dict."""
        return _dump(self, _spec(type(self), "__state__")[0])

    def restore_state(self, state: dict) -> None:
        """Overwrite this (freshly built) component from ``state``."""
        _load(self, _spec(type(self), "__state__")[0], state)

    def claimed_seqs(self) -> List[int]:
        """Seqs of the pending kernel events this component re-arms."""
        return _claims(self, _spec(type(self), "__state__")[1])
