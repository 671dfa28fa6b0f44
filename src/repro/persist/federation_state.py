"""Whole-federation snapshot/restore.

A federation checkpoint is the per-site :func:`snapshot_site` documents
(each under the same byte-identity contract as a standalone site) plus
the layers that only exist *between* sites: the WAN links, the courier
and federated name-service counters, the merged DGSPL view, the geo
front door, the geo traffic tier's SLIs, the cross-site relocation
records, the federation RNG and the lockstep clock.  Restore rebuilds
the federation fresh from the embedded :class:`FederationConfig`
(:func:`build_federation` is deterministic), then overwrites every
layer -- a restored federation produces byte-identical summaries to
the one that never stopped.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.persist.core import FORMAT_VERSION, state_hash
from repro.persist.declared import dump_tree, load_tree
from repro.persist.site_state import restore_site, snapshot_site

__all__ = ["snapshot_federation", "restore_federation"]


def _sections(fed):
    """The layers between sites (the sites themselves snapshot through
    :func:`snapshot_site`), in restore order."""
    return (
        ("wan", fed.wan),
        ("courier", fed.courier),
        ("fed_nameservice", fed.nameservice),
        ("fed_dgspl", fed.fed_dgspl),
        ("fed_rng", fed.streams),
        ("geo", fed.geo),
        ("traffic", fed.traffic),
        ("crosssite", fed.crosssite),
        ("clock", fed),
    )


def snapshot_federation(fed, *, extras_by_site: Optional[
        Mapping[str, Mapping[str, object]]] = None) -> dict:
    """One dict for the whole federation.

    ``extras_by_site`` forwards harness-owned components to each site's
    :func:`snapshot_site` (same names must be passed on restore).
    """
    extras_by_site = dict(extras_by_site or {})
    state: dict = {
        "format": FORMAT_VERSION,
        "fedconfig": fed.config.to_dict(),
        "sites": {name: snapshot_site(fed.sites[name],
                                      extras=extras_by_site.get(name))
                  for name in sorted(fed.sites)},
    }
    for section, comp in _sections(fed):
        state[section] = dump_tree(comp)
    state["state_hash"] = state_hash(state)
    return state


def restore_federation(snapshot: dict, *, extras_by_site: Optional[
        Mapping[str, Mapping[str, object]]] = None):
    """Rebuild the snapshotted federation and return it."""
    from repro.federation.build import build_federation
    from repro.federation.config import FederationConfig

    if snapshot.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"checkpoint format {snapshot.get('format')!r} != "
            f"supported {FORMAT_VERSION}")
    extras_by_site = dict(extras_by_site or {})

    fed = build_federation(FederationConfig.from_dict(snapshot["fedconfig"]))
    if set(fed.sites) != set(snapshot["sites"]):
        raise KeyError(
            f"site set mismatch: snapshot={sorted(snapshot['sites'])} "
            f"build={sorted(fed.sites)}")
    for name in sorted(fed.sites):
        restore_site(snapshot["sites"][name], site=fed.sites[name],
                     extras=extras_by_site.get(name))
    for section, comp in _sections(fed):
        load_tree(comp, snapshot[section], section)
    return fed
