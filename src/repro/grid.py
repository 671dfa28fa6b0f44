"""Grid integration (§5 future work).

"We hope the way agents generate dynamic global service lists (that
contain information about all agent-enabled services) can be used in
someway in the grid resource discovery and selection mechanisms for
semantic grids."

:class:`GridResourceBroker` is that hook: it consumes the DGSPL's
advertisement lines (the exact ASCII the administration servers can
publish), answers typed discovery queries, and hands out time-bounded
claims so an external grid scheduler can reserve a service without
racing other consumers.  Claims are advisory -- the site's own agents
keep healing regardless -- but the broker refuses to double-book and
expires claims whose holders go quiet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ontology.dgspl import Dgspl, GlobalServiceEntry

__all__ = ["GridResource", "GridClaim", "GridResourceBroker",
           "parse_advertisement"]


@dataclass(frozen=True)
class GridResource:
    """One advertised service, as a grid scheduler sees it."""

    uri: str                    # service://<site>/<server>/<app>
    site: str
    server: str
    app_name: str
    app_type: str
    app_version: str
    os: str
    cpus: int
    ram_mb: int
    load: float


def parse_advertisement(line: str) -> GridResource:
    """Parse one DGSPL advertisement line back into a resource.

    Lines look like::

        service://london/db01/ora01 type=database version=8.1.7
        os=solaris cpus=8 ram_mb=8192 load=0.50
    """
    head, *pairs = line.split()
    if not head.startswith("service://"):
        raise ValueError(f"not an advertisement: {line!r}")
    path = head[len("service://"):]
    try:
        site, server, app_name = path.split("/")
    except ValueError:
        raise ValueError(f"bad service URI: {head!r}") from None
    fields: Dict[str, str] = {}
    for p in pairs:
        k, _, v = p.partition("=")
        fields[k] = v
    return GridResource(
        uri=head, site=site, server=server, app_name=app_name,
        app_type=fields.get("type", ""),
        app_version=fields.get("version", ""),
        os=fields.get("os", ""),
        cpus=int(fields.get("cpus", "0")),
        ram_mb=int(fields.get("ram_mb", "0")),
        load=float(fields.get("load", "0")))


@dataclass
class GridClaim:
    """A time-bounded reservation of one resource."""

    resource: GridResource
    holder: str
    granted_at: float
    expires_at: float

    def live(self, now: float) -> bool:
        return now < self.expires_at


class GridResourceBroker:
    """Discovery and claim management over DGSPL advertisements."""

    def __init__(self, sim, *, default_lease: float = 3600.0):
        self.sim = sim
        self.default_lease = default_lease
        self.resources: Dict[str, GridResource] = {}
        self.claims: Dict[str, GridClaim] = {}
        self.refreshes = 0
        self.queries = 0
        self.claims_granted = 0
        self.claims_refused = 0

    # -- ingestion ----------------------------------------------------------

    def refresh_from_dgspl(self, dgspl: Dgspl) -> int:
        """Replace the advertised inventory from a fresh DGSPL.
        Resources that vanished lose nothing but discoverability;
        existing claims on them survive until expiry (the grid job may
        still be draining)."""
        self.refreshes += 1
        self.resources = {
            r.uri: r for r in (parse_advertisement(line)
                               for line in dgspl.grid_advertisement())
        }
        return len(self.resources)

    # -- discovery --------------------------------------------------------------

    def discover(self, *, app_type: str = "", os: str = "",
                 min_cpus: int = 0, min_ram_mb: int = 0,
                 max_load: Optional[float] = None,
                 include_claimed: bool = False) -> List[GridResource]:
        """Typed resource discovery, least-loaded first."""
        self.queries += 1
        self._expire(self.sim.now)
        out = []
        for r in self.resources.values():
            if app_type and r.app_type != app_type:
                continue
            if os and r.os != os:
                continue
            if r.cpus < min_cpus or r.ram_mb < min_ram_mb:
                continue
            if max_load is not None and r.load > max_load:
                continue
            if not include_claimed and r.uri in self.claims:
                continue
            out.append(r)
        out.sort(key=lambda r: (r.load, -r.cpus, r.uri))
        return out

    # -- claims ---------------------------------------------------------------------

    def claim(self, uri: str, holder: str,
              lease: Optional[float] = None) -> Optional[GridClaim]:
        """Reserve a resource; None if unknown or already claimed."""
        self._expire(self.sim.now)
        if uri not in self.resources or uri in self.claims:
            self.claims_refused += 1
            return None
        claim = GridClaim(self.resources[uri], holder, self.sim.now,
                          self.sim.now + (lease or self.default_lease))
        self.claims[uri] = claim
        self.claims_granted += 1
        return claim

    def release(self, uri: str, holder: str) -> bool:
        claim = self.claims.get(uri)
        if claim is None or claim.holder != holder:
            return False
        del self.claims[uri]
        return True

    def renew(self, uri: str, holder: str,
              lease: Optional[float] = None) -> bool:
        claim = self.claims.get(uri)
        if claim is None or claim.holder != holder:
            return False
        claim.expires_at = self.sim.now + (lease or self.default_lease)
        return True

    def _expire(self, now: float) -> None:
        dead = [uri for uri, c in self.claims.items() if not c.live(now)]
        for uri in dead:
            del self.claims[uri]

    def stats(self) -> Dict[str, int]:
        return {
            "resources": len(self.resources),
            "live_claims": len(self.claims),
            "refreshes": self.refreshes,
            "queries": self.queries,
            "granted": self.claims_granted,
            "refused": self.claims_refused,
        }
