"""Regenerate ``goldens.json`` for the default seed and the held-out seed.

    python3 perfbench/make_goldens.py

- ``site-day``: the final ``state_hash`` of the *uninterrupted* run.
  The benchmark's own run checkpoints and restores halfway, so matching
  this golden is the monolithic == segmented contract.  The script
  runs both and refuses to write when they differ.
- ``fed-siteloss``: the full-arm availability and the sha256 of the
  whole federation summary.
- ``chaos-fuzz``: the campaign fingerprint (episodes, admitted ids,
  coverage markers and growth); the script refuses to write when the
  campaign had errors or oracle violations.

Only rerun this when the program's behaviour is meant to change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from workloads import (GOLDENS_PATH, ChaosFuzz, FedSiteLoss,  # noqa: E402
                       SiteDay, import_all)

#: the default seed and the held-out seed
SEEDS = (0, 7)


def main() -> int:
    goldens = {SiteDay.name: {}, FedSiteLoss.name: {}, ChaosFuzz.name: {}}
    workdir = os.path.join(ROOT, ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    for seed in SEEDS:
        wl = SiteDay(seed, workdir)
        import_all(wl.IMPORTS)
        whole = wl.run_unit(wl.prepare(), repeat=0)
        split = wl.run_unit(wl.prepare(), repeat=1)
        if whole.outputs != split.outputs or split.failures:
            print(f"site-day seed {seed}: segmented run diverged "
                  f"{split.failures}", file=sys.stderr)
            return 1
        goldens[SiteDay.name][str(seed)] = whole.outputs["state_hash"]

        wl = FedSiteLoss(seed, workdir)
        import_all(wl.IMPORTS)
        out = wl.run_unit(wl.prepare()).outputs
        goldens[FedSiteLoss.name][str(seed)] = {
            "availability": out["availability"],
            "summary_sha256": out["summary_sha256"]}

        wl = ChaosFuzz(seed, workdir)
        import_all(wl.IMPORTS)
        unit = wl.run_unit(wl.prepare())
        if unit.failures:
            print(f"chaos-fuzz seed {seed}: {unit.failures}",
                  file=sys.stderr)
            return 1
        goldens[ChaosFuzz.name][str(seed)] = unit.outputs
        print(f"seed {seed}: done", file=sys.stderr)
    with open(GOLDENS_PATH, "w") as fh:
        json.dump(goldens, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
