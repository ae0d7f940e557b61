"""The pinned sha256 of the trait-space atlas of every packaged scenario.

Uses only the standard library and the package, so it also runs where
the test dependencies are not installed, as a check across Python
versions and platforms:

    python tests/atlas_digest.py

prints the digest of the 12 atlases (6 scenarios x 2 risk modes), each
its cuts per trait axis and its cells' episode signatures, and exits 1
when it differs from ``ATLAS_SHA256``.  The grid digest pins the logs of
the four packaged trait points; this one pins the whole cube
[0, 10]^3.  The tier-1 tests import the same pin and function.
"""

import hashlib
import json
import sys

from rulebend.atlas import build_atlas
from rulebend.cli import _load_kb, _packaged_scenarios
from rulebend.utility import RISK_MODES

#: sha256 of the 12 atlases as JSON lines, in RISK_MODES x CASE_ORDER
#: order.  A change that moves a cut or changes a cell's signature must
#: re-pin it on purpose.
ATLAS_SHA256 = "25f9f8e8be43b6d057e7b85a29db740aa672fb2e6cb177fab68fa1f763acb261"


def atlas_digest(seed_kb):
    """sha256 of every packaged scenario's atlas under both risk modes."""
    digest = hashlib.sha256()
    scenarios = _packaged_scenarios()
    for mode in RISK_MODES:
        for case, scenario in scenarios.items():
            atlas = build_atlas(scenario, seed_kb, mode)
            line = {
                "scenario": case,
                "risk_mode": mode,
                "cuts": atlas.cuts,
                "cells": sorted(atlas.cells.items()),
            }
            digest.update((json.dumps(line) + "\n").encode("utf-8"))
    return digest.hexdigest()


def main() -> int:
    digest = atlas_digest(_load_kb(None))
    print(digest)
    if digest != ATLAS_SHA256:
        print(f"expected {ATLAS_SHA256}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
