"""The pinned sha256 of the 48 reference-grid episode logs.

Uses only the standard library and the package, so it also runs where
the test dependencies are not installed, as a check across Python
versions and platforms:

    python tests/grid_digest.py

prints the digest of the 48 logs (6 scenarios x 4 profiles x 2 risk
modes), computed with and without an assessment table shared per risk
mode, and exits 1 when either differs from ``GRID_LOGS_SHA256``.  The
acceptance tests import the same pin and function.
"""

import hashlib
import sys

from rulebend.cli import (
    CASE_ORDER,
    PROFILE_ORDER,
    _load_kb,
    _load_profile_set,
    _resolve_scenario,
)
from rulebend.sim import run_episode
from rulebend.utility import RISK_MODES

#: sha256 of the 48 grid logs, concatenated in RISK_MODES x CASE_ORDER x
#: PROFILE_ORDER order.  A change that alters any log byte must re-pin it
#: on purpose.
GRID_LOGS_SHA256 = "9f4f379243c72b02804a6e0d1b5adc7b56e5e8e7abf5af0ffff194bede2953bb"


def grid_logs_digest(seed_kb, profiles, shared_table):
    """sha256 of the 48 grid logs; with ``shared_table`` the 24 episodes
    of each risk mode decide through one assessment table."""
    digest = hashlib.sha256()
    for mode in RISK_MODES:
        assessments = {} if shared_table else None
        for case in CASE_ORDER:
            scenario = _resolve_scenario(case)
            for name in PROFILE_ORDER:
                log = run_episode(scenario, profiles[name], seed_kb, risk_mode=mode,
                                  assessments=assessments)
                digest.update(log.to_jsonl().encode("utf-8"))
    return digest.hexdigest()


def main() -> int:
    seed_kb, profiles = _load_kb(None), _load_profile_set(None)
    mismatched = False
    for shared_table in (False, True):
        digest = grid_logs_digest(seed_kb, profiles, shared_table)
        print(f"shared_table={shared_table}: {digest}")
        mismatched |= digest != GRID_LOGS_SHA256
    if mismatched:
        print(f"expected {GRID_LOGS_SHA256}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
