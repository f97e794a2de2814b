"""The simulator's violation texts match the committed golden snapshot.

``tests/golden/sim_violations.json`` holds, for each targeted corruption
(SIM002 from the early-consumer mutant and from a broken saxpy schedule,
a read of an instance that has not issued yet, the SIM001 mismatch lists
of the stale-store mutant and of a memory-distance corruption) and for a
clean run through speculative NaN/inf, the ``describe()`` text, the
diagnostic codes and the mismatch list that ``check_equivalence``
reports.  Regenerate the file with
``python -m tests.golden.regenerate_sim_violations`` only when a message
is meant to change.
"""

from __future__ import annotations

import pytest

from tests.golden.regenerate_sim_violations import compute_cases, load

_GOLDEN = {case["case"]: case for case in load()}
_FRESH = {}


def _fresh(name):
    if not _FRESH:
        _FRESH.update((case["case"], case) for case in compute_cases())
    return _FRESH[name]


@pytest.mark.parametrize("name", list(_GOLDEN))
def test_report_matches_the_golden_snapshot(name):
    assert _fresh(name) == _GOLDEN[name]


def test_snapshot_covers_each_outcome():
    codes = {name: set(case["codes"]) for name, case in _GOLDEN.items()}
    assert codes["sim002-mutant"] == codes["saxpy-broken-times"] == {"SIM002"}
    assert "before it executed" in _GOLDEN["consumer-before-producer"]["describe"]
    assert codes["sim001-mutant"] == codes["memory-distance"] == {"SIM001"}
    assert codes["poison-cydra5"] == codes["poison-single_alu"] == set()
