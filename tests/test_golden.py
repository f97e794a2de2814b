"""Every schedule, bound and counter matches the committed golden snapshot.

``tests/golden/schedules.json.gz`` records, for the paper corpus on the
Cydra 5 and the DSL kernels on three small machines, each loop's II, its
MII components, the list-schedule length, both MinDist SL bounds and a
digest of its issue times, alternatives and ``Counters`` snapshot.  A
change that moves any of them — a different placement, a different
alternative, one more FindTimeSlot probe — fails here, naming the loops.
Regenerate the file with ``tests/golden/regenerate.py`` only when a
result is meant to change.
"""

from __future__ import annotations

from tests.golden.regenerate import compute_records, load

#: How many differing loops the failure message names.
_SHOWN = 10


def _describe(golden, fresh) -> str:
    fields = sorted(
        name
        for name in set(golden) | set(fresh)
        if golden.get(name) != fresh.get(name)
    )
    return (
        f"{fresh['machine']}/{fresh['loop']}: II {golden.get('ii')} -> "
        f"{fresh.get('ii')} (differs in {', '.join(fields)})"
    )


def test_results_match_the_golden_snapshot():
    golden = load()
    fresh = compute_records()
    assert [(r["machine"], r["loop"]) for r in fresh] == [
        (r["machine"], r["loop"]) for r in golden
    ], "the snapshot corpus itself changed"
    differing = [
        _describe(old, new) for old, new in zip(golden, fresh) if old != new
    ]
    assert not differing, (
        f"{len(differing)} of {len(golden)} loops differ from the golden "
        "snapshot; first: " + "; ".join(differing[:_SHOWN])
    )
