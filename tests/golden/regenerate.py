"""Regenerate the golden results snapshot, ``schedules.json.gz``.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py

The snapshot freezes what the scheduler produces on the shipped corpora:
the 1327-loop paper corpus on the Cydra 5 (every DSL kernel plus the
synthetic tail of ``build_corpus(seed=0)``) and the DSL kernels alone on
the single-ALU, two-ALU and superscalar machines.  Each (machine, loop)
gets one record: II, MII, ResMII, RecMII, the list-schedule length, both
MinDist schedule-length bounds, and a 16-hex SHA-256 digest over the
issue times, the chosen alternative names and the ``Counters`` snapshot.

The file is gzipped with ``mtime=0`` and no file name in the header, so
regenerating it on an unchanged tree reproduces its bytes.
``tests/test_golden.py`` re-evaluates the same loops and compares.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

GOLDEN_PATH = Path(__file__).with_name("schedules.json.gz")
FORMAT = "repro.golden-schedules.v1"


def golden_corpora() -> Iterator[Tuple[str, Any, list]]:
    """``(machine name, machine, corpus)`` for every snapshot section."""
    from repro.machine import (
        cydra5,
        single_alu_machine,
        superscalar_machine,
        two_alu_machine,
    )
    from repro.workloads import build_corpus
    from repro.workloads.corpus import PAPER_CORPUS_SIZE
    from repro.workloads.kernels import KERNELS

    machine = cydra5()
    yield "cydra5", machine, build_corpus(
        machine, n_synthetic=PAPER_CORPUS_SIZE - len(KERNELS), seed=0
    )
    for name, factory in (
        ("single_alu", single_alu_machine),
        ("two_alu", two_alu_machine),
        ("superscalar", superscalar_machine),
    ):
        machine = factory()
        yield name, machine, build_corpus(machine, n_synthetic=0, seed=0)


def _digest(evaluation) -> str:
    schedule = evaluation.result.schedule
    body = {
        "times": sorted(schedule.times.items()),
        "alternatives": sorted(
            (op, None if alt is None else alt.name)
            for op, alt in schedule.alternatives.items()
        ),
        "counters": evaluation.counters.snapshot(),
    }
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _record(machine_name: str, evaluation) -> Dict[str, Any]:
    mii = evaluation.mii_result
    return {
        "machine": machine_name,
        "loop": evaluation.loop.name,
        "ii": evaluation.ii,
        "mii": mii.mii,
        "res_mii": mii.res_mii,
        "rec_mii": mii.rec_mii,
        "list_sl": evaluation.list_sl,
        "mindist_sl_at_mii": evaluation.mindist_sl_at_mii,
        "mindist_sl_at_ii": evaluation.mindist_sl_at_ii,
        "digest": _digest(evaluation),
    }


def compute_records() -> List[Dict[str, Any]]:
    """Evaluate every snapshot loop; one record per (machine, loop).

    A loop the engine cannot evaluate gets a record naming the failure
    instead, so a regression that breaks a loop shows up as a mismatch.
    """
    from repro.analysis.engine import EvaluationEngine

    records: List[Dict[str, Any]] = []
    for machine_name, machine, corpus in golden_corpora():
        engine = EvaluationEngine(machine, jobs=1, budget_ratio=6.0)
        result = engine.evaluate(corpus)
        by_name = {e.loop.name: e for e in result.evaluations}
        failed = {f.loop_name: f for f in result.failures}
        for loop in corpus:
            if loop.name in failed:
                failure = failed[loop.name]
                records.append(
                    {
                        "machine": machine_name,
                        "loop": loop.name,
                        "failure": f"{failure.error_type} during "
                        f"{failure.phase}",
                    }
                )
            else:
                records.append(_record(machine_name, by_name[loop.name]))
    return records


def encode(records: List[Dict[str, Any]]) -> bytes:
    """The snapshot bytes: one JSON record per line, gzipped with mtime=0."""
    compact = {"sort_keys": True, "separators": (",", ":")}
    header = {"format": FORMAT, "records": len(records)}
    lines = [json.dumps(header, **compact)]
    lines += [json.dumps(record, **compact) for record in records]
    return gzip.compress(("\n".join(lines) + "\n").encode(), mtime=0)


def load(path: Path = GOLDEN_PATH) -> List[Dict[str, Any]]:
    """The committed records, in snapshot order."""
    header, *lines = gzip.decompress(path.read_bytes()).decode().splitlines()
    meta = json.loads(header)
    if meta.get("format") != FORMAT:
        raise ValueError(f"{path} is not a {FORMAT} document")
    records = [json.loads(line) for line in lines]
    if len(records) != meta["records"]:
        raise ValueError(f"{path} is truncated")
    return records


def main(argv: List[str]) -> int:
    path = Path(argv[1]) if len(argv) > 1 else GOLDEN_PATH
    records = compute_records()
    path.write_bytes(encode(records))
    print(f"wrote {len(records)} records to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
