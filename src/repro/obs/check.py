"""Schema checker for ``repro.obs.v2`` JSONL files.

Usage::

    python -m repro.obs.check obs.jsonl [more.jsonl ...]

Exit codes: ``0`` when every file validates and carries content, ``1``
when any file is schema-invalid (or unreadable), ``2`` when every
failure is an *empty* export — a file with no records, or a meta-only
file with no span/metric records.  An empty export used to validate as
clean, which let a mis-wired producer (tracing requested, nothing
instrumented) sail through CI; it is now a hard failure with its own
exit code so pipelines can tell "garbage" from "hollow".

The CI smoke step runs this against a traced corpus run; the test suite
calls :func:`check_paths` directly, so both gatekeepers share one
validator (:func:`repro.obs.schema.validate_jsonl`).
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.obs.schema import (
    content_record_count,
    parse_jsonl,
    validate_records,
)


def check_paths(paths: Sequence, err=None) -> int:
    """Validate each JSONL file; returns the process exit code.

    ``0`` all files valid and non-empty, ``1`` at least one file is
    schema-invalid or unreadable, ``2`` the only failures are empty or
    meta-only exports.
    """
    err = err if err is not None else sys.stderr
    invalid = 0
    empty = 0
    for path in paths:
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            print(f"{path}: unreadable: {exc}", file=err)
            invalid += 1
            continue
        records, decode_errors = parse_jsonl(text)
        if not records and not decode_errors:
            print(f"{path}: empty export (no records at all)", file=err)
            empty += 1
            continue
        errors = decode_errors + validate_records(records)
        if errors:
            invalid += 1
            for problem in errors[:20]:
                print(f"{path}: {problem}", file=err)
            if len(errors) > 20:
                print(f"{path}: ... {len(errors) - 20} more errors", file=err)
            continue
        content = content_record_count(records)
        if content == 0:
            print(
                f"{path}: meta-only export (no span or metric records)",
                file=err,
            )
            empty += 1
            continue
        print(f"{path}: OK ({len(records)} records)", file=err)
    if invalid:
        return 1
    if empty:
        return 2
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print("usage: python -m repro.obs.check FILE [FILE ...]",
              file=sys.stderr)
        return 2
    return check_paths(argv)


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
