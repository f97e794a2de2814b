"""Negative-path regression: every diagnostic code fires where expected.

Each mutant in :mod:`tests.check.mutate` corrupts one production artifact
in one targeted way; the suite asserts (a) the registry covers every code
that has a checker, (b) each mutant trips exactly its code, and (c) the
uncorrupted base fixtures are clean — so it is the mutation, not the
fixture, that the checker is catching.
"""

import pytest

from repro.check import CODES, check_schedule
from repro.check.diagnostics import Severity
from tests.check.mutate import (
    DOT_SOURCE,
    MUTANTS,
    MUTANTS_BY_CODE,
    _codegen_artifacts,
    _machine,
    _scheduled,
    mutant,
)

#: LINT000 is the waiver marker, not a finding a corruption can provoke;
#: it is covered by the waiver-mechanism tests instead.
UNMUTATED = {"LINT000"}


def test_every_code_has_a_mutant():
    missing = set(CODES) - set(MUTANTS_BY_CODE) - UNMUTATED
    assert not missing, f"codes without a negative-path mutant: {sorted(missing)}"


def test_mutant_names_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("m", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_fires_its_code(m):
    diags = m.run()
    assert m.code in diags.codes(), (
        f"mutant {m.name!r} ({m.description}) did not trip {m.code}: "
        f"{diags.render()}"
    )
    # Codes whose default severity is ERROR must also fail the unit;
    # advisory (WARNING) codes leave ``ok`` true by design.
    default_severity, _ = CODES[m.code]
    if default_severity is Severity.ERROR:
        assert not diags.ok


def test_base_fixtures_are_clean():
    """The uncorrupted artifacts every mutant starts from all validate."""
    for machine_name in ("single_alu", "cydra5"):
        lowered, schedule = _scheduled(machine_name, DOT_SOURCE)
        diags = check_schedule(
            lowered.graph, _machine(machine_name), schedule, codegen=True
        )
        assert diags.ok, diags.render()
    from repro.check.codegen import check_codegen

    graph, schedule, kernel, allocation, code = _codegen_artifacts()
    diags = check_codegen(
        graph, schedule, kernel=kernel, allocation=allocation, code=code
    )
    assert diags.ok, diags.render()


def test_mutant_lookup():
    assert mutant("zero-ii") is MUTANTS[0]
    assert mutant("not-a-mutant") is None


def test_sim_mutants_report_the_offender():
    """SIM002 names the ops, the cycle, and the violated edge."""
    diags = mutant("early-consumer").run()
    (finding,) = [d for d in diags if d.code == "SIM002"]
    message = finding.message
    assert "cycle" in message
    assert "distance=" in message and "delay=" in message
    assert "op " in message
