"""repro: iterative modulo scheduling (Rau, MICRO-27, 1994).

A from-scratch reproduction of the paper's software-pipelining system:

* :mod:`repro.ir` — dependence-graph IR (distances, Table-1 delays,
  START/STOP pseudo-operations);
* :mod:`repro.machine` — reservation tables, opcode alternatives, the
  reconstructed Cydra 5 of Table 2 and smaller test machines;
* :mod:`repro.core` — MII (ResMII + RecMII via ComputeMinDist over SCCs),
  HeightR priorities, and the iterative modulo scheduler of Figures 2-4;
* :mod:`repro.baselines` — acyclic list scheduling and
  unroll-before-scheduling;
* :mod:`repro.loopir` — a DO-loop front end: DSL, IF-conversion, dynamic
  single assignment, dependence analysis, lowering;
* :mod:`repro.codegen` — kernel/prologue/epilogue generation, modulo
  variable expansion, register allocation;
* :mod:`repro.simulator` — sequential and pipelined executors used to
  verify schedules end-to-end;
* :mod:`repro.workloads` — the loop corpus standing in for the paper's
  1327 benchmark loops;
* :mod:`repro.analysis` — the Table-3/Table-4/Figure-6 statistics harness.

Quickstart::

    from repro import cydra5, modulo_schedule
    from repro.loopir import compile_loop

    graph = compile_loop('''
        for i in n:
            t = load(a[i])
            u = t *. t
            store(b[i], u)
    ''', machine=cydra5())
    result = modulo_schedule(graph, cydra5())
    print(result.schedule.describe())
"""

from repro.ir import (
    DelayModel,
    DependenceEdge,
    DependenceGraph,
    DependenceKind,
    Operation,
)
from repro.machine import (
    MachineDescription,
    Opcode,
    ReservationTable,
    TableKind,
    bus_conflict_machine,
    cydra5,
    single_alu_machine,
    superscalar_machine,
    two_alu_machine,
)
from repro.core import (
    Counters,
    MIIResult,
    ModuloScheduleResult,
    Schedule,
    SchedulingFailure,
    compute_mii,
    modulo_schedule,
)
from repro.baselines import list_schedule, unroll_and_schedule
from repro.check import check_schedule

__version__ = "1.0.0"

__all__ = [
    "DelayModel",
    "DependenceEdge",
    "DependenceGraph",
    "DependenceKind",
    "Operation",
    "MachineDescription",
    "Opcode",
    "ReservationTable",
    "TableKind",
    "bus_conflict_machine",
    "cydra5",
    "single_alu_machine",
    "superscalar_machine",
    "two_alu_machine",
    "Counters",
    "MIIResult",
    "ModuloScheduleResult",
    "Schedule",
    "SchedulingFailure",
    "compute_mii",
    "modulo_schedule",
    "check_schedule",
    "list_schedule",
    "unroll_and_schedule",
    "__version__",
]
