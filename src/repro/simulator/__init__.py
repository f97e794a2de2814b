"""Execution substrate: sequential reference and pipelined simulation.

The modulo scheduler's output is verified *end-to-end* by executing it:

* :mod:`repro.simulator.state` — the machine-visible state: arrays (with a
  halo for ``i +/- c`` subscripts) and scalars;
* :mod:`repro.simulator.reference` — the loop AST's sequential semantics,
  the independent oracle: it compiles the AST into closures once per call
  (operators resolved, in-halo array references at a constant shift) and
  imports nothing but the AST and the state;
* :mod:`repro.simulator.pipeline` — executes a schedule with iteration
  ``k`` issuing at ``k * II + time(op)``: loads sample memory at their
  issue cycle and stores commit one cycle later, in global time order, so
  a missing or mis-distanced memory dependence edge produces a *different
  answer* rather than going unnoticed.  It compiles a plan once per call
  (events in kernel-row order, one closure per operation, each operand's
  readiness decided once) and keeps per-instance checks for the
  operations whose reads can fail;
* :func:`check_equivalence` — runs both and compares the final state bit
  for bit (``0.0`` and ``-0.0`` differ; NaN matches NaN).
"""

from repro.simulator.state import ArrayStore, LoopState, make_initial_state
from repro.simulator.reference import run_reference
from repro.simulator.pipeline import run_pipelined, SimulationError
from repro.simulator.check import check_equivalence, EquivalenceReport

__all__ = [
    "ArrayStore",
    "LoopState",
    "make_initial_state",
    "run_reference",
    "run_pipelined",
    "SimulationError",
    "check_equivalence",
    "EquivalenceReport",
]
