"""A small, deterministic CDCL SAT solver (the exact backend's engine).

The exact modulo-scheduling backend (:mod:`repro.backends.exact`) decides
"does a legal schedule exist at this II?" by encoding the dependence and
modulo-reservation constraints into CNF and asking a SAT solver — the
SAT-based exact scheduling line of SAT-MapIt (Tirelli et al.) and the
SMT formulation of Roorda.  The package takes no third-party solver
dependency, so the engine is this pure-python conflict-driven
clause-learning solver.

The implementation is textbook MiniSat:

* two watched literals per clause with lazy watch repair,
* first-UIP conflict analysis producing one learned clause per conflict,
* VSIDS-style variable activities with exponential decay,
* Luby-sequence restarts,
* phase saving for decision polarity.

Everything is deterministic: ties break on variable index, there is no
randomization, and the same clause set always yields the same model —
which the backend-conformance suite (determinism for a fixed seed)
relies on.

Literals use the DIMACS convention: variables are ``1..n_vars`` and a
negative integer is the negation of its absolute value.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Result statuses.
SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

_ACTIVITY_RESCALE = 1e100
_ACTIVITY_DECAY = 1.0 / 0.95
_LUBY_UNIT = 256  # conflicts per restart unit


@dataclass
class SolverResult:
    """Outcome of one :func:`solve` call.

    ``model`` maps every variable to its boolean value when ``status`` is
    ``"sat"`` (and is ``None`` otherwise).  ``stats`` always carries the
    search effort — conflicts, decisions, propagations, learned clauses,
    restarts — which the exact backend folds into its attempt records
    and UNSAT certificates.
    """

    status: str
    model: Optional[Dict[int, bool]] = None
    stats: Dict[str, int] = field(default_factory=dict)


def verify_model(
    clauses: Sequence[Sequence[int]], model: Dict[int, bool]
) -> bool:
    """True when ``model`` satisfies every clause (used as a self-check)."""
    for clause in clauses:
        if not any(
            model.get(abs(lit), False) == (lit > 0) for lit in clause
        ):
            return False
    return True


def _luby(i: int) -> int:
    """The i-th term (1-based) of the Luby restart sequence 1,1,2,1,1,2,4,…"""
    while True:
        k = i.bit_length()  # smallest k with 2^k - 1 >= i
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


class _Solver:
    """One CDCL search over a fixed clause set."""

    def __init__(self, n_vars: int, clauses: Sequence[Sequence[int]]):
        self.n_vars = n_vars
        # assignment[v]: 0 unassigned, 1 true, -1 false (1-based).
        self.assign = [0] * (n_vars + 1)
        self.level = [0] * (n_vars + 1)
        self.reason: List[Optional[List[int]]] = [None] * (n_vars + 1)
        self.activity = [0.0] * (n_vars + 1)
        self.phase = [False] * (n_vars + 1)
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.prop_head = 0
        # watches[lit] = clauses currently watching lit.
        self.watches: Dict[int, List[List[int]]] = {}
        self.clauses: List[List[int]] = []
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.learned = 0
        self.restarts = 0
        self.var_inc = 1.0
        self.heap: List[Tuple[float, int]] = []
        self.contradiction = False
        for clause in clauses:
            if not self._add_clause(list(clause)):
                self.contradiction = True
                break
        if not self.contradiction:
            self.heap = [(0.0, v) for v in range(1, n_vars + 1)]
            heapq.heapify(self.heap)

    # -- clause management --------------------------------------------

    def _add_clause(self, lits: List[int]) -> bool:
        """Attach one input clause; False signals a root contradiction."""
        seen = set()
        reduced = []
        for lit in lits:
            if -lit in seen:
                return True  # tautology: trivially satisfied, drop it
            if lit not in seen:
                seen.add(lit)
                reduced.append(lit)
        if not reduced:
            return False
        if len(reduced) == 1:
            value = self._value(reduced[0])
            if value == -1:
                return False
            if value == 0:
                self._enqueue(reduced[0], None)
            return True
        self.clauses.append(reduced)
        self._watch(reduced)
        return True

    def _watch(self, clause: List[int]) -> None:
        self.watches.setdefault(-clause[0], []).append(clause)
        self.watches.setdefault(-clause[1], []).append(clause)

    # -- assignment ----------------------------------------------------

    def _value(self, lit: int) -> int:
        value = self.assign[abs(lit)]
        return value if lit > 0 else -value

    def _enqueue(self, lit: int, reason: Optional[List[int]]) -> None:
        var = abs(lit)
        self.assign[var] = 1 if lit > 0 else -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.phase[var] = lit > 0
        self.trail.append(lit)

    def _propagate(self) -> Optional[List[int]]:
        """Unit propagation; returns a conflicting clause or None."""
        while self.prop_head < len(self.trail):
            lit = self.trail[self.prop_head]
            self.prop_head += 1
            self.propagations += 1
            watching = self.watches.get(lit)
            if not watching:
                continue
            kept: List[List[int]] = []
            conflict = None
            index = 0
            n_watching = len(watching)
            while index < n_watching:
                clause = watching[index]
                index += 1
                # Normalize: the falsified watch sits at position 1.
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) == 1:
                    kept.append(clause)
                    continue
                # Look for a new literal to watch.
                moved = False
                for k in range(2, len(clause)):
                    if self._value(clause[k]) != -1:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches.setdefault(-clause[1], []).append(
                            clause
                        )
                        moved = True
                        break
                if moved:
                    continue
                kept.append(clause)
                if self._value(first) == -1:
                    conflict = clause
                    kept.extend(watching[index:])
                    break
                self._enqueue(first, clause)
            self.watches[lit] = kept
            if conflict is not None:
                return conflict
        return None

    # -- conflict analysis --------------------------------------------

    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > _ACTIVITY_RESCALE:
            for v in range(1, self.n_vars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100

    def _analyze(self, conflict: List[int]) -> Tuple[List[int], int]:
        """First-UIP learning: returns (learned clause, backtrack level)."""
        learned: List[int] = [0]  # slot 0 holds the asserting literal
        seen = [False] * (self.n_vars + 1)
        counter = 0
        lit = None
        clause: Optional[List[int]] = conflict
        index = len(self.trail) - 1
        current_level = len(self.trail_lim)
        while True:
            assert clause is not None
            start = 1 if clause is not conflict and lit is not None else 0
            for k in range(start, len(clause)):
                other = clause[k]
                if lit is not None and other == lit:
                    continue
                var = abs(other)
                if seen[var] or self.level[var] == 0:
                    continue
                seen[var] = True
                self._bump(var)
                if self.level[var] >= current_level:
                    counter += 1
                else:
                    learned.append(other)
            # Walk the trail back to the next marked literal.
            while not seen[abs(self.trail[index])]:
                index -= 1
            lit = self.trail[index]
            index -= 1
            var = abs(lit)
            seen[var] = False
            counter -= 1
            if counter == 0:
                learned[0] = -lit
                break
            clause = self.reason[var]
        if len(learned) == 1:
            backtrack = 0
        else:
            # Second-highest decision level among the learned literals.
            best = 1
            for k in range(2, len(learned)):
                if self.level[abs(learned[k])] > self.level[abs(learned[best])]:
                    best = k
            learned[1], learned[best] = learned[best], learned[1]
            backtrack = self.level[abs(learned[1])]
        # Bump activities of the learned clause's variables into the heap.
        for other in learned:
            heapq.heappush(
                self.heap, (-self.activity[abs(other)], abs(other))
            )
        return learned, backtrack

    def _cancel_until(self, target_level: int) -> None:
        while len(self.trail_lim) > target_level:
            mark = self.trail_lim.pop()
            for lit in self.trail[mark:]:
                var = abs(lit)
                self.assign[var] = 0
                self.reason[var] = None
                heapq.heappush(self.heap, (-self.activity[var], var))
            del self.trail[mark:]
        self.prop_head = min(self.prop_head, len(self.trail))

    def _decide(self) -> Optional[int]:
        """Most-active unassigned variable (index-deterministic ties)."""
        while self.heap:
            negact, var = heapq.heappop(self.heap)
            if self.assign[var] == 0 and -negact == self.activity[var]:
                return var
        for var in range(1, self.n_vars + 1):  # heap entries went stale
            if self.assign[var] == 0:
                return var
        return None

    # -- the search ----------------------------------------------------

    def solve(self, max_conflicts: Optional[int]) -> SolverResult:
        if self.contradiction:
            return SolverResult(UNSAT, stats=self._stats())
        conflict = self._propagate()
        if conflict is not None:
            return SolverResult(UNSAT, stats=self._stats())
        budget = _LUBY_UNIT * _luby(self.restarts + 1)
        spent_here = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                spent_here += 1
                if not self.trail_lim:
                    return SolverResult(UNSAT, stats=self._stats())
                learned, backtrack = self._analyze(conflict)
                self._cancel_until(backtrack)
                if len(learned) > 1:
                    self.clauses.append(learned)
                    self._watch(learned)
                    self.learned += 1
                self._enqueue(learned[0], learned if len(learned) > 1 else None)
                self.var_inc *= _ACTIVITY_DECAY
                if (
                    max_conflicts is not None
                    and self.conflicts >= max_conflicts
                ):
                    return SolverResult(UNKNOWN, stats=self._stats())
                if spent_here >= budget:
                    self.restarts += 1
                    spent_here = 0
                    budget = _LUBY_UNIT * _luby(self.restarts + 1)
                    self._cancel_until(0)
                continue
            var = self._decide()
            if var is None:
                model = {
                    v: self.assign[v] == 1 for v in range(1, self.n_vars + 1)
                }
                return SolverResult(SAT, model=model, stats=self._stats())
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(var if self.phase[var] else -var, None)

    def _stats(self) -> Dict[str, int]:
        return {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "learned": self.learned,
            "restarts": self.restarts,
        }


def solve(
    n_vars: int,
    clauses: Sequence[Sequence[int]],
    max_conflicts: Optional[int] = None,
) -> SolverResult:
    """Decide a CNF formula.

    Parameters
    ----------
    n_vars:
        Number of variables; literals must lie in ``[-n_vars, n_vars]``
        excluding 0.
    clauses:
        The formula, one literal sequence per clause.
    max_conflicts:
        Optional effort cap; exceeding it returns status ``"unknown"``
        (the exact backend then refuses to claim a certificate).
    """
    for clause in clauses:
        for lit in clause:
            if lit == 0 or abs(lit) > n_vars:
                raise ValueError(f"literal {lit} out of range for {n_vars} vars")
    result = _Solver(n_vars, clauses).solve(max_conflicts)
    if result.status == SAT:
        assert result.model is not None
        if not verify_model(clauses, result.model):  # pragma: no cover
            raise AssertionError("CDCL produced a non-model (solver bug)")
    return result
