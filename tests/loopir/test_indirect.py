"""Indirect array references: gather/scatter with conservative deps."""

import pytest

from repro.check import check_schedule
from repro.core import compute_mii, modulo_schedule
from repro.ir import DependenceKind
from repro.loopir import ParseError, compile_loop_full, parse_loop
from repro.loopir.ast import ArrayRef, IndirectRef, IndirectStore
from repro.machine import cydra5, single_alu_machine
from repro.simulator import check_equivalence


@pytest.fixture
def machine():
    return cydra5()


class TestParsing:
    def test_indirect_load(self):
        loop = parse_loop("for i in n:\n    t = x[perm[i]]\n")
        assert loop.body[0].value == IndirectRef("x", ArrayRef("perm", 0))

    def test_indirect_store(self):
        loop = parse_loop("for i in n:\n    h[idx[i+1]] = 1.0\n")
        statement = loop.body[0]
        assert isinstance(statement, IndirectStore)
        assert statement.index == ArrayRef("idx", 1)

    def test_doubly_indirect_rejected(self):
        with pytest.raises(ParseError):
            parse_loop("for i in n:\n    t = x[a[b[i]]]\n")

    def test_arrays_include_index_arrays(self):
        loop = parse_loop("for i in n:\n    h[idx[i]] = w[i]\n")
        assert loop.arrays() == ["h", "idx", "w"]


class TestDependences:
    def _mem_edges(self, lowered, array):
        graph = lowered.graph

        def is_ref(index):
            op = graph.operation(index)
            return (
                op.opcode in ("load", "store")
                and op.attrs.get("array") == array
            )

        return [
            e for e in graph.edges if is_ref(e.pred) and is_ref(e.succ)
        ]

    def test_scatter_serializes_against_itself(self, machine):
        lowered = compile_loop_full(
            "for i in n:\n    h[idx[i]] = w[i]\n", machine
        )
        edges = self._mem_edges(lowered, "h")
        self_edges = [e for e in edges if e.pred == e.succ]
        assert self_edges and self_edges[0].distance == 1
        assert self_edges[0].kind is DependenceKind.OUTPUT

    def test_gather_after_scatter_bidirectional(self, machine):
        lowered = compile_loop_full(
            "for i in n:\n    h[idx[i]] = h[idx[i]] + w[i]\n", machine
        )
        edges = self._mem_edges(lowered, "h")
        kinds = {(e.kind, e.distance) for e in edges if e.pred != e.succ}
        # load before store in program order: anti at 0; the store must
        # precede next iteration's load: flow at 1.
        assert (DependenceKind.ANTI, 0) in kinds
        assert (DependenceKind.FLOW, 1) in kinds

    def test_histogram_recurrence_clamps_ii(self, machine):
        lowered = compile_loop_full(
            "for i in n:\n    h[idx[i]] = h[idx[i]] + w[i]\n", machine
        )
        result = compute_mii(lowered.graph, machine)
        # load(20) -> fadd(4) -> store(2) -> next load: the serialization
        # chain sets the RecMII.
        assert result.rec_mii >= 26
        assert result.mii == result.rec_mii

    def test_pure_gather_does_not_serialize(self, machine):
        """Reads through a permutation are loads only: no store, no
        conservative circuit, pipelining unhindered."""
        lowered = compile_loop_full(
            "for i in n:\n    y[i] = 2.0 * x[perm[i]]\n", machine
        )
        result = compute_mii(lowered.graph, machine)
        assert result.rec_mii <= 3

    def test_direct_refs_to_other_arrays_unaffected(self, machine):
        lowered = compile_loop_full(
            "for i in n:\n    h[idx[i]] = w[i]\n    c[i] = w[i]\n",
            machine,
        )
        assert self._mem_edges(lowered, "c") == []

    def test_indirect_loads_not_value_numbered_across_stores(self, machine):
        lowered = compile_loop_full(
            "for i in n:\n    h[idx[i]] = h[idx[i]] + 1.0\n", machine
        )
        loads = [
            op
            for op in lowered.graph.real_operations()
            if op.opcode == "load" and op.attrs.get("array") == "h"
        ]
        assert len(loads) == 1  # read once, before the store


class TestEndToEnd:
    @pytest.mark.parametrize(
        "name, source",
        [
            ("histogram", "for i in n:\n    h[idx[i]] = h[idx[i]] + w[i]\n"),
            ("gather", "for i in n:\n    y[i] = x[perm[i]] - x[i]\n"),
            ("scatter", "for i in n:\n    out[sel[i]] = v[i] * 2.0\n"),
            (
                "gather_reduce",
                "for i in n:\n    s = s + table[key[i]]\n",
            ),
            (
                "conditional_scatter",
                "for i in n:\n"
                "    if w[i] > 0.0:\n"
                "        h[idx[i]] = w[i]\n",
            ),
        ],
    )
    @pytest.mark.parametrize("machine_factory", [cydra5, single_alu_machine])
    def test_verified_against_oracle(self, name, source, machine_factory):
        machine = machine_factory()
        lowered = compile_loop_full(source, machine, name=name)
        result = modulo_schedule(lowered.graph, machine, budget_ratio=6.0)
        assert not check_schedule(lowered.graph, machine, result.schedule).errors
        for seed in (0, 3):
            report = check_equivalence(lowered, result.schedule, n=33, seed=seed)
            assert report.ok, report.describe()

    def test_duplicate_indices_ordered_correctly(self):
        """Two iterations hitting the same histogram bucket must both
        land — the classic failure of unserialized scatters."""
        from repro.simulator import make_initial_state, run_pipelined, run_reference

        machine = cydra5()
        lowered = compile_loop_full(
            "for i in n:\n    h[idx[i]] = h[idx[i]] + 1.0\n", machine
        )
        result = modulo_schedule(lowered.graph, machine, budget_ratio=6.0)
        n = 12
        state = make_initial_state(lowered, n, seed=1)
        for i in range(n):
            state.arrays["idx"][i] = float(i % 3)  # heavy collisions
        reference = run_reference(lowered.loop, state.copy(), n)
        pipelined = run_pipelined(lowered, result.schedule, state.copy(), n)
        assert reference.differences(pipelined) == []
        assert reference.arrays["h"][0] == state.arrays["h"][0] + 4.0
