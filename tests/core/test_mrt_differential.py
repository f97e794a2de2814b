"""Differential tests: the bitmask tables against the dict-of-cells oracles.

Random reserve/release scripts drive both implementations in lockstep;
after every step they must agree on every observable — ``conflicts``,
``conflicting_ops``, ``occupancy``, ``holds``, whether ``reserve`` raised
and with exactly which :class:`ReservationConflict` message, and the
byte-exact ``render`` output.  The wide reservation-table regression
(the old ``reserve`` probed an O(uses) list per use) lives here too, as
does FindTimeSlot's window sweep
(:meth:`ModuloReservations.first_free_slot`) against Figure 4's scalar
time-major, alternative-minor scan on the dict oracle, and the
feasible-alternative sets the machine's mask compilation hands the
scheduler against the dict oracle's self-conflict verdict.
"""

from __future__ import annotations

import inspect

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import repro.machine
from repro.core import (
    LinearReservations,
    ModuloReservations,
    ReservationConflict,
)
from repro.machine import MachineDescription, ReservationTable, cydra5
from tests.oracles.mrt import DictLinearReservations, DictModuloReservations

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_RESOURCES = ["r0", "r1", "r2"]


@st.composite
def table_pools(draw):
    """A small pool of distinct reservation tables over shared resources."""
    pool = []
    for t in range(draw(st.integers(min_value=1, max_value=4))):
        n_uses = draw(st.integers(min_value=1, max_value=5))
        uses = set()
        while len(uses) < n_uses:
            uses.add(
                (
                    draw(st.sampled_from(_RESOURCES)),
                    draw(st.integers(min_value=0, max_value=12)),
                )
            )
        pool.append(ReservationTable(f"t{t}", sorted(uses)))
    return pool


@st.composite
def scripts(draw):
    """A pool plus a random reserve/release action sequence over it."""
    pool = draw(table_pools())
    steps = []
    n_steps = draw(st.integers(min_value=1, max_value=24))
    for op in range(n_steps):
        if draw(st.booleans()):
            steps.append(
                (
                    "reserve",
                    op,
                    draw(st.integers(min_value=0, max_value=len(pool) - 1)),
                    draw(st.integers(min_value=0, max_value=25)),
                )
            )
        else:
            steps.append(
                ("release", draw(st.integers(min_value=0, max_value=n_steps)))
            )
    return pool, steps


def _apply(mrt, step, pool):
    """Run one step; normalize the outcome to compare across impls."""
    if step[0] == "release":
        mrt.release(step[1])
        return ("released", None)
    _, op, table_index, time = step
    try:
        mrt.reserve(op, pool[table_index], time)
        return ("reserved", None)
    except ReservationConflict as error:
        return ("conflict", str(error))


def _assert_agree(mask, oracle, pool, times):
    """Every observable must match between the two implementations."""
    assert mask.occupancy() == oracle.occupancy()
    for table in pool:
        assert mask.self_conflicting(table) == oracle.self_conflicting(table)
        for time in times:
            assert mask.conflicts(table, time) == oracle.conflicts(table, time), (
                table.uses,
                time,
            )
    for time in times:
        assert mask.conflicting_ops(pool, time) == oracle.conflicting_ops(
            pool, time
        )


class TestModuloLockstep:
    @given(scripts(), st.integers(min_value=1, max_value=9))
    @_SETTINGS
    def test_every_observable_agrees(self, script, ii):
        pool, steps = script
        mask = ModuloReservations(ii)
        oracle = DictModuloReservations(ii)
        times = [0, 1, ii - 1, ii, 2 * ii + 1]
        for step in steps:
            assert _apply(mask, step, pool) == _apply(oracle, step, pool)
            _assert_agree(mask, oracle, pool, times)
            assert mask.render(_RESOURCES) == oracle.render(_RESOURCES)

    @given(scripts(), st.integers(min_value=1, max_value=9))
    @_SETTINGS
    def test_holds_agrees(self, script, ii):
        pool, steps = script
        mask = ModuloReservations(ii)
        oracle = DictModuloReservations(ii)
        ops = {step[1] for step in steps}
        for step in steps:
            assert _apply(mask, step, pool) == _apply(oracle, step, pool)
            for op in ops:
                assert mask.holds(op) == oracle.holds(op)


class TestLinearLockstep:
    @given(scripts())
    @_SETTINGS
    def test_every_observable_agrees(self, script):
        pool, steps = script
        mask = LinearReservations()
        oracle = DictLinearReservations()
        times = [0, 1, 7, 25, 38]
        for step in steps:
            assert _apply(mask, step, pool) == _apply(oracle, step, pool)
            _assert_agree(mask, oracle, pool, times)


class TestFactories:
    def test_machine_seeds_the_resource_rows(self):
        machine = cydra5()
        mrt = ModuloReservations(4, machine.compiled_masks(4))
        alternative = machine.opcode("fadd").alternatives[0]
        mrt.reserve(1, alternative, 0)
        oracle = DictModuloReservations(4)
        oracle.reserve(1, alternative, 0)
        assert mrt.occupancy() == oracle.occupancy()
        assert mrt.render(machine.resources) == oracle.render(machine.resources)


def _wide_table(n_uses=240, n_resources=8):
    """Many uses spread over few resources — the satellite regression
    shape: the old dict ``reserve`` scanned its cells *list* once per
    use, going quadratic exactly here."""
    return ReservationTable(
        "wide",
        [(f"port{i % n_resources}", i) for i in range(n_uses)],
    )


class TestWideTableRegression:
    def test_wide_reserve_roundtrip(self):
        table = _wide_table()
        for mrt in (DictLinearReservations(), LinearReservations()):
            mrt.reserve(1, table, 0)
            assert mrt.conflicts(table, 0)
            assert len(mrt.occupancy()) == len(table.uses)
            mrt.release(1)
            assert not mrt.conflicts(table, 0)

    def test_wide_self_conflict_detected_under_folding(self):
        # port0 is used at offsets 0, 8, 16, ... — any II dividing 8
        # folds two uses onto one cell.
        table = _wide_table()
        for mrt in (DictModuloReservations(8), ModuloReservations(8)):
            assert mrt.self_conflicting(table)
            with pytest.raises(ReservationConflict, match="self-conflicts"):
                mrt.reserve(1, table, 0)
            assert not mrt.holds(1)

    def test_wide_reserve_probes_each_use_once(self):
        table = _wide_table()
        oracle = DictLinearReservations()
        oracle.reserve(1, table, 0)
        assert oracle.cell_probes == len(table.uses)

    @given(st.integers(min_value=9, max_value=41))
    @_SETTINGS
    def test_wide_table_lockstep_at_any_interval(self, ii):
        table = _wide_table(n_uses=60)
        mask = ModuloReservations(ii)
        oracle = DictModuloReservations(ii)
        assert mask.self_conflicting(table) == oracle.self_conflicting(table)
        assert mask.conflicts(table, 3) == oracle.conflicts(table, 3)
        outcome_mask = _apply(mask, ("reserve", 1, 0, 3), [table])
        outcome_oracle = _apply(oracle, ("reserve", 1, 0, 3), [table])
        assert outcome_mask == outcome_oracle
        assert mask.occupancy() == oracle.occupancy()


# ----------------------------------------------------------------------
# FindTimeSlot's window sweep vs Figure 4's scalar scan.


@st.composite
def slot_scenarios(draw):
    """A partially filled MRT plus a probe: random II, resources,
    reservation shapes (self-conflicting ones included), and min_time."""
    ii = draw(st.integers(min_value=1, max_value=8))
    resources = [f"r{i}" for i in range(draw(st.integers(1, 3)))]

    def table(tag):
        uses = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(resources),
                    st.integers(min_value=0, max_value=6),
                ),
                min_size=1,
                max_size=4,
                unique=True,
            )
        )
        return ReservationTable(tag, uses)

    mrt = ModuloReservations(ii)
    oracle = DictModuloReservations(ii)
    op = 0
    for i in range(draw(st.integers(min_value=0, max_value=5))):
        candidate = table(f"fill{i}")
        time = draw(st.integers(min_value=0, max_value=2 * ii))
        if not mrt.conflicts(candidate, time):
            mrt.reserve(op, candidate, time)
            oracle.reserve(op, candidate, time)
            op += 1
    alternatives = [
        table(f"alt{i}")
        for i in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    min_time = draw(st.integers(min_value=0, max_value=3 * ii))
    return mrt, oracle, alternatives, min_time


class TestFirstFreeSlotParity:
    @settings(max_examples=120, deadline=None)
    @given(scenario=slot_scenarios())
    def test_batch_matches_the_scalar_scan(self, scenario):
        """The window sweep returns the slot and alternative index that
        Figure 4's time-major, alternative-minor scan finds first."""
        mrt, oracle, alternatives, min_time = scenario
        expected = oracle.first_free_slot(alternatives, min_time)
        assert mrt.first_free_slot(alternatives, min_time) == expected

    def test_ties_go_to_the_earliest_declared_alternative(self):
        a = ReservationTable("a", [("r0", 0)])
        b = ReservationTable("b", [("r0", 0)])
        for mrt in (ModuloReservations(4), DictModuloReservations(4)):
            time, index = mrt.first_free_slot([a, b], min_time=3)
            assert (time, index) == (3, 0)

    def test_full_window_reports_no_slot(self):
        blocker = ReservationTable("blk", [("r0", 0), ("r0", 1)])
        probe = ReservationTable("p", [("r0", 0)])
        for mrt in (ModuloReservations(2), DictModuloReservations(2)):
            mrt.reserve(0, blocker, 0)
            assert mrt.first_free_slot([probe], min_time=5) == (None, None)


def _machine_factories():
    """Every machine factory ``repro.machine`` exports: the functions
    callable without arguments that return a machine description."""
    factories = []
    for name in repro.machine.__all__:
        value = getattr(repro.machine, name)
        if isinstance(value, type) or not callable(value):
            continue
        required = [
            p
            for p in inspect.signature(value).parameters.values()
            if p.default is inspect.Parameter.empty
        ]
        if not required and isinstance(value(), MachineDescription):
            factories.append(value)
    return factories


class TestFeasibleAlternatives:
    """The scheduler takes each opcode's usable alternatives from
    ``CompiledMaskSet.feasible``; the dict oracle's ``self_conflicting``
    must accept exactly those, in the same order."""

    @pytest.mark.parametrize(
        "factory", _machine_factories(), ids=lambda f: f.__name__
    )
    def test_mask_compilation_agrees_with_the_dict_oracle(self, factory):
        machine = factory()
        for ii in range(1, 33):
            mask_set = machine.compiled_masks(ii)
            oracle = DictModuloReservations(ii)
            for opcode in machine.opcode_names:
                expected = [
                    alt
                    for alt in machine.opcode(opcode).alternatives
                    if not oracle.self_conflicting(alt)
                ]
                got = [alt.table for alt in mask_set.feasible(opcode)]
                assert got == expected, (machine.name, ii, opcode)
