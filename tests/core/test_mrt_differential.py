"""Differential tests: the bitmask MRT against the dict-of-cells oracle.

Random reserve/release scripts drive both implementations in lockstep;
after every step they must agree on every observable — ``conflicts``,
``conflicting_ops``, ``occupancy``, ``holds``, whether ``reserve`` raised
and with exactly which :class:`ReservationConflict` message, and the
byte-exact ``render`` output.  The factory/flag plumbing and the wide
reservation-table regression (the old ``reserve`` probed an O(uses)
list per use) live here too, as does the batched FindTimeSlot probe
(:meth:`ModuloReservations.first_free_slot`) against the scalar
time-major, alternative-minor scan: same placement, same as-if probe
accounting.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import (
    DictLinearReservations,
    DictModuloReservations,
    LinearReservations,
    ModuloReservations,
    ReservationConflict,
    make_linear_reservations,
    make_modulo_reservations,
    resolve_mrt_impl,
)
from repro.core.mrt import MRT_IMPL_ENV
from repro.machine import ReservationTable, cydra5

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
    def test_default_is_the_bitmask_table(self):
        assert type(make_modulo_reservations(4)) is ModuloReservations
        assert type(make_linear_reservations()) is LinearReservations

    def test_dict_oracle_selectable(self):
        mrt = make_modulo_reservations(4, impl="dict")
        assert type(mrt) is DictModuloReservations
        assert type(make_linear_reservations(impl="dict")) is (
            DictLinearReservations
        )

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv(MRT_IMPL_ENV, "dict")
        assert resolve_mrt_impl() == "dict"
        assert type(make_modulo_reservations(3)) is DictModuloReservations
        # An explicit argument beats the environment.
        assert type(make_modulo_reservations(3, impl="mask")) is (
            ModuloReservations
        )

    def test_unknown_impl_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_mrt_impl("quantum")
        monkeypatch.setenv(MRT_IMPL_ENV, "bogus")
        with pytest.raises(ValueError):
            make_modulo_reservations(4)

    def test_machine_seeds_the_resource_rows(self):
        machine = cydra5()
        mrt = make_modulo_reservations(4, machine=machine)
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
# Batched FindTimeSlot vs the scalar scan.


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
    op = 0
    for i in range(draw(st.integers(min_value=0, max_value=5))):
        candidate = table(f"fill{i}")
        time = draw(st.integers(min_value=0, max_value=2 * ii))
        if not mrt.conflicts(candidate, time):
            mrt.reserve(op, candidate, time)
            op += 1
    alternatives = [
        table(f"alt{i}")
        for i in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    min_time = draw(st.integers(min_value=0, max_value=3 * ii))
    return mrt, alternatives, min_time


def _scalar_scan(mrt, alternatives, min_time):
    """The oracle: probe every (slot, alternative) pair in scan order."""
    for time in range(min_time, min_time + mrt.ii):
        for idx, alternative in enumerate(alternatives):
            if not mrt.conflicts(alternative, time):
                return time, idx
    return None, None


class TestFirstFreeSlotParity:
    @settings(max_examples=120, deadline=None)
    @given(scenario=slot_scenarios())
    def test_batch_matches_the_scalar_scan(self, scenario):
        """Same placement, same winning alternative, and the same
        ``checks`` accounting as if the scalar scan had run."""
        mrt, alternatives, min_time = scenario
        before = mrt.checks
        expected = _scalar_scan(mrt, alternatives, min_time)
        scalar_probes = mrt.checks - before
        before = mrt.checks
        got = mrt.first_free_slot(alternatives, min_time)
        assert got == expected
        assert mrt.checks - before == scalar_probes

    def test_ties_go_to_the_earliest_declared_alternative(self):
        mrt = ModuloReservations(4)
        a = ReservationTable("a", [("r0", 0)])
        b = ReservationTable("b", [("r0", 0)])
        time, index = mrt.first_free_slot([a, b], min_time=3)
        assert (time, index) == (3, 0)

    def test_full_window_reports_no_slot(self):
        mrt = ModuloReservations(2)
        blocker = ReservationTable("blk", [("r0", 0), ("r0", 1)])
        mrt.reserve(0, blocker, 0)
        probe = ReservationTable("p", [("r0", 0)])
        before = mrt.checks
        assert mrt.first_free_slot([probe], min_time=5) == (None, None)
        assert mrt.checks - before == mrt.ii  # ii slots x one alternative
