"""The compiled reference against the AST tree-walker it replaced.

``repro.simulator.run_reference`` compiles the loop into closures once per
call; ``tests/oracles/reference.py`` keeps the walker that re-walked the
AST on every iteration.  Both must reach the same outcome: the ``repr`` of
every array cell (halo included) and every scalar, or the same exception
type and message together with the state at the raise.  The cases are
every DSL kernel on the four front-end machines, the WHILE and indirect
loops of ``tests/loopir``, random programs from the whole-stack fuzzer, and
hand-built ASTs the parser cannot produce.
"""

import math
import os

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.loopir import compile_loop_full
from repro.loopir.ast import (
    ArrayRef,
    Assign,
    BinOp,
    BoolOp,
    Call,
    Compare,
    If,
    IndirectRef,
    IndirectStore,
    IVar,
    Loop,
    NotOp,
    Num,
    Scalar,
    Store,
)
from repro.loopir.ifconv import if_convert
from repro.loopir.lower import lower_loop
from repro.machine import (
    cydra5,
    single_alu_machine,
    superscalar_machine,
    two_alu_machine,
)
from repro.simulator import (
    ArrayStore,
    LoopState,
    make_initial_state,
    run_reference,
)
from repro.workloads import KERNELS
from tests.loopir.test_fuzz import loops
from tests.oracles import reference as oracle

_MACHINES = {
    "cydra5": cydra5,
    "single_alu": single_alu_machine,
    "two_alu": two_alu_machine,
    "superscalar": superscalar_machine,
}


def _snapshot(state):
    arrays = {name: repr(a.snapshot()) for name, a in state.arrays.items()}
    return arrays, repr(sorted(state.scalars.items()))


def _outcome(run, loop, state, n):
    """What one reference makes of a run on a copy of ``state``: the final
    state, or the exception and the state it left behind."""
    state = state.copy()
    try:
        run(loop, state, n)
    except Exception as exc:
        return ("raised", type(exc), str(exc), _snapshot(state))
    return ("state", _snapshot(state))


def _agree(loop, state, n):
    compiled = _outcome(run_reference, loop, state, n)
    assert compiled == _outcome(oracle.run_reference, loop, state, n)
    return compiled


@pytest.mark.parametrize("machine_name", sorted(_MACHINES))
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_every_kernel_matches_the_walker(machine_name, name):
    machine = _MACHINES[machine_name]()
    lowered = compile_loop_full(KERNELS[name].source, machine, name=name)
    for n in (0, 1, 7, 256):
        for seed in (0, 1, 2):
            state = make_initial_state(lowered, n, seed=seed)
            kind, *_ = _agree(lowered.loop, state, n)
            assert kind == "state"


#: The WHILE loops of tests/loopir/test_while.py and the indirect loops of
#: tests/loopir/test_indirect.py, with the scalars those tests pin.
_LOOPS = {
    "while_countdown_s": ("for i in n while s > 0.0:\n    s = s - d[i]\n", {}),
    "while_and": (
        "for i in n while s > 0.0 and x[i] < hi:\n    s = s - x[i]\n",
        {},
    ),
    "while_guarded_stores": (
        "for i in n while q > 0.0:\n"
        "    a[i] = x[i]\n"
        "    if x[i] > 0.0:\n"
        "        b[i] = x[i]\n",
        {"q": 1.0},
    ),
    "while_threshold": (
        "for i in n while x[i] < limit:\n    s = s + x[i]\n    y[i] = s\n",
        {},
    ),
    "while_exit_on_first": (
        "for i in n while gate > 0.0:\n    a[i] = 7.0\n    s = s + 1.0\n",
        {"gate": -1.0},
    ),
    "while_exact_boundary": (
        "for i in n while countdown > 0.5:\n"
        "    countdown = countdown - 1.0\n"
        "    out[i] = countdown\n",
        {"countdown": 5.0},
    ),
    "while_never_false": (
        "for i in n while one > 0.0:\n    y[i] = x[i]\n",
        {"one": 1.0},
    ),
    "while_accumulate": (
        "for i in n while s < 9.0:\n    s = s + a[i]\n    b[i] = s\n",
        {},
    ),
    "gather_to_scalar": ("for i in n:\n    t = x[perm[i]]\n", {}),
    "scatter_ahead": ("for i in n:\n    h[idx[i+1]] = 1.0\n", {}),
    "scatter_and_store": (
        "for i in n:\n    h[idx[i]] = w[i]\n    c[i] = w[i]\n",
        {},
    ),
    "histogram": ("for i in n:\n    h[idx[i]] = h[idx[i]] + w[i]\n", {}),
    "histogram_count": ("for i in n:\n    h[idx[i]] = h[idx[i]] + 1.0\n", {}),
    "gather": ("for i in n:\n    y[i] = x[perm[i]] - x[i]\n", {}),
    "gather_scaled": ("for i in n:\n    y[i] = 2.0 * x[perm[i]]\n", {}),
    "scatter": ("for i in n:\n    out[sel[i]] = v[i] * 2.0\n", {}),
    "gather_reduce": ("for i in n:\n    s = s + table[key[i]]\n", {}),
    "conditional_scatter": (
        "for i in n:\n    if w[i] > 0.0:\n        h[idx[i]] = w[i]\n",
        {},
    ),
}


@pytest.mark.parametrize("name", sorted(_LOOPS))
def test_while_and_indirect_loops_match_the_walker(name):
    source, scalars = _LOOPS[name]
    lowered = compile_loop_full(source, cydra5(), name=name)
    index_arrays = {
        op.attrs["index_array"]
        for op in lowered.graph.real_operations()
        if "index_array" in op.attrs
    }
    for n in (0, 1, 12, 33):
        for seed in (0, 1, 2):
            state = make_initial_state(lowered, n, seed=seed)
            state.scalars.update(scalars)
            _agree(lowered.loop, state, n)
            # Heavy collisions, as in the duplicate-index test.
            for array in index_arrays:
                for i in range(n):
                    state.arrays[array][i] = float(i % 3)
            _agree(lowered.loop, state, n)


@given(
    loop=loops(),
    size=st.integers(min_value=0, max_value=10),
    extra=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(
    max_examples=int(os.environ.get("REPRO_FUZZ_EXAMPLES", "150")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_random_programs_match_the_walker(loop, size, extra, seed):
    """Up to five iterations past the arrays' size, so references near
    the edge of the halo leave it at some iteration and raise there."""
    machine = cydra5()
    lowered = lower_loop(loop, if_convert(loop), machine)
    state = make_initial_state(lowered, size, seed=seed)
    _agree(loop, state, size + extra)


# ----------------------------------------------------------------------
# Hand-built ASTs the parser cannot produce
# ----------------------------------------------------------------------

_FALSE = Compare("<", Num(1.0), Num(0.0))
_TRUE = Compare("<", Num(0.0), Num(1.0))
_ABSENT = Scalar("q")


def _loop(*body, while_cond=None):
    return Loop("i", "n", list(body), name="hand", while_cond=while_cond)


def _state():
    """Arrays ``x`` (cells -2.0 .. 5.0) and ``y`` (zeros) of four elements
    and a halo of two, and scalars ``s = 1.0`` and ``z = 0.0``."""
    state = LoopState(scalars={"s": 1.0, "z": 0.0})
    for name in ("x", "y"):
        state.arrays[name] = ArrayStore(4, halo=2)
    state.arrays["x"].cells()[:] = [float(j) for j in range(-2, 6)]
    return state


#: name -> (loop, iterations, what the run ends in: "state" or the
#: exception type).
_HANDMADE = {
    "unknown_operator_untaken": (
        _loop(If(_FALSE, [Assign("s", BinOp("%", Num(1.0), Num(2.0)))])),
        4,
        "state",
    ),
    "unknown_intrinsic_untaken": (
        _loop(If(_TRUE, [], [Store("y", 0, Call("erf", (Num(1.0),)))])),
        4,
        "state",
    ),
    "unknown_operator_taken": (
        _loop(
            Store("y", 0, IVar()),
            If(
                Compare(">", IVar(), Num(1.5)),
                [Assign("s", BinOp("%", IVar(), Num(2.0)))],
            ),
        ),
        4,
        ValueError,
    ),
    "unknown_operator_after_operands": (
        _loop(Assign("s", BinOp("%", Num(1.0), _ABSENT))),
        4,
        KeyError,
    ),
    "unknown_intrinsic_taken": (
        _loop(Store("y", 0, Call("erf", (ArrayRef("x", 0),)))),
        4,
        ValueError,
    ),
    "unknown_intrinsic_after_operands": (
        _loop(Store("y", 0, Call("erf", (Num(1.0), ArrayRef("x", 9))))),
        4,
        IndexError,
    ),
    "unknown_compare": (
        _loop(If(Compare("<>", Num(1.0), Num(2.0)), [Assign("s", Num(0.0))])),
        4,
        KeyError,
    ),
    "unknown_compare_after_operands": (
        _loop(If(Compare("<>", _ABSENT, Num(2.0)), [Assign("s", Num(0.0))])),
        4,
        KeyError,
    ),
    "unknown_compare_untaken": (
        _loop(If(_FALSE, [If(Compare("<>", Num(1.0), Num(2.0)), [])])),
        4,
        "state",
    ),
    "unknown_expression": (
        _loop(Assign("s", Compare("<", Num(1.0), Num(2.0)))),
        4,
        TypeError,
    ),
    "unknown_condition": (
        _loop(If(Num(1.0), [Assign("s", Num(0.0))])),
        4,
        TypeError,
    ),
    "unknown_statement": (_loop(Assign("s", Num(2.0)), Num(1.0)), 4, TypeError),
    "unknown_nodes_untaken": (
        _loop(If(_FALSE, [Num(1.0), If(Num(1.0), []), Assign("s", _TRUE)])),
        4,
        "state",
    ),
    "unknown_bool_op_is_or": (
        _loop(If(BoolOp("xor", _TRUE, _TRUE), [Assign("s", IVar())])),
        4,
        "state",
    ),
    "absent_scalar": (
        _loop(Assign("s", BinOp("+", Scalar("s"), _ABSENT))),
        4,
        KeyError,
    ),
    "absent_scalar_assigned_first": (
        _loop(Assign("q", IVar()), Assign("s", _ABSENT)),
        4,
        "state",
    ),
    "absent_scalar_untaken": (
        _loop(If(_FALSE, [Assign("s", _ABSENT)])),
        4,
        "state",
    ),
    "absent_array_read": (_loop(Store("y", 0, ArrayRef("w", 0))), 4, KeyError),
    "absent_array_store": (_loop(Store("w", 0, Num(1.0))), 4, KeyError),
    "absent_array_store_value_first": (
        _loop(Store("w", 0, _ABSENT)),
        4,
        KeyError,
    ),
    "absent_array_gather": (
        _loop(Store("y", 0, IndirectRef("w", ArrayRef("x", 0)))),
        4,
        KeyError,
    ),
    "absent_array_gather_index_first": (
        _loop(Store("y", 0, IndirectRef("w", ArrayRef("x", 9)))),
        4,
        IndexError,
    ),
    "absent_array_untaken": (
        _loop(If(_FALSE, [Store("w", 0, ArrayRef("w", 0))])),
        4,
        "state",
    ),
    "read_past_the_arrays": (
        _loop(Store("y", 0, ArrayRef("x", 0))),
        7,
        IndexError,
    ),
    "read_inside_the_halo": (
        _loop(Store("y", -2, ArrayRef("x", 2))),
        4,
        "state",
    ),
    "gather_out_of_range": (
        _loop(Store("y", 0, IndirectRef("x", BinOp("+", IVar(), Num(4.0))))),
        4,
        IndexError,
    ),
    "gather_nan_index": (
        _loop(Store("y", 0, IndirectRef("x", Scalar("nan")))),
        1,
        ValueError,
    ),
    "scatter_index_before_value": (
        _loop(IndirectStore("y", ArrayRef("x", 9), _ABSENT)),
        4,
        IndexError,
    ),
    "scatter": (
        _loop(
            IndirectStore("y", ArrayRef("x", -1), BinOp("*", IVar(), Num(3.0)))
        ),
        4,
        "state",
    ),
    "divide_by_zero": (
        _loop(
            Store("y", 0, BinOp("/", BinOp("-", IVar(), Num(1.0)), Num(0.0))),
            Assign("s", BinOp("/", Num(1.0), Scalar("neg_zero"))),
        ),
        4,
        "state",
    ),
    "zero_by_zero": (
        _loop(Assign("s", BinOp("/", Scalar("z"), Num(0.0)))),
        1,
        "state",
    ),
    "sqrt_of_negative": (
        _loop(Store("y", 0, Call("sqrt", (BinOp("-", IVar(), Num(1.0)),)))),
        4,
        "state",
    ),
    "intrinsics": (
        _loop(
            Store("y", 0, Call("max", (ArrayRef("x", 0), Call("neg", (IVar(),))))),
            Assign(
                "s", Call("min", (Call("abs", (ArrayRef("x", -1),)), Scalar("s")))
            ),
        ),
        4,
        "state",
    ),
    "intrinsic_arities": (
        _loop(
            Assign("s", Call("min", (IVar(),))),
            Assign("t", Call("abs", (ArrayRef("x", -1), Num(9.0)))),
            Assign("u", Call("max", (IVar(), Num(1.5), ArrayRef("x", 0)))),
        ),
        4,
        "state",
    ),
    "unary_intrinsic_evaluates_every_argument": (
        _loop(Assign("s", Call("abs", (Num(1.0), _ABSENT)))),
        4,
        KeyError,
    ),
    "intrinsic_without_arguments": (
        _loop(Assign("s", Call("sqrt", ()))),
        4,
        IndexError,
    ),
    "and_right_side_raises": (
        _loop(
            Store("y", 0, IVar()),
            If(BoolOp("and", _FALSE, Compare("<", _ABSENT, Num(0.0))), []),
        ),
        4,
        KeyError,
    ),
    "or_right_side_raises": (
        _loop(If(BoolOp("or", _TRUE, Compare("<", _ABSENT, Num(0.0))), [])),
        4,
        KeyError,
    ),
    "not_and_nested_bool_ops": (
        _loop(
            If(
                BoolOp(
                    "or",
                    NotOp(Compare(">=", IVar(), Num(2.0))),
                    BoolOp("and", _TRUE, _FALSE),
                ),
                [Store("y", 0, Num(1.0))],
                [Store("y", 0, Num(-1.0))],
            )
        ),
        4,
        "state",
    ),
    "while_condition_raises": (
        _loop(Assign("s", IVar()), while_cond=Compare("<", _ABSENT, Num(0.0))),
        4,
        KeyError,
    ),
    "while_condition_stops": (
        _loop(Store("y", 0, IVar()), while_cond=Compare("<", IVar(), Num(2.5))),
        4,
        "state",
    ),
    "int_constants": (
        _loop(
            Assign("s", Num(3)),
            Store("y", 0, Num(3)),
            Assign("t", BinOp("+", Num(1), Num(2))),
        ),
        4,
        "state",
    ),
}


@pytest.mark.parametrize("name", sorted(_HANDMADE))
def test_handmade_loops_match_the_walker(name):
    loop, n, expected = _HANDMADE[name]
    state = _state()
    state.scalars.update(nan=math.nan, neg_zero=-0.0)
    outcome = _agree(loop, state, n)
    assert (outcome[0] if expected == "state" else outcome[1]) == expected


_ZEROS = (0.0,) * 8


@pytest.mark.parametrize(
    "body, message, y",
    [
        # Iteration 0 stores y[0], then reads x[-3].
        (
            [Store("y", 0, Num(7.0)), Assign("s", ArrayRef("x", -3))],
            "index -3 outside [-2, 6)",
            (0.0, 0.0, 7.0) + _ZEROS[3:],
        ),
        # Iterations 0-2 store y[i] = x[i+3]; iteration 3 reads x[6].
        (
            [Store("y", 0, ArrayRef("x", 3))],
            "index 6 outside [-2, 6)",
            (0.0, 0.0, 3.0, 4.0, 5.0) + _ZEROS[5:],
        ),
        # Iteration 0 stores y[0], then stores y[-3].
        (
            [Store("y", 0, Num(7.0)), Store("y", -3, Num(8.0))],
            "index -3 outside [-2, 6)",
            (0.0, 0.0, 7.0) + _ZEROS[3:],
        ),
        # Iterations 0-2 store y[i+3] = i; iteration 3 stores y[6].
        (
            [Store("y", 3, IVar())],
            "index 6 outside [-2, 6)",
            _ZEROS[:5] + (0.0, 1.0, 2.0),
        ),
    ],
    ids=["read_first", "read_last", "store_first", "store_last"],
)
def test_out_of_halo_access_raises_after_earlier_cells_land(body, message, y):
    outcome = _agree(_loop(*body), _state(), 4)
    assert outcome[:3] == ("raised", IndexError, message)
    arrays, _ = outcome[3]
    assert arrays["y"] == repr(y)


def test_assign_keeps_an_int_and_store_floats_it():
    state = _state()
    run_reference(_loop(Assign("s", Num(3)), Store("y", 0, Num(3))), state, 1)
    assert repr(state.scalars["s"]) == "3"
    assert repr(state.arrays["y"][0]) == "3.0"
