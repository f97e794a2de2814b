"""The AST tree-walker: a test oracle for ``repro.simulator.reference``.

This is the sequential reference the simulator shipped before it compiled
the loop into closures, kept verbatim.  It re-walks the AST on every
iteration: an ``isinstance`` chain per node, a dict of all six
comparisons per ``Compare``, a bounds-checked ``ArrayStore`` access per
array reference.  It imports only the AST and the state, like the
compiled reference, so the two must reach exactly the same outcome: the
same final arrays and scalars, or the same exception with the same
message and the same partial state.

``tests/simulator/test_reference_differential.py`` drives both on every
DSL kernel, on WHILE and indirect loops, on random programs and on
hand-built ASTs the parser cannot produce.
"""

from __future__ import annotations

import math
from typing import Union

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
from repro.simulator.state import LoopState


def _eval_expr(expr, state: LoopState, i: int) -> float:
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Scalar):
        try:
            return state.scalars[expr.name]
        except KeyError:
            raise KeyError(
                f"scalar {expr.name!r} read but absent from the state"
            ) from None
    if isinstance(expr, IVar):
        return float(i)
    if isinstance(expr, ArrayRef):
        return state.arrays[expr.array][i + expr.offset]
    if isinstance(expr, IndirectRef):
        index = int(_eval_expr(expr.index, state, i))
        return state.arrays[expr.array][index]
    if isinstance(expr, BinOp):
        left = _eval_expr(expr.left, state, i)
        right = _eval_expr(expr.right, state, i)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            # IEEE semantics (the hardware's): x/0 is inf/NaN, not a trap.
            if right == 0.0:
                return math.nan if left == 0.0 else math.copysign(math.inf, left)
            return left / right
        raise ValueError(f"unknown operator {expr.op!r}")
    if isinstance(expr, Call):
        args = [_eval_expr(a, state, i) for a in expr.args]
        if expr.fn == "sqrt":
            # IEEE semantics: sqrt of a negative value is NaN, not a trap.
            return math.sqrt(args[0]) if args[0] >= 0.0 else math.nan
        if expr.fn == "abs":
            return abs(args[0])
        if expr.fn == "neg":
            return -args[0]
        if expr.fn == "min":
            return min(args)
        if expr.fn == "max":
            return max(args)
        raise ValueError(f"unknown intrinsic {expr.fn!r}")
    raise TypeError(f"cannot evaluate {expr!r}")


def _eval_cond(cond, state: LoopState, i: int) -> bool:
    if isinstance(cond, Compare):
        left = _eval_expr(cond.left, state, i)
        right = _eval_expr(cond.right, state, i)
        return {
            "<": left < right,
            "<=": left <= right,
            "==": left == right,
            "!=": left != right,
            ">": left > right,
            ">=": left >= right,
        }[cond.op]
    if isinstance(cond, BoolOp):
        left = _eval_cond(cond.left, state, i)
        right = _eval_cond(cond.right, state, i)
        return (left and right) if cond.op == "and" else (left or right)
    if isinstance(cond, NotOp):
        return not _eval_cond(cond.operand, state, i)
    raise TypeError(f"cannot evaluate condition {cond!r}")


def _run_statement(statement, state: LoopState, i: int) -> None:
    if isinstance(statement, Assign):
        state.scalars[statement.target] = _eval_expr(statement.value, state, i)
    elif isinstance(statement, Store):
        state.arrays[statement.array][i + statement.offset] = _eval_expr(
            statement.value, state, i
        )
    elif isinstance(statement, IndirectStore):
        index = int(_eval_expr(statement.index, state, i))
        state.arrays[statement.array][index] = _eval_expr(
            statement.value, state, i
        )
    elif isinstance(statement, If):
        branch = (
            statement.then_body
            if _eval_cond(statement.cond, state, i)
            else statement.else_body
        )
        for inner in branch:
            _run_statement(inner, state, i)
    else:
        raise TypeError(f"cannot execute {statement!r}")


def run_reference(loop: Loop, state: LoopState, n: int) -> LoopState:
    """Execute up to ``n`` iterations sequentially (early exit for
    WHILE-loops), mutating and returning the state."""
    for i in range(n):
        if loop.while_cond is not None and not _eval_cond(
            loop.while_cond, state, i
        ):
            break
        for statement in loop.body:
            _run_statement(statement, state, i)
    return state
