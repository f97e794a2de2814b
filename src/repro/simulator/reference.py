"""Sequential reference executor: the loop AST, compiled once per call.

This is the oracle for the end-to-end check.  It shares no code with the
lowering pass or the pipelined executor — it follows the original AST one
iteration at a time, so a bug anywhere in IF-conversion, lowering,
dependence analysis, scheduling or pipelined execution shows up as a state
mismatch.

Nothing the AST decides depends on the iteration, so :func:`run_reference`
first compiles the body and the WHILE condition into one closure per
expression, condition and statement, each a function of the iteration
``i``.  Operators, intrinsics and comparisons are resolved once.  An array
reference whose ``i + offset`` stays inside the store's halo for every
``i < n`` indexes its cells at a constant shift; every other access goes
through the bounds-checked :class:`~repro.simulator.state.ArrayStore`, as
before.  The closures keep the semantics of the AST walk they replace:
operands evaluate left before right, ``and``/``or`` evaluate both sides,
a ``Store``'s value comes before its target, ``Assign`` keeps the raw value
while ``Store`` stores its ``float``, and a bad node raises only when it is
evaluated, with the same message.  That walker is now the test oracle in
``tests/oracles/reference.py``.  The closures are plain Python functions,
not generated source, so each node's semantics can be read here.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, List, Optional

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


def _divide(left, right):
    # IEEE semantics (the hardware's): x/0 is inf/NaN, not a trap.
    if right == 0.0:
        return math.nan if left == 0.0 else math.copysign(math.inf, left)
    return left / right


def _sqrt(value):
    # IEEE semantics: sqrt of a negative value is NaN, not a trap.
    return math.sqrt(value) if value >= 0.0 else math.nan


def _and(left, right):
    return left and right


def _or(left, right):
    return left or right


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}
#: Intrinsics of the first argument value.
_UNARY = {"sqrt": _sqrt, "abs": abs, "neg": operator.neg}
#: Intrinsics of the list of argument values.
_VARIADIC = {"min": min, "max": max}
_COMPARE = {
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    ">=": operator.ge,
}


def _fails(operands, error, message) -> Callable[[int], float]:
    """A node that raises ``error(message)`` once its operands are evaluated."""

    def fail(i):
        for operand in operands:
            operand(i)
        raise error(message)

    return fail


class _Compiler:
    """Compiles AST nodes into closures over one state for ``n`` iterations."""

    def __init__(self, state: LoopState, n: int) -> None:
        self.arrays, self.scalars, self.n = state.arrays, state.scalars, n

    def _shift(self, name: str, offset: int) -> Optional[int]:
        """The cell position of ``i = 0`` when ``i + offset`` is inside
        array ``name`` for every ``i < n``; None when it is not."""
        array = self.arrays.get(name)
        if array is not None:
            at = offset + array.halo
            if 0 <= at <= len(array.cells()) - self.n:
                return at
        return None

    def expr(self, expr) -> Callable[[int], float]:
        if isinstance(expr, Num):
            value = expr.value
            return lambda i: value
        if isinstance(expr, Scalar):
            scalars, name = self.scalars, expr.name

            def scalar(i):
                try:
                    return scalars[name]
                except KeyError:
                    raise KeyError(
                        f"scalar {name!r} read but absent from the state"
                    ) from None

            return scalar
        if isinstance(expr, IVar):
            return float
        arrays = self.arrays
        if isinstance(expr, ArrayRef):
            name, offset = expr.array, expr.offset
            at = self._shift(name, offset)
            if at is not None:
                cells = arrays[name].cells()
                return lambda i: cells[i + at]
            return lambda i: arrays[name][i + offset]
        if isinstance(expr, IndirectRef):
            name, index = expr.array, self.expr(expr.index)

            def gather(i):
                position = int(index(i))
                return arrays[name][position]

            return gather
        if isinstance(expr, BinOp):
            left, right = self.expr(expr.left), self.expr(expr.right)
            fn = _ARITH.get(expr.op)
            if fn is None:
                return _fails(
                    (left, right), ValueError, f"unknown operator {expr.op!r}"
                )
            return lambda i: fn(left(i), right(i))
        if isinstance(expr, Call):
            args = [self.expr(arg) for arg in expr.args]
            if expr.fn in _UNARY:
                fn = _UNARY[expr.fn]
                if len(args) == 1:
                    (arg,) = args
                    return lambda i: fn(arg(i))
                return lambda i: fn([arg(i) for arg in args][0])
            if expr.fn in _VARIADIC:
                fn = _VARIADIC[expr.fn]
                return lambda i: fn([arg(i) for arg in args])
            return _fails(args, ValueError, f"unknown intrinsic {expr.fn!r}")

        def unknown(i):
            raise TypeError(f"cannot evaluate {expr!r}")

        return unknown

    def cond(self, cond) -> Callable[[int], bool]:
        if isinstance(cond, Compare):
            left, right = self.expr(cond.left), self.expr(cond.right)
            test = _COMPARE.get(cond.op)
            if test is None:
                return _fails((left, right), KeyError, cond.op)
            return lambda i: test(left(i), right(i))
        if isinstance(cond, BoolOp):
            left, right = self.cond(cond.left), self.cond(cond.right)
            combine = _and if cond.op == "and" else _or
            # Both sides are evaluated, as arguments, before combining.
            return lambda i: combine(left(i), right(i))
        if isinstance(cond, NotOp):
            operand = self.cond(cond.operand)
            return lambda i: not operand(i)

        def unknown(i):
            raise TypeError(f"cannot evaluate condition {cond!r}")

        return unknown

    def block(self, statements) -> List[Callable[[int], None]]:
        return [self.statement(statement) for statement in statements]

    def statement(self, statement) -> Callable[[int], None]:
        arrays = self.arrays
        if isinstance(statement, Assign):
            scalars, target = self.scalars, statement.target
            value = self.expr(statement.value)

            def assign(i):
                scalars[target] = value(i)

            return assign
        if isinstance(statement, Store):
            name, offset = statement.array, statement.offset
            value = self.expr(statement.value)
            at = self._shift(name, offset)
            if at is not None:
                cells = arrays[name].cells()

                def store(i):
                    cells[i + at] = float(value(i))

            else:

                def store(i):
                    arrays[name][i + offset] = value(i)

            return store
        if isinstance(statement, IndirectStore):
            name = statement.array
            index, value = self.expr(statement.index), self.expr(statement.value)

            def scatter(i):
                position = int(index(i))
                arrays[name][position] = value(i)

            return scatter
        if isinstance(statement, If):
            test = self.cond(statement.cond)
            then = self.block(statement.then_body)
            other = self.block(statement.else_body)

            def branch(i):
                for step in then if test(i) else other:
                    step(i)

            return branch

        def unknown(i):
            raise TypeError(f"cannot execute {statement!r}")

        return unknown


def run_reference(loop: Loop, state: LoopState, n: int) -> LoopState:
    """Execute up to ``n`` iterations sequentially (early exit for
    WHILE-loops), mutating and returning the state."""
    iterations = range(n)  # a negative n runs none; a non-int n raises here
    compiler = _Compiler(state, len(iterations))
    body = compiler.block(loop.body)
    alive = None
    if loop.while_cond is not None:
        alive = compiler.cond(loop.while_cond)
    for i in iterations:
        if alive is not None and not alive(i):
            break
        for step in body:
            step(i)
    return state
