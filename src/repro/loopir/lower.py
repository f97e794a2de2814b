"""Lowering: guarded statements to a dependence graph in DSA form.

This pass performs, in one walk over the IF-converted body, the
pre-scheduling transformations the paper assumes of its input:

* **Dynamic single assignment.**  Every operation writes a fresh virtual
  register, so scalar anti- and output dependences never arise (the paper's
  EVR assumption).  A scalar read before any write in the body either
  refers to the previous iteration's last write (a loop-carried flow
  dependence at distance 1) or, if the scalar is never written, to a
  loop-invariant live-in.
* **Address recurrences.**  Each array referenced gets one address
  register, incremented once per iteration by an ``aadd`` whose only
  dependence is on itself at distance 1 — the paper notes that 93% of all
  SCCs are exactly this trivial address increment.  References use the
  previous iteration's value (rotating-register style), with the element
  offset folded into the memory operation.
* **Memory dependence analysis.**  Array subscripts are ``i + c`` with
  constant ``c``, so every pair of references to the same array yields an
  exact dependence distance ``|c1 - c2|``: flow (store to load), anti
  (load to store) and output (store to store) edges are added with Table-1
  delays.  Scalar dependences need no analysis thanks to DSA.
* **Predicate materialization.**  Guards become ``cmp_*``/``pand``/
  ``por``/``pnot`` operations.  Guarded stores stay predicated; guarded
  scalar assignments compute speculatively and merge with ``select``.
* **Loop control.**  One ``brtop`` with a distance-1 self-dependence
  closes the loop.

Every operation carries ``attrs['operands']`` — a tuple of descriptors
telling the simulator where each input value comes from::

    ("op", producer_index, distance)   value of a producer, d iterations back
    ("const", value)                   literal
    ("livein", name)                   loop-invariant scalar
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.ir.edges import DelayModel, DependenceKind
from repro.ir.graph import DependenceGraph
from repro.loopir.ast import (
    ArrayRef,
    Assign,
    BinOp,
    BoolOp,
    Call,
    Compare,
    Cond,
    Expr,
    IndirectRef,
    IndirectStore,
    IVar,
    Loop,
    NotOp,
    Num,
    Scalar,
    Store,
)
from repro.loopir.ifconv import CondEvaluation, PredicatedStatement

_BINOP_OPCODE = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}
_CALL_OPCODE = {
    "sqrt": "fsqrt",
    "abs": "fabs",
    "neg": "fneg",
    "min": "fmin",
    "max": "fmax",
}
_COMPARE_OPCODE = {
    "<": "cmp_lt",
    "<=": "cmp_le",
    "==": "cmp_eq",
    "!=": "cmp_ne",
    ">": "cmp_gt",
    ">=": "cmp_ge",
}


class LoweringError(ValueError):
    """Raised when the AST cannot be lowered for the given machine."""


@dataclass
class LoweredLoop:
    """The compiled loop: graph plus everything the back end needs.

    Attributes
    ----------
    loop:
        The original AST — the simulator's independent reference oracle.
    graph:
        The sealed dependence graph.
    machine:
        The machine description used for latencies/opcodes.
    statements:
        The IF-converted statement list the graph was lowered from.
    live_in_scalars:
        Scalars whose value enters the loop from outside (loop invariants
        and the initial values of loop-carried scalars).
    carried_defs:
        For each loop-carried scalar, the operation whose value feeds the
        next iteration (its final definition in the body).
    final_defs:
        For *every* scalar assigned in the body, its final defining
        operation — what the simulator writes back after the last
        iteration.
    alive_op:
        For WHILE-loops, the operation computing the iteration's *alive*
        predicate (``alive[k] = alive[k-1] and cond[k]``); None for plain
        DO-loops.  Every store is guarded by it, and the simulator uses
        its instance values to find the exit iteration.
    """

    loop: Loop
    graph: DependenceGraph
    machine: object
    statements: List[PredicatedStatement]
    live_in_scalars: Set[str]
    carried_defs: Dict[str, int]
    final_defs: Dict[str, int] = field(default_factory=dict)
    alive_op: Optional[int] = None

    @property
    def arrays(self) -> List[str]:
        """All array names the loop touches (index arrays included)."""
        return self.loop.arrays()


@dataclass
class _MemRef:
    """One memory operation, for the dependence analysis.

    ``offset`` is None for indirect (unanalyzable-subscript) references.
    """

    op: int
    is_store: bool
    array: str
    offset: Optional[int]
    position: int  # program order


#: Opcodes safe to value-number: pure functions of their operands.
_PURE_OPCODES = frozenset({
    "fadd", "fsub", "fmul", "fdiv", "fsqrt", "fabs", "fneg", "fmin",
    "fmax", "select", "copy", "limm", "cmp_lt", "cmp_le", "cmp_eq",
    "cmp_ne", "cmp_gt", "cmp_ge", "pand", "por", "pnot",
})


class _Lowerer:
    def __init__(
        self, loop: Loop, statements, machine, delay_model, optimize=True
    ) -> None:
        self.loop = loop
        self.statements = statements
        self.machine = machine
        self.optimize = optimize
        self.graph = DependenceGraph(
            machine, name=loop.name, delay_model=delay_model
        )
        self.current_def: Dict[str, int] = {}
        self.pending_carried: List[Tuple[int, int, str]] = []  # (op, pos, scalar)
        self.live_ins: Set[str] = set()
        self.addr_ops: Dict[str, int] = {}
        self.ivar_op: Optional[int] = None
        self.cond_cache: Dict[Cond, Tuple[int, frozenset]] = {}
        # pand/por/pnot keyed by the predicates they combine, never by
        # node: a guard over a pinned condition means that condition's
        # value at its own If, which a structurally equal guard of
        # another If does not share.
        self.combined_conds: Dict[tuple, int] = {}
        # Conditions evaluated at their If's program point, keyed by node
        # identity (IF-conversion reuses the same node in every guard
        # that refers to that branch).  Pinned values are never
        # invalidated: that is the point — guards must see the state at
        # the branch, not after the then-body's writes.
        self.pinned_conds: Dict[int, int] = {}
        self.mem_refs: List[_MemRef] = []
        self.fresh = 0
        self.alive_op: Optional[int] = None
        # Value numbering (common subexpression elimination): pure ops
        # keyed by (opcode, operands); loads keyed per (array, offset)
        # and invalidated by stores to the array.  The paper's input had
        # load-store elimination applied before scheduling (Section 1).
        self.pure_cache: Dict[tuple, int] = {}
        self.load_cache: Dict[Tuple[str, int], int] = {}

    # -- small helpers ---------------------------------------------------

    def _fresh_name(self, base: str) -> str:
        self.fresh += 1
        return f"{base}.{self.fresh}"

    def _emit(
        self,
        opcode: str,
        dest: Optional[str],
        operands: List[tuple],
        predicate: Optional[str] = None,
        **attrs,
    ) -> int:
        """Add an operation, wire its operand flow edges, set descriptors.

        Pure operations are value-numbered when optimization is on: an
        identical (opcode, operands) pair returns the existing operation
        instead of a duplicate.  ``carried`` placeholder operands are
        safe to share — they denote "this scalar's previous-iteration
        value", the same value wherever it is read.
        """
        if not self.machine.has_opcode(opcode):
            raise LoweringError(
                f"machine {self.machine.name!r} lacks opcode {opcode!r} "
                f"needed by loop {self.loop.name!r}"
            )
        key = None
        if (
            self.optimize
            and opcode in _PURE_OPCODES
            and predicate is None
            and "role" not in attrs
        ):
            key = (opcode, tuple(operands))
            cached = self.pure_cache.get(key)
            if cached is None and self.machine.opcode(opcode).commutative:
                cached = self.pure_cache.get(
                    (opcode, tuple(reversed(operands)))
                )
            if cached is not None:
                return cached
        srcs = []
        for descriptor in operands:
            if descriptor[0] == "op":
                srcs.append(self.graph.operation(descriptor[1]).dest or "?")
            elif descriptor[0] == "livein":
                srcs.append(descriptor[1])
        op = self.graph.add_operation(
            opcode,
            dest=dest,
            srcs=tuple(srcs),
            predicate=predicate,
            operands=tuple(operands),
            **attrs,
        )
        for descriptor in operands:
            if descriptor[0] == "op":
                self.graph.add_edge(
                    descriptor[1], op, DependenceKind.FLOW, distance=descriptor[2]
                )
            elif descriptor[0] == "carried":
                self.pending_carried.append(
                    (op, len(self.pending_carried), descriptor[1])
                )
        if key is not None:
            self.pure_cache[key] = op
        return op

    def _invalidate_conditions(self, name: str) -> None:
        """Drop cached predicates that depend on a just-written location.

        ``name`` is either a scalar name or an ``"array:x"`` marker; cached
        conditions record both, so a store to ``x`` invalidates any cached
        predicate whose comparison loaded from ``x``.
        """
        stale = [
            cond
            for cond, (_, names) in self.cond_cache.items()
            if name in names
        ]
        for cond in stale:
            del self.cond_cache[cond]

    # -- scalar and array reads ------------------------------------------

    def _read_scalar(self, name: str) -> tuple:
        """Descriptor for reading scalar ``name`` at this program point."""
        if name in self.current_def:
            return ("op", self.current_def[name], 0)
        # Either loop-carried (a later definition exists) or live-in;
        # decided after the walk, when all definitions are known.
        return ("carried", name)

    def _address_descriptor(self, array: str) -> tuple:
        """Descriptor for an array's address register (previous iteration)."""
        if array not in self.addr_ops:
            # The increment op references its own previous value, so the
            # operand descriptor is patched right after creation.
            op = self._emit(
                "aadd",
                dest=f"&{array}",
                operands=[("const", 1.0)],
                role="address",
                array=array,
                init=0.0,
            )
            operation = self.graph.operation(op)
            operation.attrs["operands"] = (("op", op, 1), ("const", 1.0))
            self.graph.add_edge(op, op, DependenceKind.FLOW, distance=1)
            self.addr_ops[array] = op
        return ("op", self.addr_ops[array], 1)

    def _ivar_descriptor(self) -> tuple:
        """Descriptor for the induction variable used as a value."""
        if self.ivar_op is None:
            op = self._emit(
                "aadd",
                dest=self.loop.ivar,
                operands=[("const", 1.0)],
                role="ivar",
                init=0.0,
            )
            operation = self.graph.operation(op)
            operation.attrs["operands"] = (("op", op, 1), ("const", 1.0))
            self.graph.add_edge(op, op, DependenceKind.FLOW, distance=1)
            self.ivar_op = op
        return ("op", self.ivar_op, 1)

    # -- expressions -------------------------------------------------------

    def _lower_expr(self, expr: Expr) -> tuple:
        """Lower an expression; returns the descriptor of its value."""
        if isinstance(expr, Num):
            return ("const", expr.value)
        if isinstance(expr, Scalar):
            return self._read_scalar(expr.name)
        if isinstance(expr, IVar):
            return self._ivar_descriptor()
        if isinstance(expr, ArrayRef):
            if self.optimize:
                cached = self.load_cache.get((expr.array, expr.offset))
                if cached is not None:
                    return ("op", cached, 0)
            address = self._address_descriptor(expr.array)
            op = self._emit(
                "load",
                dest=self._fresh_name(expr.array),
                operands=[address],
                array=expr.array,
                offset=expr.offset,
            )
            self.mem_refs.append(
                _MemRef(op, False, expr.array, expr.offset, len(self.mem_refs))
            )
            self.load_cache[(expr.array, expr.offset)] = op
            return ("op", op, 0)
        if isinstance(expr, IndirectRef):
            index_value = self._lower_expr(expr.index)
            address = self._address_descriptor(expr.array)
            op = self._emit(
                "load",
                dest=self._fresh_name(expr.array),
                operands=[address, index_value],
                array=expr.array,
                offset=None,
                indirect=True,
                index_array=expr.index.array,
            )
            self.mem_refs.append(
                _MemRef(op, False, expr.array, None, len(self.mem_refs))
            )
            return ("op", op, 0)
        if isinstance(expr, BinOp):
            left = self._lower_expr(expr.left)
            right = self._lower_expr(expr.right)
            opcode = _BINOP_OPCODE[expr.op]
            if left[0] == "const" and right[0] == "const":
                return ("const", _fold(expr.op, left[1], right[1]))
            op = self._emit(opcode, self._fresh_name("t"), [left, right])
            return ("op", op, 0)
        if isinstance(expr, Call):
            args = [self._lower_expr(a) for a in expr.args]
            op = self._emit(_CALL_OPCODE[expr.fn], self._fresh_name("t"), args)
            return ("op", op, 0)
        raise LoweringError(f"cannot lower expression {expr!r}")

    # -- predicates ----------------------------------------------------------

    def _lower_cond(self, cond: Cond) -> int:
        """Lower a predicate expression; returns the defining op index."""
        pinned = self.pinned_conds.get(id(cond))
        if pinned is not None:
            return pinned
        if isinstance(cond, Compare):
            cached = self.cond_cache.get(cond)
            if cached is not None:
                return cached[0]
            left = self._lower_expr(cond.left)
            right = self._lower_expr(cond.right)
            op = self._emit(
                _COMPARE_OPCODE[cond.op], self._fresh_name("p"), [left, right]
            )
            self.cond_cache[cond] = (op, frozenset(_cond_scalars(cond)))
            return op
        if isinstance(cond, BoolOp):
            key = (
                "pand" if cond.op == "and" else "por",
                self._lower_cond(cond.left),
                self._lower_cond(cond.right),
            )
        elif isinstance(cond, NotOp):
            key = ("pnot", self._lower_cond(cond.operand))
        else:
            raise LoweringError(f"cannot lower condition {cond!r}")
        op = self.combined_conds.get(key)
        if op is None:
            op = self._emit(
                key[0], self._fresh_name("p"), [("op", p, 0) for p in key[1:]]
            )
            self.combined_conds[key] = op
        return op

    # -- statements ------------------------------------------------------------

    def _lower_statement(self, guarded: PredicatedStatement) -> None:
        statement = guarded.statement
        if isinstance(statement, Assign):
            value = self._lower_expr(statement.value)
            if guarded.guard is None:
                if value[0] != "op" or value[2] != 0:
                    # Constants, pass-throughs, and values read at a
                    # non-zero iteration distance (e.g. ``s = i``, whose
                    # producer is the induction recurrence read at
                    # distance 1) need a defining operation of their own:
                    # aliasing the scalar to the producer would lose the
                    # read distance for later uses and the final
                    # write-back.
                    opcode = "limm" if value[0] == "const" else "copy"
                    value = (
                        "op",
                        self._emit(opcode, statement.target, [value]),
                        0,
                    )
                self.current_def[statement.target] = value[1]
            else:
                predicate = self._lower_cond(guarded.guard)
                old = self._read_scalar(statement.target)
                merged = self._emit(
                    "select",
                    self._fresh_name(statement.target),
                    [("op", predicate, 0), value, old],
                )
                self.current_def[statement.target] = merged
            self._invalidate_conditions(statement.target)
        elif isinstance(statement, (Store, IndirectStore)):
            indirect = isinstance(statement, IndirectStore)
            value = self._lower_expr(statement.value)
            address = self._address_descriptor(statement.array)
            operands = [address, value]
            attrs = {
                "array": statement.array,
                "predicated": guarded.guard is not None,
            }
            if indirect:
                operands.append(self._lower_expr(statement.index))
                attrs["offset"] = None
                attrs["indirect"] = True
                attrs["index_array"] = statement.index.array
            else:
                attrs["offset"] = statement.offset
            predicate = None
            if guarded.guard is not None:
                predicate = self._lower_cond(guarded.guard)
            if self.alive_op is not None:
                # WHILE-loop: stores beyond the exit iteration execute
                # speculatively in the pipeline and must not commit.
                if predicate is None:
                    predicate = self.alive_op
                else:
                    predicate = self._emit(
                        "pand",
                        self._fresh_name("p"),
                        [("op", self.alive_op, 0), ("op", predicate, 0)],
                    )
            predicate_name = None
            if predicate is not None:
                predicate_name = self.graph.operation(predicate).dest
                operands.append(("op", predicate, 0))
                attrs["predicated"] = True
            op = self._emit(
                "store",
                dest=None,
                operands=operands,
                predicate=predicate_name,
                **attrs,
            )
            self.mem_refs.append(
                _MemRef(
                    op,
                    True,
                    statement.array,
                    attrs["offset"],
                    len(self.mem_refs),
                )
            )
            self._invalidate_conditions(f"array:{statement.array}")
            # A store kills cached loads of the array: a later read of
            # the same element must see the new value through a fresh
            # load (with its flow dependence on this store).
            for key in [
                k for k in self.load_cache if k[0] == statement.array
            ]:
                del self.load_cache[key]
        else:
            raise LoweringError(f"cannot lower statement {statement!r}")

    # -- memory dependence analysis ------------------------------------------

    def _add_memory_edges(self) -> None:
        for ref in self.mem_refs:
            if ref.is_store and ref.offset is None:
                # A scatter may hit the same element in consecutive
                # iterations: order it against itself.
                self._memory_edge(ref, ref, 1)
        for first in self.mem_refs:
            for second in self.mem_refs:
                if second.position <= first.position:
                    continue
                if first.array != second.array:
                    continue
                if not (first.is_store or second.is_store):
                    continue
                self._memory_pair(first, second)

    def _memory_pair(self, first: _MemRef, second: _MemRef) -> None:
        """Add the dependence between two references (first precedes second
        in program order) to the same array."""
        if first.offset is None or second.offset is None:
            # At least one subscript is unanalyzable: serialize the pair
            # consistently with sequential order — program order within
            # the iteration, and the later reference before the earlier
            # one of the *next* iteration.  Transitively this orders every
            # conflicting dynamic instance.
            self._memory_edge(first, second, 0)
            self._memory_edge(second, first, 1)
            return
        d = first.offset - second.offset
        if d > 0:
            # first@j and second@(j+d) touch the same element.
            self._memory_edge(first, second, d)
        elif d < 0:
            # second@(j+d), d<0, i.e. second of an *earlier* iteration
            # touches what first touches: dependence runs second -> first.
            self._memory_edge(second, first, -d)
        else:
            self._memory_edge(first, second, 0)

    def _memory_edge(self, src: _MemRef, dst: _MemRef, distance: int) -> None:
        if src.op == dst.op and distance == 0:
            return
        if src.is_store and dst.is_store:
            kind = DependenceKind.OUTPUT
        elif src.is_store:
            kind = DependenceKind.FLOW
        else:
            kind = DependenceKind.ANTI
        if src.op == dst.op and kind is not DependenceKind.OUTPUT:
            return
        self.graph.add_edge(src.op, dst.op, kind, distance=distance)

    # -- carried-scalar resolution ----------------------------------------------

    def _resolve_carried(self) -> Dict[str, int]:
        # First pick each carried scalar's defining operation.  Two names
        # may alias the same op (a pass-through assignment like ``s = u``,
        # or value numbering merging identical expressions); each then
        # needs a *private* defining copy, because the simulator maps the
        # op's iteration -1 instance to exactly one scalar's initial
        # value.
        carried: Dict[str, int] = {}
        claimed: Dict[int, str] = {}
        for name in sorted({n for _, _, n in self.pending_carried}):
            final_def = self.current_def.get(name)
            if final_def is None:
                continue
            if final_def in claimed:
                private = self._emit(
                    "copy",
                    f"{name}.carried",
                    [("op", final_def, 0)],
                    role="carried_copy",
                )
                final_def = private
            claimed[final_def] = name
            carried[name] = final_def

        for reader, _, name in self.pending_carried:
            operation = self.graph.operation(reader)
            final_def = carried.get(name)
            new_operands = []
            for descriptor in operation.attrs["operands"]:
                if descriptor != ("carried", name):
                    new_operands.append(descriptor)
                    continue
                if final_def is None:
                    self.live_ins.add(name)
                    new_operands.append(("livein", name))
                else:
                    self.live_ins.add(name)  # its pre-loop initial value
                    new_operands.append(("op", final_def, 1))
                    self.graph.add_edge(
                        final_def, reader, DependenceKind.FLOW, distance=1
                    )
            operation.attrs["operands"] = tuple(new_operands)
        return carried

    # -- driver ---------------------------------------------------------------------

    def _lower_while_condition(self) -> None:
        """alive[k] = alive[k-1] and cond[k], with alive[-1] = True.

        The condition is lowered first, so its scalar reads resolve to
        the previous iteration's values (exactly what the sequential
        semantics evaluate at the top of iteration k).
        """
        cond = self._lower_cond(self.loop.while_cond)
        alive = self._emit(
            "pand",
            self._fresh_name("alive"),
            [("op", cond, 0)],
            role="alive",
        )
        operation = self.graph.operation(alive)
        operation.attrs["operands"] = (("op", cond, 0), ("op", alive, 1))
        self.graph.add_edge(alive, alive, DependenceKind.FLOW, distance=1)
        self.alive_op = alive

    def run(self) -> LoweredLoop:
        if self.loop.while_cond is not None:
            self._lower_while_condition()
        for item in self.statements:
            if isinstance(item, CondEvaluation):
                # Materialize the branch predicate at the If's position
                # and pin it: later guard references (including the
                # negation in the else-branch) must reuse this value even
                # if the then-body redefines scalars the condition reads.
                self.pinned_conds[id(item.cond)] = self._lower_cond(item.cond)
                continue
            self._lower_statement(item)
        self._add_memory_edges()
        # Loop control: the loop-closing branch, sequential with itself.
        self._emit("brtop", dest=None, operands=[], role="loop_control")
        brtop = self.graph.n_ops - 1
        self.graph.add_edge(brtop, brtop, DependenceKind.FLOW, distance=1, delay=1)
        carried = self._resolve_carried()
        self.graph.seal()
        return LoweredLoop(
            loop=self.loop,
            graph=self.graph,
            machine=self.machine,
            statements=self.statements,
            live_in_scalars=self.live_ins,
            carried_defs=carried,
            final_defs=dict(self.current_def),
            alive_op=self.alive_op,
        )


def _fold(op: str, left: float, right: float) -> float:
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return left / right
    raise LoweringError(f"unknown operator {op!r}")


def _cond_scalars(cond) -> Set[str]:
    """Names a condition depends on, for cache invalidation.

    Scalars appear by name; array loads appear as ``"array:x"`` markers so
    that stores to ``x`` can invalidate the cached predicate.
    """
    names: Set[str] = set()

    def walk_expr(expr) -> None:
        if isinstance(expr, Scalar):
            names.add(expr.name)
        elif isinstance(expr, ArrayRef):
            names.add(f"array:{expr.array}")
        elif isinstance(expr, IndirectRef):
            names.add(f"array:{expr.array}")
            names.add(f"array:{expr.index.array}")
        elif isinstance(expr, (BinOp, Compare)):
            walk_expr(expr.left)
            walk_expr(expr.right)
        elif isinstance(expr, Call):
            for arg in expr.args:
                walk_expr(arg)

    def walk_cond(node) -> None:
        if isinstance(node, Compare):
            walk_expr(node.left)
            walk_expr(node.right)
        elif isinstance(node, BoolOp):
            walk_cond(node.left)
            walk_cond(node.right)
        elif isinstance(node, NotOp):
            walk_cond(node.operand)

    walk_cond(cond)
    return names


def lower_loop(
    loop: Loop,
    statements,
    machine,
    delay_model: DelayModel = DelayModel.VLIW,
    optimize: bool = True,
) -> LoweredLoop:
    """Lower IF-converted statements to a sealed dependence graph.

    With ``optimize=True`` (the default, matching the paper's
    load-store-eliminated input) identical pure expressions and repeated
    loads of the same element are value-numbered away.
    """
    return _Lowerer(loop, statements, machine, delay_model, optimize).run()
