"""JSON (de)serialization of dependence graphs and schedules.

Lets a downstream user persist compiled loops and schedules — e.g. to
cache a corpus, ship a reproducer, or diff two schedulers' output.  The
machine description itself is not serialized; deserialization takes the
machine (by reference) and re-validates opcodes against it, exactly as
graph construction does.

A schedule document is its graph plus the schedule *body* (II, issue
times, alternatives by name, the modulo flag).  :func:`schedule_body`
and :func:`bind_schedule` handle the body alone, for stores that
already hold the graph — the corpus engine's cache is keyed by graph
content, so it keeps only the body and binds it to the live graph.

Operand descriptors in ``attrs["operands"]`` survive the round trip
(JSON turns tuples into lists; loading restores them), so a reloaded
front-end graph still simulates.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.core.schedule import Schedule
from repro.ir.edges import DelayModel, DependenceKind
from repro.ir.graph import DependenceGraph, GraphError

_FORMAT = "repro.dependence-graph.v1"
_SCHEDULE_FORMAT = "repro.schedule.v1"


def _attrs_to_json(attrs: Dict[str, Any]) -> Dict[str, Any]:
    encoded = dict(attrs)
    operands = encoded.get("operands")
    if operands is not None:
        encoded["operands"] = [list(d) for d in operands]
    return encoded


def _attrs_from_json(attrs: Dict[str, Any]) -> Dict[str, Any]:
    decoded = dict(attrs)
    operands = decoded.get("operands")
    if operands is not None:
        decoded["operands"] = tuple(tuple(d) for d in operands)
    return decoded


def graph_to_dict(graph: DependenceGraph) -> Dict[str, Any]:
    """Serialize a sealed graph to a JSON-compatible dictionary."""
    if not graph.sealed:
        raise GraphError(f"graph {graph.name!r} must be sealed to serialize")
    operations = []
    for op in graph.real_operations():
        operations.append(
            {
                "opcode": op.opcode,
                "dest": op.dest,
                "srcs": list(op.srcs),
                "predicate": op.predicate,
                "attrs": _attrs_to_json(op.attrs),
            }
        )
    edges = []
    for edge in graph.edges:
        pred = graph.operation(edge.pred)
        succ = graph.operation(edge.succ)
        if pred.is_pseudo or succ.is_pseudo:
            continue  # seal() recreates the bracketing edges
        edges.append(
            {
                "pred": edge.pred,
                "succ": edge.succ,
                "kind": edge.kind.value,
                "distance": edge.distance,
                "delay": edge.delay,
            }
        )
    return {
        "format": _FORMAT,
        "name": graph.name,
        "delay_model": graph.delay_model.value,
        "operations": operations,
        "edges": edges,
    }


def graph_from_dict(data: Dict[str, Any], machine) -> DependenceGraph:
    """Rebuild a sealed graph from :func:`graph_to_dict` output.

    Real-operation indices are preserved (1..N in order), so serialized
    edge endpoints and ``operands`` descriptors remain valid.
    """
    if data.get("format") != _FORMAT:
        raise GraphError(
            f"not a serialized dependence graph: format "
            f"{data.get('format')!r}"
        )
    graph = DependenceGraph(
        machine,
        name=data["name"],
        delay_model=DelayModel(data["delay_model"]),
    )
    for record in data["operations"]:
        graph.add_operation(
            record["opcode"],
            dest=record["dest"],
            srcs=tuple(record["srcs"]),
            predicate=record["predicate"],
            **_attrs_from_json(record["attrs"]),
        )
    for record in data["edges"]:
        graph.add_edge(
            record["pred"],
            record["succ"],
            DependenceKind(record["kind"]),
            distance=record["distance"],
            delay=record["delay"],
        )
    return graph.seal()


def graph_to_json(graph: DependenceGraph, indent: Optional[int] = None) -> str:
    """Serialize a sealed graph to JSON text."""
    return json.dumps(graph_to_dict(graph), indent=indent)


def graph_from_json(text: str, machine) -> DependenceGraph:
    """Rebuild a sealed graph from JSON text (see :func:`graph_from_dict`)."""
    return graph_from_dict(json.loads(text), machine)


def schedule_body(schedule: Schedule) -> Dict[str, Any]:
    """The schedule without its graph: II, times, alternatives by name."""
    alternatives = {}
    for op, alt in schedule.alternatives.items():
        alternatives[str(op)] = None if alt is None else alt.name
    return {
        "ii": schedule.ii,
        "times": {str(op): t for op, t in schedule.times.items()},
        "alternatives": alternatives,
        "modulo": schedule.modulo,
    }


def bind_schedule(
    body: Dict[str, Any], graph: DependenceGraph, machine
) -> Schedule:
    """Rebuild a :func:`schedule_body` as a schedule of ``graph``.

    Alternatives are looked up by name in ``machine``; a name the
    machine does not define for the operation's opcode raises
    :class:`GraphError`.
    """
    times = {int(op): t for op, t in body["times"].items()}
    alternatives = {}
    for op_text, alt_name in body["alternatives"].items():
        op = int(op_text)
        if alt_name is None:
            alternatives[op] = None
            continue
        opcode = machine.opcode(graph.operation(op).opcode)
        matches = [a for a in opcode.alternatives if a.name == alt_name]
        if not matches:
            raise GraphError(
                f"operation {op}: machine {machine.name!r} has no "
                f"alternative {alt_name!r} for opcode "
                f"{graph.operation(op).opcode!r}"
            )
        alternatives[op] = matches[0]
    # Documents written before the flag existed are all modulo schedules.
    return Schedule(
        graph, body["ii"], times, alternatives, modulo=body.get("modulo", True)
    )


def schedule_to_dict(schedule: Schedule, machine) -> Dict[str, Any]:
    """Serialize a schedule and its graph; alternatives are stored by name."""
    return {
        "format": _SCHEDULE_FORMAT,
        "graph": graph_to_dict(schedule.graph),
        **schedule_body(schedule),
    }


def schedule_from_dict(data: Dict[str, Any], machine) -> Schedule:
    """Rebuild a schedule (and its graph) from serialized form."""
    if data.get("format") != _SCHEDULE_FORMAT:
        raise GraphError(
            f"not a serialized schedule: format {data.get('format')!r}"
        )
    return bind_schedule(data, graph_from_dict(data["graph"], machine), machine)


def schedule_to_json(schedule: Schedule, machine, indent: Optional[int] = None) -> str:
    """Serialize a schedule (and its graph) to JSON text."""
    return json.dumps(schedule_to_dict(schedule, machine), indent=indent)


def schedule_from_json(text: str, machine) -> Schedule:
    """Rebuild a schedule from JSON text (see :func:`schedule_from_dict`)."""
    return schedule_from_dict(json.loads(text), machine)
