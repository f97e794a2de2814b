"""Outside-in tracer: spans around the calls into each layer's functions.

No program file changes.  :meth:`Tracer.install` rebinds every
``repro.*`` module attribute that holds one of :data:`LAYER_FUNCTIONS`
to a wrapper, so calls made through any module's globals (the engine
calls ``compute_mii`` and ``modulo_schedule`` through its own, the
scheduler calls ``height_r`` through its own) are seen.  Functions that
no longer exist are skipped, so a change that deletes one still runs.

A span records its name, its parent span, the loop it belongs to, its
start and end, the growth of the process's peak RSS (``ru_maxrss``)
while it ran, and whether it raised.  Spans stay in memory; a layer's
self time is its duration minus the durations of its child spans.
Only the process that installed the tracer records: forked pool
workers call straight through.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import sys
import time
from typing import Dict, List, Optional

#: (span name, defining module, function name).
LAYER_FUNCTIONS = (
    ("bound", "repro.core.mindist", "schedule_length_lower_bound"),
    ("list_sl", "repro.baselines.list_scheduler", "list_schedule_length"),
    ("mii", "repro.core.mii", "compute_mii"),
    ("scc", "repro.core.scc", "shared_components"),
    ("resmii", "repro.core.mii", "res_mii"),
    ("recmii", "repro.core.mii", "rec_mii"),
    ("ims", "repro.core.scheduler", "modulo_schedule"),
    ("heightr", "repro.core.heights", "height_r"),
    ("check", "repro.check.validate", "check_schedule"),
    ("codegen", "repro.codegen.emit", "emit_pipelined_code"),
    ("sim", "repro.simulator.check", "check_equivalence"),
    ("lower", "repro.loopir", "compile_loop_full"),
    ("synth", "repro.workloads.synthetic", "synthetic_graph"),
    ("key", "repro.analysis.engine", "cache_key"),
    ("encode", "repro.analysis.engine", "evaluation_to_dict"),
    ("decode", "repro.analysis.engine", "evaluation_from_dict"),
)

# Span record layout (lists are cheaper than objects on the hot path).
NAME, PARENT, LOOP, START, END, RSS_KB, OK, EXTRA = range(8)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def loop_name(args) -> Optional[str]:
    """The loop a call is about: the name of the first argument that is,
    or leads through ``.graph``/``.loop`` to, a dependence graph."""
    for value in args:
        for _ in range(3):
            if hasattr(value, "succ_edges"):
                name = getattr(value, "name", None)
                return name if isinstance(name, str) else None
            inner = getattr(value, "graph", None)
            if inner is None:
                inner = getattr(value, "loop", None)
            if inner is None:
                break
            value = inner
    return None


def _code_size(args, result):
    """(code size in ops, real ops) of one ``emit_pipelined_code`` call."""
    n_real = args[0].n_real_ops
    return [result.code_size_ops(n_real), n_real]


#: Extra facts taken from a call's arguments and result, by span name.
RESULT_HOOKS = {"codegen": _code_size}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._saved: List[tuple] = []
        self._pid = os.getpid()

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Rebind every ``repro.*`` binding of the layer functions."""
        if self._saved:
            return
        wrappers: Dict[int, object] = {}
        for span, module_name, attr in LAYER_FUNCTIONS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            function = getattr(module, attr, None)
            if callable(function):
                wrappers[id(function)] = self._wrap(span, function)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved = []

    def take(self) -> List[list]:
        """The spans recorded since the last call."""
        spans, self.spans = self.spans, []
        return spans

    # -- recording -----------------------------------------------------

    def _wrap(self, span_name: str, function):
        hook = RESULT_HOOKS.get(span_name)
        stack = self._stack
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return function(*args, **kwargs)
            spans = tracer.spans
            parent = stack[-1] if stack else -1
            loop = loop_name(args)
            if loop is None and parent >= 0:
                loop = spans[parent][LOOP]
            record = [span_name, parent, loop, 0.0, 0.0, 0, True, None]
            stack.append(len(spans))
            spans.append(record)
            rss = _maxrss_kb()
            record[START] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                record[OK] = False
                raise
            finally:
                record[END] = time.perf_counter()
                record[RSS_KB] = _maxrss_kb() - rss
                stack.pop()
            if hook is not None:
                try:
                    record[EXTRA] = hook(args, result)
                except Exception:  # a changed API costs the fact, not the run
                    pass
            return result

        return traced


class SpanTotals:
    """Per-name sums over a list of spans: time, self time, calls, RSS."""

    def __init__(self, spans: List[list]) -> None:
        child_seconds = [0.0] * len(spans)
        for record in spans:
            if record[PARENT] >= 0:
                child_seconds[record[PARENT]] += record[END] - record[START]
        self.seconds: Dict[str, float] = {}
        self.self_seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.failures: Dict[str, int] = {}
        self.rss_kb: Dict[str, int] = {}
        self.extra: Dict[str, List[float]] = {}
        #: Seconds of spans with no parent span (the direct callees).
        self.top_level_seconds = 0.0
        #: Seconds by (name, parent name), for nested layers.
        self.nested: Dict[tuple, float] = {}
        for index, record in enumerate(spans):
            name = record[NAME]
            duration = record[END] - record[START]
            self.seconds[name] = self.seconds.get(name, 0.0) + duration
            self.self_seconds[name] = (
                self.self_seconds.get(name, 0.0) + duration - child_seconds[index]
            )
            self.calls[name] = self.calls.get(name, 0) + 1
            self.rss_kb[name] = self.rss_kb.get(name, 0) + record[RSS_KB]
            if not record[OK]:
                self.failures[name] = self.failures.get(name, 0) + 1
            if record[EXTRA] is not None:
                sums = self.extra.setdefault(name, [0.0] * len(record[EXTRA]))
                for k, value in enumerate(record[EXTRA]):
                    sums[k] += value
            if record[PARENT] < 0:
                self.top_level_seconds += duration
            else:
                key = (name, spans[record[PARENT]][NAME])
                self.nested[key] = self.nested.get(key, 0.0) + duration


def spans_to_json(spans: List[list]) -> List[dict]:
    """JSON-ready span records (times relative to the first span)."""
    origin = spans[0][START] if spans else 0.0
    return [
        {
            "name": r[NAME],
            "parent": r[PARENT],
            "loop": r[LOOP],
            "start": r[START] - origin,
            "seconds": r[END] - r[START],
            "rss_growth_kb": r[RSS_KB],
            "ok": r[OK],
        }
        for r in spans
    ]
