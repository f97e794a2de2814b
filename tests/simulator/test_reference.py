"""The sequential oracle: the loop AST's semantics, sharing no code."""

import ast
import math

import pytest

import repro.simulator.reference
from repro.loopir import parse_loop
from repro.simulator import ArrayStore, LoopState, run_reference


def _state(arrays=None, scalars=None, n=8):
    state = LoopState(scalars=dict(scalars or {}))
    for name, values in (arrays or {}).items():
        store = ArrayStore(n, halo=4)
        store.fill_from(values)
        state.arrays[name] = store
    return state


class TestArithmetic:
    def test_saxpy(self):
        loop = parse_loop("for i in n:\n    y[i] = y[i] + a * x[i]\n")
        state = _state(
            arrays={"x": [1.0, 2.0, 3.0], "y": [10.0, 20.0, 30.0]},
            scalars={"a": 2.0},
            n=3,
        )
        run_reference(loop, state, 3)
        assert state.arrays["y"].body() == (12.0, 24.0, 36.0)

    def test_reduction(self):
        loop = parse_loop("for i in n:\n    s = s + x[i]\n")
        state = _state(arrays={"x": [1.0, 2.0, 3.0]}, scalars={"s": 0.5}, n=3)
        run_reference(loop, state, 3)
        assert state.scalars["s"] == 6.5

    def test_ivar_value(self):
        loop = parse_loop("for i in n:\n    x[i] = i\n")
        state = _state(arrays={"x": [0.0] * 4}, n=4)
        run_reference(loop, state, 4)
        assert state.arrays["x"].body() == (0.0, 1.0, 2.0, 3.0)

    def test_offsets(self):
        loop = parse_loop("for i in n:\n    y[i] = x[i+1] - x[i-1]\n")
        state = _state(arrays={"x": [1.0, 4.0, 9.0], "y": [0.0] * 3}, n=3)
        state.arrays["x"][-1] = 0.0
        state.arrays["x"][3] = 16.0
        run_reference(loop, state, 3)
        assert state.arrays["y"].body() == (4.0, 8.0, 12.0)

    def test_intrinsics(self):
        loop = parse_loop(
            "for i in n:\n    y[i] = max(min(x[i], 1.0), -1.0) + sqrt(abs(x[i]))\n"
        )
        state = _state(arrays={"x": [-4.0, 0.25], "y": [0.0, 0.0]}, n=2)
        run_reference(loop, state, 2)
        assert state.arrays["y"].body() == (1.0, 0.75)

    def test_ieee_division_semantics(self):
        loop = parse_loop("for i in n:\n    y[i] = 1.0 / x[i]\n")
        state = _state(arrays={"x": [0.0, 2.0], "y": [0.0, 0.0]}, n=2)
        run_reference(loop, state, 2)
        assert state.arrays["y"][0] == math.inf
        assert state.arrays["y"][1] == 0.5

    def test_ieee_sqrt_semantics(self):
        loop = parse_loop("for i in n:\n    y[i] = sqrt(x[i])\n")
        state = _state(arrays={"x": [-1.0], "y": [0.0]}, n=1)
        run_reference(loop, state, 1)
        assert math.isnan(state.arrays["y"][0])


class TestControlFlow:
    def test_if_else(self):
        loop = parse_loop(
            "for i in n:\n"
            "    if x[i] > 0.0:\n"
            "        s = s + x[i]\n"
            "    else:\n"
            "        t = t - x[i]\n"
        )
        state = _state(
            arrays={"x": [1.0, -2.0, 3.0]}, scalars={"s": 0.0, "t": 0.0}, n=3
        )
        run_reference(loop, state, 3)
        assert state.scalars["s"] == 4.0
        assert state.scalars["t"] == 2.0

    def test_boolean_conditions(self):
        loop = parse_loop(
            "for i in n:\n"
            "    if x[i] > 0.0 and x[i] < 2.0 or x[i] == 5.0:\n"
            "        c = c + 1.0\n"
        )
        state = _state(
            arrays={"x": [1.0, 3.0, 5.0, -1.0]}, scalars={"c": 0.0}, n=4
        )
        run_reference(loop, state, 4)
        assert state.scalars["c"] == 2.0

    def test_zero_iterations_is_identity(self):
        loop = parse_loop("for i in n:\n    s = s + 1.0\n")
        state = _state(scalars={"s": 3.0})
        run_reference(loop, state, 0)
        assert state.scalars["s"] == 3.0

    def test_missing_scalar_reports_name(self):
        loop = parse_loop("for i in n:\n    s = s + q\n")
        state = _state(scalars={"s": 0.0})
        with pytest.raises(KeyError) as excinfo:
            run_reference(loop, state, 1)
        assert "q" in str(excinfo.value)


#: All the reference may take from the package: the loop AST and the
#: state it mutates.  Sharing anything else with the front end, the
#: scheduler or the pipelined executor would let one bug hide in both.
_ALLOWED = {"repro.loopir.ast", "repro.simulator.state"}


def _independence_problems(source):
    """Imports from ``repro`` beyond :data:`_ALLOWED`, and any use of
    ``exec``, ``eval`` or ``compile``, in a module's source."""
    problems = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            modules = [("." * node.level) + (node.module or "")]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            modules = []
        for module in modules:
            inside = module.startswith(".") or module.split(".")[0] == "repro"
            if inside and module not in _ALLOWED:
                problems.append(f"imports {module}")
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name in ("exec", "eval", "compile"):
            problems.append(f"uses {name} at line {node.lineno}")
    return problems


class TestIndependence:
    def test_reference_imports_only_the_ast_and_the_state(self):
        with open(repro.simulator.reference.__file__) as handle:
            assert _independence_problems(handle.read()) == []

    @pytest.mark.parametrize(
        "source, problem",
        [
            ("from repro.loopir.lower import lower_loop", "imports repro.loopir.lower"),
            ("import repro.simulator.pipeline", "imports repro.simulator.pipeline"),
            ("from .pipeline import _ARITH", "imports .pipeline"),
            ("step = eval('lambda i: i')", "uses eval at line 1"),
            ("import builtins\nbuiltins.exec('pass')", "uses exec at line 2"),
            ("code = compile('1', '<loop>', 'eval')", "uses compile at line 1"),
        ],
    )
    def test_guard_flags_shared_code_and_generated_source(self, source, problem):
        assert problem in _independence_problems(source)
