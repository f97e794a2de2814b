#!/usr/bin/env python3
"""Layer-by-layer benchmark of corpus evaluation through EvaluationEngine.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_corpus --seed 0 --seconds 20 --trace 0

A run sets the workload up (imports, corpus generation and front-end
lowering, a warm-up on separate graph objects, and the cold cache fill
of a cached workload), then evaluates the corpus in timed rounds until
``--seconds`` of evaluation have been measured.  Each round evaluates
freshly built graph objects.  After each round every schedule is
checked: by the engine's strict mode or by ``repro.check`` afterwards,
and a digest of each loop's schedule and counters must agree wherever
the same loop is evaluated again, within the run and across runs of the
same code and seed.

``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics instead of the end-to-end ones.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a summary with sample counts goes to
standard error.  perfbench/README.md describes workloads and metrics.
"""

import os
import time

STARTED = time.perf_counter()

# One BLAS/OpenMP thread per process, fixed before numpy can load.
for _variable in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_variable] = "1"

import argparse
import gc
import hashlib
import json
import multiprocessing
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Run state inside the checkout: per-run caches, digests, span dumps.
STATE_DIR = ROOT / ".perfbench"
#: Address-space cap of the benchmark process and of each pool worker.
MEMORY_CAP_BYTES = 2 << 30
#: Corpus builds timed during set-up; setup_s uses their median.
SETUP_BUILDS = 3


def metric_units(section: str) -> dict:
    """name -> unit of the metrics ``BENCHMARK.json`` lists in ``section``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_hash() -> str:
    """Hash of the program and benchmark sources (keys the digest store)."""
    digest = hashlib.sha256()
    for directory in ("src", "perfbench"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def loop_digest(evaluation) -> str:
    """Digest of one loop's schedule (II, times, alternatives) and counters."""
    schedule = evaluation.result.schedule
    document = [
        evaluation.loop.name,
        schedule.ii,
        sorted(schedule.times.items()),
        sorted(
            (op, None if alt is None else alt.name)
            for op, alt in schedule.alternatives.items()
        ),
        evaluation.counters.snapshot(),
    ]
    text = json.dumps(document, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def quantile(values, fraction: float) -> float:
    """Linear-interpolated quantile (``statistics.quantiles`` inclusive)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


class Round:
    """What one timed round produced, reduced to what the metrics need."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.wall = 0.0
        self.loop_seconds = []
        self.attempted = 0
        self.failed = 0
        #: "loop: error during phase" for each failed loop.
        self.failures = []
        self.digests = []
        #: Per attempted loop: (ok, full_ims, ii, mii, exec_time, exec_bound)
        #: with the exec terms None for loops the profile never executes.
        self.quality = []
        self.spans = []
        # Engine-level facts for the per-layer metrics.
        self.hits = 0
        self.misses = 0
        self.load_s = 0.0
        self.busy_s = 0.0
        self.retries = 0
        self.phase_s = {}
        self.counters = {}
        self.miss_ops = 0
        self.miss_ims = 0


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        import workloads as wl
        from repro.analysis.engine import EvaluationEngine
        from repro.analysis.resilience import RetryPolicy

        self.wl = wl
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.machines = [wl.make_machine(name) for name in workload.machines]
        self.cache_dir = STATE_DIR / f"cache-{os.getpid()}"
        shutil.rmtree(self.cache_dir, ignore_errors=True)

        def engine(cached: bool):
            return [
                EvaluationEngine(
                    machine,
                    budget_ratio=wl.BUDGET_RATIO,
                    jobs=workload.jobs,
                    cache_dir=self.cache_dir / machine.name if cached else None,
                    verify_iterations=workload.verify_iterations,
                    check=workload.check,
                    # A MemoryError is deterministic under the fixed cap;
                    # retrying it would only repeat the blow-up.
                    retry_policy=RetryPolicy(max_retries=0),
                )
                for machine in self.machines
            ]

        self.engines = engine(workload.cached)
        self.warm_engines = engine(False)
        self.tracer = None
        if trace:
            from tracer import Tracer

            self.tracer = Tracer()
        #: (machine name, cache key) -> loop digest, over the whole run.
        self.seen = {}
        #: (machine name, cache key) -> passed the post-run check.
        self.validated = {}
        self.mismatches = []
        self.rounds = []
        self.round_digests = {}
        self.build_seconds = []
        self.build_spans = []
        self.warm_s = 0.0
        self.fill_s = 0.0

    # -- set-up --------------------------------------------------------

    def build(self, round_index: int):
        """(machine, loops) of one round, on fresh graph objects."""
        return [
            (machine, self.workload.corpus(machine, self.seed, round_index))
            for machine in self.machines
        ]

    def setup(self, startup_s: float) -> None:
        if self.tracer is not None:
            self.tracer.install()
        for build in range(SETUP_BUILDS):
            started = time.perf_counter()
            built = [self.workload.base(m) for m in self.machines]
            self.build_seconds.append(time.perf_counter() - started)
            if self.tracer is not None:
                self.build_spans.append(self.tracer.take())
            if build == 0:
                self.corpus_id = self.wl.corpus_id(
                    (m.name, loops) for m, loops in zip(self.machines, built)
                )
            # Each round builds its own corpus: no idle copy stays alive
            # to inflate peak_rss_mb.
            del built
        if self.tracer is not None:
            self.tracer.uninstall()
        gc.collect()
        started = time.perf_counter()
        for engine, machine in zip(self.warm_engines, self.machines):
            engine.evaluate(self.workload.warm_corpus(machine))
        self.warm_s = time.perf_counter() - started
        if self.workload.cached:
            fill = self.run_round(0, traced=False)
            self.fill_s = fill.wall
            self.round_digests["fill"] = self.digest_of(fill)
        self.setup_s = startup_s + self.warm_s + self.fill_s + statistics.median(
            self.build_seconds
        )

    # -- timed rounds --------------------------------------------------

    def measure(self) -> None:
        """Timed rounds until ``seconds`` are measured (and, traced, until
        there is an untraced and a traced round)."""
        elapsed = 0.0
        index = 0
        while elapsed < self.seconds or (self.trace and index < 2):
            index += 1
            round_ = self.run_round(index, traced=self.trace and index % 2 == 0)
            self.round_digests[str(index)] = self.digest_of(round_)
            self.rounds.append(round_)
            elapsed += round_.wall

    def run_round(self, index: int, traced: bool) -> Round:
        """Build, evaluate (timed) and reduce one round.  Its corpus and
        results die with this frame, before the next round is built."""
        # Free the last round's cyclic garbage before this round's
        # corpus exists, and the build's before the clock starts.
        gc.collect()
        parts = self.build(index)
        round_ = Round(traced)
        gc.collect()
        if traced:
            self.tracer.install()
        results = []
        for engine, (_, loops) in zip(self.engines, parts):
            started = time.perf_counter()
            results.append(engine.evaluate(loops))
            round_.wall += time.perf_counter() - started
        if traced:
            round_.spans = self.tracer.take()
            self.tracer.uninstall()
        for (machine, loops), result in zip(parts, results):
            self.reduce(round_, machine, loops, result)
        return round_

    def reduce(self, round_: Round, machine, loops, result) -> None:
        """Digest, check and score one engine result (outside the clock)."""
        from repro.analysis.model import execution_time, execution_time_bound
        from repro.baselines.list_scheduler import list_schedule_length
        from repro.check import check_schedule
        from repro.core.mii import res_mii

        failures = {failure.index: failure for failure in result.failures}
        evaluations = iter(result.evaluations)
        round_.retries += result.retries
        for index, loop in enumerate(loops):
            timing = result.timings[index]
            round_.attempted += 1
            round_.loop_seconds.append(timing.seconds.get("total", 0.0))
            key = (machine.name, timing.key)
            failure = failures.get(index)
            evaluation = None if failure is not None else next(evaluations, None)
            if timing.cache_hit:
                round_.hits += 1
                round_.load_s += timing.seconds.get("load", 0.0)
            else:
                round_.misses += 1
                round_.busy_s += timing.seconds.get("total", 0.0)
                for phase, value in timing.seconds.items():
                    round_.phase_s[phase] = round_.phase_s.get(phase, 0.0) + value
            if evaluation is None:
                kind = (
                    [failure.phase, failure.error_type] if failure else ["lost"]
                )
                digest = hashlib.sha256(
                    json.dumps([loop.name, *kind]).encode()
                ).hexdigest()
                # Under the fixed cap a MemoryError is an outcome to
                # count; any other failure is a broken program.
                if failure is None or failure.error_type != "MemoryError":
                    self.mismatches.append(f"{loop.name}: {' '.join(kind)}")
                round_.failed += 1
                round_.failures.append(f"{loop.name}: {' during '.join(kind[::-1])}")
                ok = full = False
                ii = list_schedule_length(loop.graph, machine)
                mii = res_mii(loop.graph, machine)
                exec_time = execution_time(loop.entry_freq, loop.loop_freq, ii, ii)
                exec_bound = execution_time_bound(
                    loop.entry_freq, loop.loop_freq, ii, mii
                )
            else:
                digest = loop_digest(evaluation)
                if not self.workload.check and key not in self.validated:
                    diagnostics = check_schedule(
                        loop.graph, machine, evaluation.result.schedule
                    )
                    self.validated[key] = diagnostics.ok
                    if not diagnostics.ok:
                        self.mismatches.append(f"{loop.name}: rejected by check")
                ok = self.validated.get(key, True)
                if not ok:
                    round_.failed += 1
                if not timing.cache_hit:
                    self.count_miss(round_, evaluation)
                full = evaluation.degradation is None and evaluation.backend == "ims"
                ii, mii = evaluation.ii, evaluation.mii
                exec_time, exec_bound = evaluation.exec_time, evaluation.exec_bound
            if self.seen.setdefault(key, digest) != digest:
                self.mismatches.append(f"{loop.name}: differs from an earlier round")
            round_.digests.append(digest)
            if not loop.executed:
                exec_time = exec_bound = None
            round_.quality.append((ok, full, ii, mii, exec_time, exec_bound))

    @staticmethod
    def count_miss(round_: Round, evaluation) -> None:
        for name, value in evaluation.counters.snapshot().items():
            round_.counters[name] = round_.counters.get(name, 0) + value
        round_.miss_ops += evaluation.n_ops
        if evaluation.backend == "ims":
            round_.miss_ims += 1

    @staticmethod
    def digest_of(round_: Round) -> str:
        return hashlib.sha256("\n".join(round_.digests).encode()).hexdigest()

    def check_store(self) -> None:
        """Compare round digests with earlier runs of this code and seed."""
        path = STATE_DIR / "digests.json"
        try:
            store = json.loads(path.read_text())
        except (OSError, ValueError):
            store = {}
        prefix = f"{source_hash()}:{self.workload.name}:{self.seed}"
        for name, digest in self.round_digests.items():
            previous = store.setdefault(f"{prefix}:{name}", digest)
            if previous != digest:
                self.mismatches.append(f"round {name}: differs from an earlier run")
        STATE_DIR.mkdir(exist_ok=True)
        temporary = path.with_name(f"{path.name}.{os.getpid()}")
        temporary.write_text(json.dumps(store, indent=1, sort_keys=True))
        os.replace(temporary, path)

    # -- metrics -------------------------------------------------------

    def end_to_end(self, peak_rss_mb: float) -> dict:
        untraced = [r for r in self.rounds if not r.traced]

        def per_loop_ms(fraction):
            return 1000.0 * statistics.median(
                quantile(r.loop_seconds, fraction) for r in untraced
            )

        attempted = sum(r.attempted for r in self.rounds)
        failed = sum(r.failed for r in self.rounds)
        first = self.rounds[0].quality
        executed = [q for q in first if q[4] is not None]
        return {
            "setup_s": self.setup_s,
            "wall_s": statistics.median(r.wall for r in untraced),
            "loop_ms_p50": per_loop_ms(0.50),
            "loop_ms_p95": per_loop_ms(0.95),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (attempted - failed) / attempted,
            "full_ims_frac": sum(q[1] for q in first) / len(first),
            "ii_over_mii": sum(q[2] for q in first) / sum(q[3] for q in first),
            "exec_ratio": (
                sum(q[4] for q in executed) / sum(q[5] for q in executed)
                if executed
                else 1.0
            ),
        }

    def per_layer(self, units: dict) -> dict:
        from layers import layer_metrics

        traced = [r for r in self.rounds if r.traced]
        untraced = [r for r in self.rounds if not r.traced]
        return layer_metrics(
            traced, untraced, self.build_spans, self.workload.jobs, units
        )

    def finish(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        if self.tracer is not None and self.rounds:
            from tracer import spans_to_json

            rounds = [spans_to_json(r.spans) for r in self.rounds if r.traced]
            path = STATE_DIR / f"spans-{self.workload.name}-{self.seed}.json"
            STATE_DIR.mkdir(exist_ok=True)
            path.write_text(json.dumps(rounds))


def reap_children(timeout: float = 30.0) -> None:
    """Wait until every child process (pool workers) has exited."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = MEMORY_CAP_BYTES if hard == resource.RLIM_INFINITY else min(
        MEMORY_CAP_BYTES, hard
    )
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    bench = Bench(workload, args.seed, args.seconds, bool(args.trace))
    # Bench() imports the engine and its import chain.
    startup_s = time.perf_counter() - STARTED
    try:
        bench.setup(startup_s)
        bench.measure()
    finally:
        bench.finish()
        reap_children()
    bench.check_store()
    if args.trace:
        units = metric_units("per_layer")
        values = bench.per_layer(units)
    else:
        units = metric_units("end_to_end")
        values = bench.end_to_end(peak_rss_mb())
        values = {name: values[name] for name in units}
    attempted = sum(r.attempted for r in bench.rounds)
    failed = sum(r.failed for r in bench.rounds)
    untraced = [r for r in bench.rounds if not r.traced]
    per_round = f"median over {len(untraced)} rounds of {untraced[0].attempted} loops"
    samples = {
        "setup_s": f"one set-up with the median of {SETUP_BUILDS} builds",
        "wall_s": f"median of {len(untraced)} rounds",
        "loop_ms_p50": per_round,
        "loop_ms_p95": per_round,
    }
    print(
        f"perfbench {workload.name} seed={args.seed} corpus={bench.corpus_id} "
        f"machines={','.join(workload.machines)} jobs={workload.jobs} "
        f"rounds={len(bench.rounds)} attempted={attempted} failed={failed}",
        file=sys.stderr,
    )
    for name, value in values.items():
        note = samples.get(name, "")
        print(f"  {name:<24} {value:>14.6g} {units[name]:<6} {note}", file=sys.stderr)
    for line in bench.rounds[0].failures[:20]:
        print(f"  FAILED {line}", file=sys.stderr)
    for line in bench.mismatches[:20]:
        print(f"  MISMATCH {line}", file=sys.stderr)
    correct = not bench.mismatches
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
