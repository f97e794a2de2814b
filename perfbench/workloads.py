"""The benchmark's workloads: which loops, on which machines, how evaluated.

Every corpus is a pure function of the workload and ``--seed``; the
program under test only ever sees the generated loops.  The loop graphs
and the replacement loops of the incremental workload are pinned to
generator seeds, so every run of a workload schedules the same loops in
the same order; ``--seed`` deals the corpus's execution profiles out to
its loops.  Each call builds fresh graph objects, because the scheduler
memoizes per-graph state (``shared_components``,
``IterativeScheduler._prepare``) that a real run pays for on every new
graph.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Tuple

import repro.machine as machines
from repro.ir.serialize import graph_to_dict
from repro.workloads.corpus import PAPER_CORPUS_SIZE, build_corpus
from repro.workloads.kernels import KERNELS
from repro.workloads.synthetic import synthetic_graph

#: Generator seed of every pinned corpus (the repository's default).
CORPUS_SEED = 0
#: BudgetRatio of the paper's Table 3 runs.
BUDGET_RATIO = 6.0
#: Simulated iterations per loop on the verified workload.
VERIFY_ITERATIONS = 256
#: Every ``SWAP_PERIOD``-th synthetic loop is replaced in each
#: incremental round (about 10% of the corpus).
SWAP_PERIOD = 10
#: First generator seed of the replacement loops, past every seed the
#: pinned corpora use.
SWAP_SEED_BASE = 500_000
#: The warm-up corpus is every ``WARM_STRIDE``-th loop of a corpus with
#: at most ``WARM_SYNTHETIC`` synthetic loops.
WARM_SYNTHETIC = 60
WARM_STRIDE = 4


@dataclass(frozen=True)
class Workload:
    """One benchmark workload and the engine settings it runs with."""

    name: str
    machines: Tuple[str, ...]
    jobs: int
    n_synthetic: int = 0
    #: Engine strict mode (every schedule and cache hit re-validated).
    check: bool = False
    verify_iterations: int = 0
    #: Whether timed rounds run against a cache filled during setup.
    cached: bool = False

    def _build(self, machine, n_synthetic: int) -> list:
        return build_corpus(machine, n_synthetic=n_synthetic, seed=CORPUS_SEED)

    def base(self, machine) -> list:
        """A fresh build of the workload's pinned corpus on one machine."""
        return self._build(machine, self.n_synthetic)

    def corpus(self, machine, seed: int, round_index: int) -> list:
        """The loops of one round on one machine, with ``seed``'s profiles.

        On a cached workload, rounds after the cold fill (``round_index``
        0) swap in that round's replacement loops.
        """
        loops = self.base(machine)
        if self.cached and round_index:
            loops = swap_synthetic(loops, machine, round_index)
        return deal_profiles(loops, seed)

    def warm_corpus(self, machine) -> list:
        """Separate graph objects for warming the engine's lazy state."""
        loops = self._build(machine, min(self.n_synthetic, WARM_SYNTHETIC))
        return loops[::WARM_STRIDE]


def deal_profiles(loops: list, seed: int) -> list:
    """The loops with their execution profiles dealt out by ``seed``.

    The profiles (entry and body frequencies, whether the loop runs)
    weight only the execution-time model.  The loops and their order
    stay as built, so the scheduling work, and the garbage collections
    and memory peaks that depend on evaluation order, repeat run to run.
    """
    profiles = [(loop.entry_freq, loop.loop_freq, loop.executed) for loop in loops]
    random.Random(seed).shuffle(profiles)
    return [
        dataclasses.replace(loop, entry_freq=entry, loop_freq=freq, executed=runs)
        for loop, (entry, freq, runs) in zip(loops, profiles)
    ]


def swap_synthetic(loops: list, machine, round_index: int) -> list:
    """Replace every ``SWAP_PERIOD``-th synthetic loop with a new graph.

    Every round gets the same replacement graphs, from generator seeds
    no pinned corpus uses, under names carrying the round index: the
    name is part of the cache key, so each round misses the cache on
    exactly the same scheduling work.  The execution profile of the
    replaced loop is kept.
    """
    swapped = list(loops)
    synthetic = [i for i, loop in enumerate(loops) if loop.category == "synthetic"]
    for k in range(0, len(synthetic), SWAP_PERIOD):
        seed = SWAP_SEED_BASE + k
        graph = synthetic_graph(
            machine, seed=seed, name=f"synthetic{seed}.r{round_index}"
        )
        index = synthetic[k]
        swapped[index] = dataclasses.replace(
            loops[index], name=graph.name, graph=graph
        )
    return swapped


def make_machine(name: str):
    """A fresh machine description by factory name."""
    return getattr(machines, name)()


def corpus_id(parts) -> str:
    """A stable id over machine names, loop names and graph content."""
    digest = hashlib.sha256()
    for machine_name, loops in parts:
        digest.update(machine_name.encode())
        for loop in loops:
            digest.update(loop.name.encode())
            text = json.dumps(graph_to_dict(loop.graph), sort_keys=True)
            digest.update(text.encode())
    return digest.hexdigest()[:16]


_PAPER_SYNTHETIC = PAPER_CORPUS_SIZE - len(KERNELS)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper_corpus",
            machines=("cydra5",),
            jobs=1,
            n_synthetic=_PAPER_SYNTHETIC,
        ),
        Workload(
            name="kernels_verified",
            machines=(
                "cydra5",
                "single_alu_machine",
                "two_alu_machine",
                "superscalar_machine",
            ),
            jobs=1,
            check=True,
            verify_iterations=VERIFY_ITERATIONS,
        ),
        Workload(
            name="incremental_parallel",
            machines=("cydra5",),
            jobs=2,
            n_synthetic=_PAPER_SYNTHETIC,
            check=True,
            cached=True,
        ),
    )
}
