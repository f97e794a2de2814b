"""A miniature of the paper's whole evaluation, in one run.

Builds a 200-loop corpus (every hand-written kernel plus calibrated
synthetic graphs), evaluates it at BudgetRatio 6, and prints Table-3-style
program and quality statistics plus the DeltaII census — a quick check
that the paper's headline claims hold on your machine model.

Run:  python examples/corpus_report.py
"""

from collections import Counter

from repro import cydra5
from repro.analysis import EvaluationEngine, distribution_row, render_table
from repro.workloads import build_corpus


def main() -> None:
    machine = cydra5()
    corpus = build_corpus(machine, n_synthetic=154, seed=0)
    print(f"evaluating {len(corpus)} loops on {machine.name!r}...")
    engine = EvaluationEngine(machine, budget_ratio=6.0)
    evaluations = engine.evaluate(corpus).evaluations

    rows = [
        distribution_row(
            "Number of operations", [e.n_real_ops for e in evaluations], 4
        ),
        distribution_row("MII", [e.mii for e in evaluations], 1),
        distribution_row("II - MII", [e.delta_ii for e in evaluations], 0),
        distribution_row(
            "II / MII", [e.result.ii_ratio for e in evaluations], 1
        ),
        distribution_row(
            "Schedule length (ratio)", [e.sl_ratio for e in evaluations], 1
        ),
        distribution_row(
            "Nodes scheduled (ratio)",
            [e.schedule_ratio for e in evaluations],
            1,
        ),
    ]
    print()
    print(
        render_table(
            ["Measurement", "Min", "Freq(min)", "Median", "Mean", "Max"],
            [row.cells() for row in rows],
            title="Corpus statistics (Table 3 style):",
        )
    )

    census = Counter(e.delta_ii for e in evaluations)
    optimal = census[0] / len(evaluations)
    print(
        f"\nII = MII for {optimal:.1%} of loops "
        f"(paper: 96%); DeltaII census: "
        + ", ".join(f"{d}:{c}" for d, c in sorted(census.items()))
    )

    worst = max(evaluations, key=lambda e: e.result.ii_ratio)
    print(
        f"hardest loop: {worst.loop.name!r} "
        f"(II={worst.ii} vs MII={worst.mii})"
    )


if __name__ == "__main__":
    main()
