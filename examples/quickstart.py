"""Quickstart: software-pipeline a loop in five steps.

Run:  python examples/quickstart.py
"""

from repro import check_schedule, cydra5, modulo_schedule
from repro.loopir import compile_loop_full
from repro.simulator import check_equivalence

SOURCE = """
for i in n:
    y[i] = y[i] + alpha * x[i]
"""


def main() -> None:
    machine = cydra5()

    # 1. Compile the loop: parse, IF-convert, lower to a dependence graph
    #    in dynamic single assignment form with memory dependence edges.
    lowered = compile_loop_full(SOURCE, machine, name="saxpy")
    graph = lowered.graph
    print(f"compiled {graph.name!r}: {graph.n_real_ops} operations, "
          f"{graph.n_edges} dependence edges")

    # 2. Modulo-schedule it (computes MII = max(ResMII, RecMII), then runs
    #    iterative scheduling with successively larger II until success).
    result = modulo_schedule(graph, machine, budget_ratio=6.0)
    mii = result.mii_result
    print(f"ResMII={mii.res_mii}  RecMII={mii.rec_mii}  MII={mii.mii}")
    print(f"achieved II={result.ii} (DeltaII={result.delta_ii}), "
          f"schedule length={result.schedule_length}, "
          f"stages={result.schedule.stage_count}")

    # 3. The kernel: one new iteration starts every II cycles.
    print()
    print(result.schedule.describe())

    # 4. Statically validate every dependence and the modulo constraint.
    diags = check_schedule(graph, machine, result.schedule)
    print(f"\nstatic validation: {'OK' if diags.ok else diags.render()}")

    # 5. Execute the pipelined schedule against the sequential oracle.
    report = check_equivalence(lowered, result.schedule, n=50, seed=1)
    print(f"end-to-end simulation ({report.n} iterations): "
          f"{'OK' if report.ok else report.describe()}")

    speedup = result.schedule_length / result.ii
    print(f"\nsteady-state speedup over non-overlapped execution: "
          f"{speedup:.1f}x (one iteration every {result.ii} cycles instead "
          f"of every {result.schedule_length})")


if __name__ == "__main__":
    main()
