"""Evaluation harness: the statistics of Section 4.

* :mod:`repro.analysis.distribution` — the Table-3 row format
  (minimum possible value, frequency of the minimum, median, mean, max);
* :mod:`repro.analysis.model` — the execution-time model
  ``EntryFreq*SL + (LoopFreq-EntryFreq)*II`` and its lower bound;
* :mod:`repro.analysis.regression` — least-mean-square fits of counter
  data against N for the Table-4 complexity study;
* :mod:`repro.analysis.runner` — one-stop evaluation of a corpus loop
  (MII, modulo schedule, list-schedule and MinDist lower bounds, counters);
* :mod:`repro.analysis.engine` — the parallel, content-addressed,
  fault-tolerant corpus-evaluation engine (process-pool fan-out, on-disk
  result cache that doubles as the run's checkpoint, watchdog timeouts,
  crash-isolated retries, degradation ladder);
* :mod:`repro.analysis.resilience` — the engine's resilience policies
  (failure taxonomy, retry backoff, durable writes, quarantine);
* :mod:`repro.analysis.faultinject` — deterministic fault injection for
  the resilience test-suite (``REPRO_FAULT_INJECT``);
* :mod:`repro.analysis.report` — plain-text table/series rendering.
"""

from repro.analysis.distribution import DistributionRow, distribution_row
from repro.analysis.engine import (
    CorpusEvaluation,
    EvaluationEngine,
    LoopFailure,
    LoopTiming,
    cache_key,
    evaluation_from_dict,
    evaluation_to_dict,
)
from repro.analysis.faultinject import FaultPlan, parse_fault_spec
from repro.analysis.model import execution_time, execution_time_bound
from repro.analysis.resilience import (
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
    classify_failure,
    load_quarantine,
)
from repro.analysis.regression import (
    fit_linear,
    fit_quadratic,
    fit_power,
    load_obs_records,
)
from repro.analysis.runner import LoopEvaluation, evaluate_loop
from repro.analysis.report import (
    render_obs_summary,
    render_series,
    render_table,
)
from repro.analysis.tables import table3_rows

__all__ = [
    "CorpusEvaluation",
    "Deadline",
    "DeadlineExceeded",
    "DistributionRow",
    "EvaluationEngine",
    "FaultPlan",
    "LoopFailure",
    "LoopTiming",
    "RetryPolicy",
    "cache_key",
    "classify_failure",
    "load_quarantine",
    "parse_fault_spec",
    "distribution_row",
    "evaluation_from_dict",
    "evaluation_to_dict",
    "execution_time",
    "execution_time_bound",
    "fit_linear",
    "fit_quadratic",
    "fit_power",
    "load_obs_records",
    "LoopEvaluation",
    "evaluate_loop",
    "render_obs_summary",
    "render_table",
    "render_series",
    "table3_rows",
]
