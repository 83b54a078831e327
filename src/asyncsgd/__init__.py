"""Deterministic simulator and analysis toolkit for SGD under arbitrary
gradient delays: event-driven worker schedules and their delay columns,
delay-adaptive stepsize rules, synthetic objectives with known constants,
replayable optimizer loops and virtual-iterate diagnostics."""

from .optimizers import DivergedError, RunRecord, run_async, run_live, run_minibatch, worker_streams
from .problems import (BoundedNonconvex, HeterogeneousQuadratics, LeastSquares,
                       ProblemError, bounded_nonconvex, heterogeneous_quadratics,
                       least_squares, least_squares_from_csv)
from .scheduler import (ArrivalTrace, FixedSpeeds, LedgerError, RandomSpeeds,
                        SpeedModelError, StragglerSpeeds, simulate_trace, speedup_factor,
                        steps_in_time, trace_from_workers)
from .schedules import (OUTPUT_RULES, ProblemConstants, ScheduleError, StepSchedule,
                        expected_sampled_metric, log_weighted_stepsize_sum, make_schedule,
                        output_weights, select_output)
from .virtual import DiagnosticsError, VirtualTrack, track

__version__ = "0.1.0"

__all__ = [
    "ArrivalTrace", "BoundedNonconvex", "DiagnosticsError", "DivergedError",
    "FixedSpeeds", "HeterogeneousQuadratics", "LeastSquares", "LedgerError",
    "OUTPUT_RULES", "ProblemConstants", "ProblemError", "RandomSpeeds", "RunRecord",
    "ScheduleError", "SpeedModelError", "StepSchedule", "StragglerSpeeds", "VirtualTrack",
    "bounded_nonconvex", "expected_sampled_metric", "heterogeneous_quadratics",
    "least_squares", "least_squares_from_csv", "log_weighted_stepsize_sum", "make_schedule",
    "output_weights", "run_async", "run_live", "run_minibatch", "select_output",
    "simulate_trace", "speedup_factor", "steps_in_time", "trace_from_workers",
    "track", "worker_streams",
]
