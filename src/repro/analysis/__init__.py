"""Section 5 analytics: speedup models, factor sweeps, critical paths."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "speedup": (
            "single_thread_time", "multi_thread_uniprocessor_time",
            "speedup_bound", "SpeedupCase", "section_5_cases",
        ),
        "factors": (
            "sweep_conflict_degree", "sweep_exec_times", "sweep_processors",
        ),
        "pipeline": (
            "sequential_time", "pipelined_time", "overlap_speedup",
            "balanced_speedup_bound",
        ),
        "match_parallel": (
            "lpt_makespan", "match_speedup", "speedup_ceiling",
            "skewed_costs", "speedup_curve",
        ),
        "critpath": (
            "AbortChain", "CycleBreakdown", "abort_chains", "build_tree",
            "coverage", "critical_chain", "cycle_breakdowns", "makespan",
        ),
    },
)
