"""Rule-level workload programs.

Complete production-system programs used by examples, tests and
benchmarks — currently the classic *Miss Manners* seating benchmark
(:mod:`repro.workloads.manners`), the standard stress test for
production-system match performance.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "manners": (
            "build_manners_rules", "build_manners_memory", "seating_order",
            "validate_seating",
        ),
    },
)
