"""Discrete-event multiprocessor substrate.

The paper's Section 5 numbers are scheduling arithmetic over production
execution times on ``Np`` processors; this package reproduces them with
a deterministic discrete-event simulation (simulated time, not
wall-clock — CPython's GIL makes real-thread speedups meaningless,
which is the reproduction substitution recorded in DESIGN.md).

* :mod:`~repro.sim.engine` — event queue and virtual clock.
* :mod:`~repro.sim.processor` — the ``Np``-processor pool.
* :mod:`~repro.sim.gantt` — execution traces and ASCII Gantt charts
  (the benchmarks print Figures 5.1-5.4 in this form).
* :mod:`~repro.sim.multithread` — single- and multiple-thread
  execution of an :class:`~repro.core.addsets.AddDeleteSystem`.
* :mod:`~repro.sim.lock_sim` — lock-level simulation comparing 2PL and
  the Rc scheme on synthetic firing workloads.
* :mod:`~repro.sim.workload` — synthetic workload generators.
* :mod:`~repro.sim.metrics` — speedup/utilization accounting.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "engine": ("EventQueue", "Simulator"),
        "processor": ("ProcessorPool",),
        "gantt": ("ExecutionTrace", "TraceSegment"),
        "multithread": (
            "MultiThreadResult", "simulate_multithread",
            "simulate_single_thread",
        ),
        "lock_sim": ("FiringSpec", "LockSimResult", "simulate_lock_scheme"),
        "workload": ("random_add_delete_system", "random_firing_batch"),
        "metrics": ("speedup", "utilization"),
    },
)
