"""Every package surface, checked as a whole.

The package ``__init__``s export lazily (PEP 562, ``repro._lazy``); a
caller must not be able to tell: the names, ``dir``, star-imports,
error messages and pickling are those of the eager ``from ... import``
blocks they replaced.  The name sets are the ones those blocks
exported, recorded here so a surface cannot change unnoticed.
"""

import importlib
import inspect
import pickle
import sys

import pytest

PUBLIC_NAMES = {
    "repro": """
        AddDeleteSystem Catalog CondRelationMatcher ConflictSet
        ConservativeTwoPhaseScheme ConsistencyChecker DeadlockDetected
        DurableStore EngineError ExecutionGraph FiringSpec History
        Instantiation Interpreter LockError LockMode MultiUserEngine
        NaiveMatcher ParallelEngine ParseError PartitionedEngine
        Production RcScheme RelationSchema ReproError ReteMatcher
        RuleBuilder SchemaError Session ThreadedWaveExecutor Transaction
        TransactionAborted TreatMatcher TwoPhaseScheme ValidationError WME
        WMSnapshot WorkingMemory check_theorem_1 check_theorem_2 ge gt
        interferes is_conflict_serializable le lint_program lt
        make_strategy ne parse_production parse_program
        replay_commit_sequence section_3_3_example section_5_cases
        simulate_lock_scheme simulate_multithread simulate_single_thread
        table_4_1 table_5_1 table_5_2 var
    """,
    "repro.analysis": """
        AbortChain CycleBreakdown SpeedupCase abort_chains
        balanced_speedup_bound build_tree coverage critical_chain
        cycle_breakdowns lpt_makespan makespan match_speedup
        multi_thread_uniprocessor_time overlap_speedup pipelined_time
        section_5_cases sequential_time single_thread_time skewed_costs
        speedup_bound speedup_ceiling speedup_curve sweep_conflict_degree
        sweep_exec_times sweep_processors
    """,
    "repro.core": """
        AddDeleteSystem ConsistencyChecker ConsistencyReport
        ExecutionGraph ExecutionString SECTION_5_EXEC_TIMES SystemState
        check_theorem_1 check_theorem_2 conflicting_objects
        greedy_partition interference_graph interferes
        maximal_noninterfering_subset partition_conflict_set
        section_3_3_example table_5_1 table_5_2
    """,
    "repro.engine": """
        ActionExecutor ActionOutcome Commit Interpreter
        MultiUserEngine ParallelEngine PartitionedEngine ReplayOutcome
        RunResult Session ShardRun ThreadedWaveExecutor WaveResult
        replay_commit_sequence
    """,
    "repro.fault": """
        CrashCase FAULT_KINDS FaultInjector FaultKind FaultPlan FaultSpec
        LOCK_KINDS NO_RETRY RetryPolicy SweepResult VirtualSleeper
        crash_equivalence_sweep memory_signature run_crash_case
    """,
    "repro.lang": """
        BinaryExpr BindAction Bindings ConditionElement Constant
        ConstantTest HaltAction MakeAction ModifyAction PredicateTest
        Production RemoveAction RuleBuilder ValueExpr VariableRef
        VariableTest WriteAction parse_production parse_program
    """,
    "repro.locks": """
        COMPATIBILITY ConservativeTwoPhaseScheme DeadlockDetector
        GrantOutcome LockGrant LockManager LockMode
        LockRequest RcScheme RequestStatus SCHEMES TWO_PHASE_COMPATIBILITY
        TwoPhaseScheme compatible table_4_1 youngest_victim
    """,
    "repro.match": """
        CondRelationMatcher ConflictSet ConflictSetDelta FifoStrategy
        Instantiation LexStrategy Matcher MeaStrategy NaiveMatcher
        PartitionedMatcher PriorityStrategy RandomStrategy ReteMatcher
        Strategy TreatMatcher make_strategy parse_partitioned_spec
    """,
    "repro.match.rete": """
        ReteMatcher
    """,
    "repro.obs": """
        COUNT_BUCKETS Counter DroppedSpan GREEN Gauge HeadSampler
        HealthMonitor HealthReport Histogram LEVELS MetricsRegistry
        NULL_OBSERVER NullObserver Observer QuantileSketch RED
        RuleProfiler Span SpanRecorder TIME_BUCKETS YELLOW disable
        enable get_observer observed render_profile set_observer
    """,
    "repro.sim": """
        EventQueue ExecutionTrace FiringSpec LockSimResult
        MultiThreadResult ProcessorPool Simulator TraceSegment
        random_add_delete_system random_firing_batch simulate_lock_scheme
        simulate_multithread simulate_single_thread speedup utilization
    """,
    "repro.txn": """
        Certifier History Operation Transaction TxnState conflicts
        is_conflict_serializable precedence_graph serialization_orders
    """,
    # ``AttributeIndex`` left ``repro.wm`` on purpose: working memory
    # keeps no value postings, TREAT keeps the ones it probes.
    "repro.wm": """
        Catalog DURABILITY_MODES DurableStore
        RecoveryReport RelationSchema STORAGE_FAULT_SITES SegmentInfo
        Timetag UndoLog WMDelta WME WMSnapshot WorkingMemory
        deserialize_wme serialize_wme
    """,
    "repro.workloads": """
        build_manners_memory build_manners_rules seating_order
        validate_seating
    """,
}

PACKAGES = sorted(PUBLIC_NAMES)


def _defined_in_repro(exported) -> bool:
    """A class or function that knows the ``repro`` module defining it
    (constants and aliases of builtins / ``typing`` forms do not)."""
    return (
        inspect.isclass(exported) or inspect.isfunction(exported)
    ) and exported.__module__.startswith("repro.")


@pytest.mark.parametrize("package", PACKAGES)
def test_all_is_the_recorded_surface(package):
    exported = importlib.import_module(package).__all__
    assert sorted(exported) == sorted(PUBLIC_NAMES[package].split())


@pytest.mark.parametrize("package", PACKAGES)
def test_every_name_is_the_object_its_module_defines(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        exported = getattr(module, name)
        if _defined_in_repro(exported):
            home = importlib.import_module(exported.__module__)
            assert getattr(home, exported.__name__) is exported, name
            continue
        # A constant or alias: the same object as in a loaded module
        # below the package (the access above loaded its home).
        below = [
            loaded for key, loaded in list(sys.modules.items())
            if key.startswith(package + ".")
        ]
        assert any(
            vars(lower).get(name) is exported for lower in below
        ), name
        # ... and cached: the second access is a plain attribute.
        assert vars(module)[name] is exported


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_covers_all(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_exactly_all(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(PUBLIC_NAMES[package].split())


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_attribute_names_the_package(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError) as caught:
        module.no_such_name
    assert repr(package) in str(caught.value)
    assert "no_such_name" in str(caught.value)
    with pytest.raises(AttributeError):
        module._no_such_private_name
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})


@pytest.mark.parametrize("package", PACKAGES)
def test_exported_classes_pickle_by_their_defining_module(package):
    module = importlib.import_module(package)
    classes = [
        exported
        for exported in (getattr(module, name) for name in module.__all__)
        if inspect.isclass(exported) and _defined_in_repro(exported)
    ]
    for cls in classes:
        payload = pickle.dumps(cls, protocol=0)
        assert cls.__module__.encode() in payload
        assert cls.__module__ != package
        assert pickle.loads(payload) is cls


def test_null_observer_answers_every_observer_hook():
    import repro.obs
    from repro.obs import NULL_OBSERVER, Observer

    assert repro.obs.null.NULL_OBSERVER is NULL_OBSERVER

    hooks = [
        name for name, member in vars(Observer).items()
        if not name.startswith("_") and callable(member)
    ]
    assert set(hooks) == {"begin", "end", "event"}
    for name in hooks:
        assert getattr(NULL_OBSERVER, name)(1, key=2) is None
    assert NULL_OBSERVER.clock() == 0.0
    assert NULL_OBSERVER.enabled is False and NULL_OBSERVER.spans is None
    with pytest.raises(AttributeError):
        NULL_OBSERVER._private
    with pytest.raises(AttributeError):
        NULL_OBSERVER.lock_granted


#: Every option a constructor takes, recorded so that a new knob is
#: added on purpose: an option with no caller outside the tests is a
#: constant, not a parameter.
SIGNATURES = {
    "repro.engine:ParallelEngine": (
        "productions", "memory", "scheme", "matcher", "strategy",
        "processors", "seed", "observer", "retry_policy", "fault_injector",
    ),
    "repro.engine:ThreadedWaveExecutor": (
        "productions", "memory", "scheme", "matcher", "lock_timeout",
        "observer", "retry_policy", "fault_injector", "sleeper",
    ),
    "repro.engine:MultiUserEngine": (
        "sessions", "memory", "scheme", "matcher", "base_strategy",
        "processors", "seed", "observer", "retry_policy", "fault_injector",
    ),
    "repro.engine:Interpreter": (
        "productions", "memory", "matcher", "strategy", "seed",
    ),
    "repro.engine:ActionExecutor": ("memory",),
    "repro.match:PartitionedMatcher": (
        "memory", "shards", "inner", "backend", "assign", "cost_model",
        "observer", "procpool_timeout",
    ),
    "repro.match.procpool:ProcessPool": ("shards", "inner_name", "timeout"),
    "repro.wm.storage:DurableStore": (
        "memory", "directory", "fault_injector", "durability",
        "segment_max_records", "segment_max_bytes", "observer",
    ),
    "repro.obs:Observer": (
        "capacity", "clock", "level", "sample_rate", "sample_seed",
    ),
    "repro.obs:HealthMonitor": ("clock", "on_transition"),
    "repro.obs:QuantileSketch": ("name", "budget", "seed"),
    "repro.obs:MetricsRegistry.sketch": ("self", "name"),
    "repro.locks:DeadlockDetector": ("manager",),
}


@pytest.mark.parametrize("target", sorted(SIGNATURES))
def test_constructor_options_are_the_recorded_set(target):
    module_name, _, path = target.partition(":")
    obj = importlib.import_module(module_name)
    for attribute in path.split("."):
        obj = getattr(obj, attribute)
    assert tuple(inspect.signature(obj).parameters) == SIGNATURES[target]
