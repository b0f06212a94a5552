"""SMT-aware thread-to-core allocation from dispatch-stage counters.

The package characterizes threads by where their dispatch slots go
(frontend stalls, backend stalls, useful dispatch), predicts pairwise
SMT slowdowns with per-category linear models, and assigns threads to
2-way SMT cores each quantum via minimum-weight perfect matching.
"""

from .counters import (
    COMMITTED_COLUMN,
    TRACE_COLUMNS,
    TRACE_VERSION,
    RawCounterSample,
    TraceHeader,
    format_trace,
    open_trace,
    parse_counter_text,
    read_counter_file,
    write_trace,
)
from .dispatch import (
    BACKEND_BOUND_THRESHOLD,
    CATEGORIES,
    FRONTEND_BOUND_THRESHOLD,
    UNIFORM_VECTOR,
    AppClass,
    CategoryBreakdown,
    CategoryTriple,
    CategoryVector,
    characterize,
    classify,
    normalize,
)
from .engine import (
    CYCLES_PER_MS,
    POLICIES,
    AppSimState,
    EngineConfig,
    Phase,
    QuantumRecord,
    ScheduleLog,
    SimWorkload,
    StepResult,
    SyntheticApp,
    initial_assignment,
    run,
    sim_step,
    trace_from_log,
)
from .errors import (
    AlignmentError,
    ConfigError,
    DegenerateSampleError,
    FitError,
    MatchingError,
    ModelError,
    RankDeficientError,
    RosterError,
    SynpaError,
    TraceError,
    WorkloadError,
)
from .harness import (
    RECIPES,
    AggregateReport,
    MetricsReport,
    WorkloadSpec,
    aggregate_runs,
    classify_app,
    compute_metrics,
    fairness,
    gen_workload,
    ipc_geomean,
    load_log_summary,
    make_synthetic_app,
    make_synthetic_roster,
    metrics_csv,
    turnaround_time,
)
from .interference import (
    REFERENCE_COEFFICIENTS,
    CategoryCoefficients,
    InversionResult,
    ModelCoefficients,
    PairPrediction,
    forward,
    invert,
    invert_category,
    load_coefficients,
    predict_pair,
    save_coefficients,
)
from .matcher import (
    IDLE_NODE,
    Matching,
    SynergyGraph,
    build_graph,
    canonical_total,
    min_weight_perfect_matching,
)
from .trainer import (
    AlignedSample,
    AlignmentResult,
    FitReport,
    Profile,
    ProfileRecord,
    align,
    evaluate,
    fit,
    load_profiles,
)

__version__ = "0.1.0"
