"""SMT-aware thread-to-core allocation from dispatch-stage counters.

The package characterizes threads by where their dispatch slots go
(frontend stalls, backend stalls, useful dispatch), predicts pairwise
SMT slowdowns with per-category linear models, and assigns threads to
2-way SMT cores each quantum via minimum-weight perfect matching.
"""

from .counters import (
    RawCounterSample,
    TraceHeader,
    format_trace,
    open_trace,
    parse_counter_text,
    read_counter_file,
)
from .dispatch import (
    CATEGORIES,
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
    DISPATCH_WIDTH,
    POLICIES,
    AppSimState,
    EngineConfig,
    Phase,
    ScheduleLog,
    SimWorkload,
    SyntheticApp,
    cycles_per_quantum,
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
    TraceError,
    WorkloadError,
)
from .interference import (
    REFERENCE_COEFFICIENTS,
    CategoryCoefficients,
    ModelCoefficients,
    category_matrix,
    co_run_slowdowns,
    fold_prices,
    invert,
    invert_category,
    predict_pair,
)
from .matcher import (
    IDLE_NODE,
    SynergyGraph,
    build_graph,
    graph_from_matrix,
    min_weight_perfect_matching,
)
from .trainer import (
    AlignedSample,
    ProfileRecord,
    align,
    aligned_samples,
    evaluate,
    fit,
)

__version__ = "0.1.0"
