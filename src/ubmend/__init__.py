"""Dual-phase repair of undefined behavior in Rust code.

Fast thinking drafts candidate repair plans from detector diagnostics and
unsafe-region features; slow thinking executes them step by step against a
working copy, rolling back when the error trace degrades, and every outcome
feeds a knowledge base that biases the next repair.
"""
from .classifier import (
    CodeFeature,
    FixStrategy,
    UnsafeOpKind,
    UnsafeRegion,
    classify_ops,
    locate_unsafe_regions,
    map_strategies,
)
from .detector import (
    DetectionResult,
    DetectorConfig,
    TargetPackage,
    UbKind,
    UbReport,
    classify_kind,
    parse_diagnostics,
    run_detection,
)
from .errors import UbmendError
from .fast import (
    AgentKind,
    Provenance,
    RepairSolution,
    RepairStep,
    extract_features,
    generate_solutions,
)
from .feedback import (
    EvalTriplet,
    ExperienceRecord,
    FeedbackEngine,
    ReferenceBundle,
)
from .kb import (
    FeatureVector,
    KnowledgeBase,
    KnowledgeEntry,
    prune,
    vectorize,
)
from .provider import (
    PromptRecord,
    Provider,
    ProviderConfig,
    ProviderMode,
    create_provider,
)
from .rollback import SnapshotStore, argmin_rollback_target
from .slow import (
    ErrorTrace,
    SessionConfig,
    SessionOutcome,
    Thought,
    Verdict,
    run_session,
    should_rollback,
)
from .workspace import WorkingCopy

__version__ = "0.1.0"

__all__ = [
    "AgentKind",
    "CodeFeature",
    "DetectionResult",
    "DetectorConfig",
    "ErrorTrace",
    "EvalTriplet",
    "ExperienceRecord",
    "FeatureVector",
    "FeedbackEngine",
    "FixStrategy",
    "KnowledgeBase",
    "KnowledgeEntry",
    "PromptRecord",
    "Provenance",
    "Provider",
    "ProviderConfig",
    "ProviderMode",
    "ReferenceBundle",
    "RepairSolution",
    "RepairStep",
    "SessionConfig",
    "SessionOutcome",
    "SnapshotStore",
    "TargetPackage",
    "Thought",
    "UbKind",
    "UbReport",
    "UbmendError",
    "UnsafeOpKind",
    "UnsafeRegion",
    "Verdict",
    "WorkingCopy",
    "argmin_rollback_target",
    "classify_kind",
    "classify_ops",
    "create_provider",
    "extract_features",
    "generate_solutions",
    "locate_unsafe_regions",
    "map_strategies",
    "parse_diagnostics",
    "prune",
    "run_detection",
    "run_session",
    "should_rollback",
    "vectorize",
    "__version__",
]
