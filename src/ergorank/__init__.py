"""Finite-horizon ergodicity analysis for linear operators.

Core objects: operator specs with exact matrix-free application
(`OperatorSpec`, `apply`), Cesaro means computed by one overflow-guarded
incremental recurrence (`CesaroStream`), one-sided family verdicts
(`check_power_bounded`, `check_cesaro_bounded`, `check_ergodic`,
`check_uniformly_ergodic`, or all at once with `check_families`),
separation margins along an index chain (`chain_margins`, which trees,
certificate searches and the checker all read), separation-tree
truncations (`build_truncation`), and replayable non-convergence
certificates (`search_nse`, `check_certificate`).
"""

__version__ = "0.2.0"

from .operators import (
    OperatorSpec,
    ProbeSet,
    SpecValidationError,
    DimensionMismatchError,
    CapExceededError,
    apply,
    apply_columns,
    as_dense,
    matrix_norm,
    basis_probes,
    default_probes,
    gallery,
    built_in_gallery,
    DEFAULT_SEED,
)
from .cesaro import (
    CesaroStream,
    OVERFLOW_LIMIT,
)
from .classify import (
    Verdict,
    HOLDS,
    FAILS,
    INCONCLUSIVE,
    FamilyVerdicts,
    check_families,
    check_power_bounded,
    check_cesaro_bounded,
    check_ergodic,
    check_uniformly_ergodic,
    replay_witness,
    trusted_horizon,
)
from .tree import (
    NodeMembership,
    TreeTruncation,
    chain_margins,
    node_member,
    build_truncation,
    truncated_height,
    longest_members,
    tree_to_dot,
    node_key,
    key_to_seq,
)
from .certify import (
    NSECertificate,
    CheckResult,
    RankEstimate,
    check_certificate,
    search_nse,
    rank_estimate,
)
from .serialization import canonical_dumps, canonical_loads, sha256_hex

__all__ = [
    "__version__",
    "OperatorSpec",
    "ProbeSet",
    "SpecValidationError",
    "DimensionMismatchError",
    "CapExceededError",
    "apply",
    "apply_columns",
    "as_dense",
    "matrix_norm",
    "basis_probes",
    "default_probes",
    "gallery",
    "built_in_gallery",
    "DEFAULT_SEED",
    "CesaroStream",
    "OVERFLOW_LIMIT",
    "Verdict",
    "HOLDS",
    "FAILS",
    "INCONCLUSIVE",
    "FamilyVerdicts",
    "check_families",
    "check_power_bounded",
    "check_cesaro_bounded",
    "check_ergodic",
    "check_uniformly_ergodic",
    "replay_witness",
    "trusted_horizon",
    "NodeMembership",
    "TreeTruncation",
    "chain_margins",
    "node_member",
    "build_truncation",
    "truncated_height",
    "longest_members",
    "tree_to_dot",
    "node_key",
    "key_to_seq",
    "NSECertificate",
    "CheckResult",
    "RankEstimate",
    "check_certificate",
    "search_nse",
    "rank_estimate",
    "canonical_dumps",
    "canonical_loads",
    "sha256_hex",
]
