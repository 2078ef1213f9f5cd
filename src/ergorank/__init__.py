"""Finite-horizon ergodicity analysis for linear operators.

Core objects: operator specs with exact matrix-free application of a
column block (`OperatorSpec`, `apply_columns`), Cesaro means computed by
one overflow-guarded stream of running sums (`CesaroStream`), one-sided
family verdicts (`check_power_bounded`, `check_cesaro_bounded`,
`check_ergodic`, `check_uniformly_ergodic`, or all at once with
`check_families`), separation margins along an index chain
(`chain_margins`, which the certificate searches and the checker both
read), separation-tree truncations (`build_truncation`), and replayable
non-convergence certificates (`search_nse`, `check_certificate`).
"""

__version__ = "0.5.0"

from .operators import (
    OperatorSpec,
    ProbeSet,
    SpecValidationError,
    DimensionMismatchError,
    CapExceededError,
    apply_columns,
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
    TreeTruncation,
    chain_margins,
    build_truncation,
    truncated_height,
    tree_to_dot,
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
    "apply_columns",
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
    "TreeTruncation",
    "chain_margins",
    "build_truncation",
    "truncated_height",
    "tree_to_dot",
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
