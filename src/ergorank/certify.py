"""Non-convergence certificates and entropy-style rank estimates.

A certificate pins down persistent separation of the Cesaro means along a
subsequence: an epsilon > 0, indices J = (j_1 < ... < j_{M+1}), and for
each level m = 1..M a unit-ball witness x_m whose consecutive means along
the first m+1 indices of J stay strictly more than epsilon apart.  Deeper
certificates are stronger; an unbounded supply of levels rules out uniform
ergodicity.

`search_nse` looks for certificates with two strategies: ``doubling``
fixes the dyadic subsequence 1, 2, 4, ... and picks the best witness per
level, while ``beam`` backtracks from `tree.best_chains` to the deepest
chain with the largest minimum margin; both apply the tree's one
separation rule, `tree.separates`, to minimum margins.  Every
certificate states the margins of its witnesses along J as
`tree.chain_margins` computes them, and `check_certificate` re-derives
each one from scratch with the same function and rejects on any mismatch,
so accepted certificates are self-contained evidence.

The rank estimate reports, for separations 1/k over a k-grid, the height
of the separation tree, read at every k off one `tree.best_chains` run;
heights that keep growing with the probe budget indicate higher-rank
non-convergence structure.  No tree is enumerated, so the estimate is
never cut short by a node budget.

An analysis forms one `tree.margin_tensor` (`_rank`), from the means its
probe pass wrote where that pass walked to the index bound, and hands it
to its doubling search (`_search`), whose table is then the tensor's
entries along the dyadic chain: the bits that `tree.chain_margins` gives
on the probe block, in `operators.column_norms`' summation order.  A
search on its own walks the block along the chain instead.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .operators import OperatorSpec, ProbeSet, UNIT_BALL_SLACK, _check_args, column_norms
from .tree import _margins, best_chains, chain_margins, margin_tensor, separates

#: Recomputed margins must match stated ones to this absolute tolerance.
MARGIN_ATOL = 1e-9

RANK_CONSTRUCT = "separation-tree truncation heights"
NSE_CONSTRUCT = "subsequence separation certificate"

#: Separation grid (epsilon = 1/k), chain length cap and index bound of a
#: rank estimate.
DEFAULT_KS = tuple(range(1, 9))
DEFAULT_DEPTH_CAP = 4
DEFAULT_INDEX_BOUND = 32


@dataclass(eq=False)
class NSECertificate:
    """Finite-depth separation certificate.

    `witnesses[m-1]` certifies level m: its margins along
    (J[0], ..., J[m]) are `margins[m-1]`, all strictly above `epsilon`.
    """

    operator: OperatorSpec
    epsilon: float
    J: tuple[int, ...]
    witnesses: list[np.ndarray]
    margins: list[list[float]]
    depth: int
    probe_label: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "version": 1,
            "operator": self.operator.to_json_dict(),
            "epsilon": self.epsilon,
            "J": list(self.J),
            "witnesses": [[float(v) for v in w] for w in self.witnesses],
            "margins": [[float(v) for v in row] for row in self.margins],
            "depth": self.depth,
            "probe_label": self.probe_label,
        }

    @classmethod
    def from_json_dict(cls, data) -> "NSECertificate":
        """The certificate a JSON document states, read exactly: a document
        that is not an object, or a field of another type or nesting than
        `to_json_dict` writes (a bool is no number), raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"certificate must be a JSON object, got {type(data).__name__}")
        try:
            if data.get("version") != 1:
                raise ValueError(f"unsupported certificate version {data.get('version')!r}")
            operator = OperatorSpec.from_json_dict(data["operator"])
            epsilon, J, witnesses, margins, depth = (
                data[k] for k in ("epsilon", "J", "witnesses", "margins", "depth")
            )
        except KeyError as exc:
            raise ValueError(f"certificate JSON is missing field {exc}") from exc
        integer = lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)
        number = lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
        rows = lambda v: isinstance(v, list) and all(isinstance(r, list) and all(map(number, r)) for r in v)
        for name, value, ok, what in (
            ("epsilon", epsilon, number(epsilon), "a number"),
            ("J", J, isinstance(J, list) and all(map(integer, J)), "a list of integers"),
            ("witnesses", witnesses, rows(witnesses), "a list of lists of numbers"),
            ("margins", margins, rows(margins), "a list of lists of numbers"),
            ("depth", depth, integer(depth), "an integer"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {what}, got {value!r}")
        witnesses = [np.asarray(w, dtype=float) for w in witnesses]
        margins = [[float(v) for v in row] for row in margins]
        J = tuple(int(v) for v in J)
        return cls(operator, float(epsilon), J, witnesses, margins, int(depth), data.get("probe_label"))


class CheckResult(NamedTuple):
    accepted: bool
    reason: str


def check_certificate(cert: NSECertificate) -> CheckResult:
    """Independent validation of a certificate.

    Checks run in a fixed order (structure, epsilon, J, witnesses, margin
    recomputation, separation) and stop at the first violation.
    """
    spec = cert.operator
    if not (isinstance(cert.epsilon, float) and math.isfinite(cert.epsilon) and cert.epsilon > 0):
        return CheckResult(False, "epsilon must be a positive finite number")
    if len(cert.J) < 2:
        return CheckResult(False, "J must contain at least two indices")
    if any(j < 1 for j in cert.J):
        return CheckResult(False, "J entries must be >= 1")
    if any(a >= b for a, b in zip(cert.J, cert.J[1:])):
        return CheckResult(False, "J must be strictly increasing")
    if cert.depth != len(cert.J) - 1:
        return CheckResult(False, "depth inconsistent with J")
    if len(cert.witnesses) != cert.depth:
        return CheckResult(False, "witness count must equal depth")
    for m, w in enumerate(cert.witnesses, start=1):
        if w.ndim != 1 or w.shape[0] != spec.dim:
            return CheckResult(False, f"witness {m} dimension mismatch")
        if not np.all(np.isfinite(w)):
            return CheckResult(False, f"witness {m} entries must be finite")
        if column_norms(w[:, None], spec.norm_tag)[0] > 1.0 + UNIT_BALL_SLACK:
            return CheckResult(False, f"witness {m} outside unit ball")
    if len(cert.margins) != cert.depth:
        return CheckResult(False, "margins shape inconsistent with depth")
    for m, row in enumerate(cert.margins, start=1):
        if len(row) != m:
            return CheckResult(False, "margins shape inconsistent with depth")
    for m, (w, row) in enumerate(zip(cert.witnesses, cert.margins), start=1):
        recomputed_row = chain_margins(spec, w[:, None], cert.J[: m + 1])[:, 0].tolist()
        if len(recomputed_row) < m:
            return CheckResult(False, f"witness {m} trajectory overflows")
        for p, recomputed in enumerate(recomputed_row, start=1):
            if abs(recomputed - row[p - 1]) > MARGIN_ATOL:
                return CheckResult(
                    False,
                    f"margin mismatch at level {m} pair {p}: "
                    f"stated {row[p - 1]!r}, recomputed {recomputed!r}",
                )
    for m, row in enumerate(cert.margins, start=1):
        for p, value in enumerate(row, start=1):
            if not value > cert.epsilon:
                return CheckResult(
                    False,
                    f"margin at level {m} pair {p} is {value!r}, "
                    f"not above epsilon {cert.epsilon!r}",
                )
    return CheckResult(True, "ok")


def search_nse(
    spec: OperatorSpec,
    probes: ProbeSet,
    epsilon: float,
    target_depth: int,
    index_bound: int | None = None,
    strategy: str = "doubling",
) -> NSECertificate | None:
    """Search for a certificate of depth up to `target_depth`.

    Returns the deepest certificate found (possibly shallower than the
    target) or None when not even one separated pair was witnessed.  The
    index bound defaults to 2 ** target_depth, the deepest dyadic index.
    """
    return _search(spec, probes, epsilon, target_depth, index_bound, strategy)


def _search(spec, probes, epsilon, target_depth, index_bound, strategy, margins=None):
    """`search_nse`, whose doubling search reads its table off `margins`,
    the block's `margin_tensor` to `index_bound`, where one is given."""
    if index_bound is None:
        index_bound = 2 ** target_depth
    _check_args({"epsilon": epsilon}, {"target_depth": target_depth, "index_bound": index_bound})
    if strategy == "doubling":
        return _search_doubling(spec, probes, epsilon, target_depth, index_bound, margins)
    if strategy == "beam":
        return _search_beam(spec, probes, epsilon, target_depth, index_bound)
    raise ValueError(f"unknown strategy {strategy!r}, expected doubling or beam")


def _search_doubling(spec, probes, epsilon, target_depth, index_bound, margins):
    t = min(target_depth, int(math.floor(math.log2(index_bound))))
    J = tuple(2 ** i for i in range(t + 1))
    # (pairs, n_probes): the bits of `chain_margins` on the block either way
    # (see `margin_tensor`).  Past the overflow stop, `chain_margins` has no
    # rows and the tensor has -inf, and no index separates there.  A lone
    # search walks the block to J[-1] instead of forming a B^2 tensor.
    if margins is None:
        table = chain_margins(spec, probes.vectors.T, J)
    else:
        table = margins[np.array(J[:-1], dtype=np.intp), np.array(J[1:], dtype=np.intp)]
    # lowest[m - 1, q]: the minimum margin of probe q over the first m
    # pairs; level m separates where it does, and it never grows with m.
    lowest = np.minimum.accumulate(table, axis=0)
    depth = int(np.count_nonzero(separates(lowest.max(axis=1), epsilon)))
    if depth < 1:
        return None
    witness_probes = [int(np.argmax(lowest[m])) for m in range(depth)]
    return _certificate(spec, probes, epsilon, J[: depth + 1], witness_probes)


def _search_beam(spec, probes, epsilon, target_depth, index_bound):
    """The deepest separated chain J of at most target_depth + 1 indices
    <= the bound, then the largest minimum margin along it; ties go to
    the lowest probe, then the lexicographically smallest J."""
    margins = margin_tensor(spec, probes, index_bound)
    best = best_chains(margins, target_depth)
    # A chain separates exactly when its minimum margin does; level 0
    # always does, and no level separates once one fails.
    depth = int(np.count_nonzero(separates(best.max(axis=(1, 2)), epsilon))) - 1
    if depth < 1:
        return None
    top = best[depth]
    value = top.max()
    q = int(np.flatnonzero((top == value).any(axis=0))[0])
    J = [int(np.flatnonzero(top[:, q] == value)[0])]
    # Every pair on the way clears `value`, which separates.
    for level in range(depth - 1, -1, -1):
        reach = np.minimum(margins[J[-1], :, q], best[level][:, q])
        J.append(int(np.flatnonzero(reach >= value)[0]))
    return _certificate(spec, probes, epsilon, J, [q] * depth)


def _certificate(spec, probes, epsilon, J, witness_probes):
    """The certificate on J whose level m is witnessed by probe
    `witness_probes[m - 1]`.  It states the margins the checker recomputes,
    from one `chain_margins` pass per distinct probe, up to the deepest
    level that probe witnesses: the block arithmetic of a search can differ
    in the last bits, which is more than MARGIN_ATOL once the means are
    large."""
    last = {q: m for m, q in enumerate(witness_probes, start=1)}
    rows = {
        q: chain_margins(spec, probes[q][:, None], J[: m + 1])[:, 0].tolist()
        for q, m in last.items()
    }
    return NSECertificate(
        operator=spec,
        epsilon=float(epsilon),
        J=tuple(J),
        witnesses=[probes[q].copy() for q in witness_probes],
        margins=[rows[q][:m] for m, q in enumerate(witness_probes, start=1)],
        depth=len(witness_probes),
        probe_label=probes.label,
    )


# -- rank estimate -------------------------------------------------------


@dataclass(eq=False)
class RankEstimate:
    """Tree heights across a grid of separations 1/k.  No node budget cuts
    them short; the JSON keeps an all-false `partial` list for its shape."""

    ks: list[int]
    epsilons: list[float]
    heights: list[int]
    depth_cap: int
    index_bound: int
    probe_label: str

    def to_json_dict(self) -> dict:
        return {
            "construct": RANK_CONSTRUCT,
            "ks": list(self.ks),
            "epsilons": list(self.epsilons),
            "heights": list(self.heights),
            "partial": [False] * len(self.ks),
            "depth_cap": self.depth_cap,
            "index_bound": self.index_bound,
            "probe_label": self.probe_label,
        }


def rank_estimate(
    spec: OperatorSpec,
    probes: ProbeSet,
    ks: Sequence[int] = DEFAULT_KS,
    depth_cap: int = DEFAULT_DEPTH_CAP,
    index_bound: int = DEFAULT_INDEX_BOUND,
) -> RankEstimate:
    """Tree height at separation 1/k for each k in the grid.

    Heights are witnessed lower bounds, read from one `best_chains` run:
    the height at epsilon counts the chain lengths up to `depth_cap` whose
    largest minimum margin separates.  They are never partial.
    """
    return _rank(spec, probes, ks, depth_cap, index_bound)[0]


def _rank(spec, probes, ks, depth_cap, index_bound, means=None):
    """`rank_estimate` and the `margin_tensor` it reads, which an analysis
    hands on to its doubling search (`_search`).  Given `means`, the probe
    block's A_1..A_r that the analysis's probe pass wrote (r = the index
    bound, or the overflow stop before it; `classify._leading_means`), the
    tensor reads them and walks no step."""
    ks = [int(k) for k in ks]
    _check_args(at_least_one={"k grid entries": min(ks, default=1), "depth_cap": depth_cap})
    epsilons = [1.0 / k for k in ks]
    margins = margin_tensor(spec, probes, index_bound) if means is None else _margins(means, index_bound, spec.norm_tag)
    peaks = best_chains(margins, depth_cap - 1).max(axis=(1, 2))
    estimate = RankEstimate(
        ks=ks,
        epsilons=epsilons,
        heights=[int(np.count_nonzero(separates(peaks, eps))) for eps in epsilons],
        depth_cap=depth_cap,
        index_bound=index_bound,
        probe_label=probes.label,
    )
    return estimate, margins
