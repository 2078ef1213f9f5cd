"""Non-convergence certificates and entropy-style rank estimates.

A certificate pins down persistent separation of the Cesaro means along a
subsequence: an epsilon > 0, indices J = (j_1 < ... < j_{M+1}), and for
each level m = 1..M a unit-ball witness x_m whose consecutive means along
the first m+1 indices of J stay strictly more than epsilon apart.  Deeper
certificates are stronger; an unbounded supply of levels rules out uniform
ergodicity.

`search_nse` looks for certificates with two strategies: ``doubling``
fixes the dyadic subsequence 1, 2, 4, ... and picks the best witness per
level, while ``beam`` runs a dynamic-programming argmax over the tree's
pair-margin tensor for the deepest chain with the largest minimum margin.
`check_certificate` re-derives every stated margin from scratch and
rejects on any mismatch, so accepted certificates are self-contained
evidence.

The rank estimate reports, for separations 1/k over a k-grid, the height
of the separation tree, computed by dynamic programming over one margin
tensor; heights that keep growing with the probe budget indicate
higher-rank non-convergence structure.  No tree is enumerated, so the
estimate is never cut short by a node budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .cesaro import CesaroStream, cesaro_diff, trajectory
from .operators import OperatorSpec, ProbeSet, UNIT_BALL_SLACK, column_norms, vec_norm
from .tree import SEPARATION_SLACK, margin_tensor, tree_height

#: Recomputed margins must match stated ones to this absolute tolerance.
MARGIN_ATOL = 1e-9

RANK_CONSTRUCT = "separation-tree truncation heights"
NSE_CONSTRUCT = "subsequence separation certificate"


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
    def from_json_dict(cls, data: dict) -> "NSECertificate":
        try:
            if data.get("version") != 1:
                raise ValueError(f"unsupported certificate version {data.get('version')!r}")
            return cls(
                operator=OperatorSpec.from_json_dict(data["operator"]),
                epsilon=float(data["epsilon"]),
                J=tuple(int(v) for v in data["J"]),
                witnesses=[np.asarray(w, dtype=float) for w in data["witnesses"]],
                margins=[[float(v) for v in row] for row in data["margins"]],
                depth=int(data["depth"]),
                probe_label=data.get("probe_label"),
            )
        except KeyError as exc:
            raise ValueError(f"certificate JSON is missing field {exc}") from exc


class CheckResult(NamedTuple):
    accepted: bool
    reason: str


def check_certificate(cert: NSECertificate, margin_tol: float = MARGIN_ATOL) -> CheckResult:
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
        if vec_norm(w, spec.norm_tag) > 1.0 + UNIT_BALL_SLACK:
            return CheckResult(False, f"witness {m} outside unit ball")
    if len(cert.margins) != cert.depth:
        return CheckResult(False, "margins shape inconsistent with depth")
    for m, row in enumerate(cert.margins, start=1):
        if len(row) != m:
            return CheckResult(False, "margins shape inconsistent with depth")
    for m, (w, row) in enumerate(zip(cert.witnesses, cert.margins), start=1):
        traj = trajectory(spec, w, cert.J[m])
        if traj.horizon < cert.J[m]:
            return CheckResult(False, f"witness {m} trajectory overflows")
        for p in range(1, m + 1):
            recomputed = cesaro_diff(traj, cert.J[p - 1], cert.J[p])
            if abs(recomputed - row[p - 1]) > margin_tol:
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
    target) or None when not even one separated pair was witnessed.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if target_depth < 1:
        raise ValueError(f"target_depth must be >= 1, got {target_depth}")
    if strategy == "doubling":
        return _search_doubling(spec, probes, epsilon, target_depth, index_bound)
    if strategy == "beam":
        return _search_beam(spec, probes, epsilon, target_depth, index_bound)
    raise ValueError(f"unknown strategy {strategy!r}, expected doubling or beam")


def _search_doubling(spec, probes, epsilon, target_depth, index_bound):
    t = target_depth
    if index_bound is not None:
        if index_bound < 2:
            return None
        t = min(t, int(math.floor(math.log2(index_bound))))
    J = tuple(2 ** i for i in range(t + 1))
    snaps = CesaroStream(spec, probes.vectors.T).means_at(J)
    # Indices past the overflow stop never separate.
    J = J[: len(snaps)]
    if len(J) < 2:
        return None
    table = np.stack(
        [
            column_norms(snaps[a] - snaps[b], spec.norm_tag)
            for a, b in zip(J, J[1:])
        ]
    )  # (t, n_probes)
    # Same slack as tree membership: boundary-exact margins are not
    # separation, only float dust puts them above epsilon.
    separated = table > epsilon + SEPARATION_SLACK
    # depth_per_probe[p]: number of leading separated pairs for probe p.
    cum = np.cumprod(separated, axis=0)
    depth_per_probe = cum.sum(axis=0)
    depth = int(min(target_depth, depth_per_probe.max(initial=0)))
    if depth < 1:
        return None
    witnesses = []
    margins = []
    for m in range(1, depth + 1):
        feasible = depth_per_probe >= m
        scores = np.where(feasible, table[:m].min(axis=0), -np.inf)
        p = int(np.argmax(scores))
        witnesses.append(probes[p].copy())
        margins.append([float(v) for v in table[:m, p]])
    return NSECertificate(
        operator=spec,
        epsilon=float(epsilon),
        J=J[: depth + 1],
        witnesses=witnesses,
        margins=margins,
        depth=depth,
        probe_label=probes.label,
    )


def _search_beam(spec, probes, epsilon, target_depth, index_bound):
    """The deepest separated chain J of at most target_depth + 1 indices
    <= the bound, then the largest minimum margin along it; ties go to
    the lowest probe, then the lexicographically smallest J."""
    bound = index_bound if index_bound is not None else 2 ** target_depth
    # Pair margins, with -inf where the pair does not separate.
    usable = margin_tensor(spec, probes, bound)
    usable[~(usable > epsilon + SEPARATION_SLACK)] = -np.inf
    # best[d][n, q]: the largest minimum margin over chains of d + 1
    # indices starting at n that probe q separates; -inf when none exists.
    best = [np.full(usable.shape[1:], np.inf)]
    while len(best) <= target_depth:
        deeper = np.minimum(usable, best[-1][None, :, :]).max(axis=1)
        if not (deeper > -np.inf).any():
            break
        best.append(deeper)
    depth = len(best) - 1
    if depth < 1:
        return None
    top = best[depth]
    value = top.max()
    q = int(np.flatnonzero((top == value).any(axis=0))[0])
    J = [int(np.flatnonzero(top[:, q] == value)[0])]
    for level in range(depth - 1, -1, -1):
        reach = np.minimum(usable[J[-1], :, q], best[level][:, q])
        J.append(int(np.flatnonzero(reach >= value)[0]))
    # State the margins the checker recomputes from one probe: the block
    # arithmetic behind the tensor can differ in the last bits, which is
    # more than MARGIN_ATOL once the means are large.
    traj = trajectory(spec, probes[q], J[-1])
    row = [cesaro_diff(traj, a, b) for a, b in zip(J, J[1:])]
    return NSECertificate(
        operator=spec,
        epsilon=float(epsilon),
        J=tuple(J),
        witnesses=[probes[q].copy() for _ in range(depth)],
        margins=[row[:m] for m in range(1, depth + 1)],
        depth=depth,
        probe_label=probes.label,
    )


# -- rank estimate -------------------------------------------------------


@dataclass(eq=False)
class RankEstimate:
    """Tree heights across a grid of separations 1/k.

    `partial` is all False: heights come from dynamic programming, which no
    node budget cuts short.  The field keeps the report shape.
    """

    ks: list[int]
    epsilons: list[float]
    heights: list[int]
    partial: list[bool]
    depth_cap: int
    index_bound: int
    probe_label: str

    def to_json_dict(self) -> dict:
        return {
            "construct": RANK_CONSTRUCT,
            "ks": list(self.ks),
            "epsilons": list(self.epsilons),
            "heights": list(self.heights),
            "partial": list(self.partial),
            "depth_cap": self.depth_cap,
            "index_bound": self.index_bound,
            "probe_label": self.probe_label,
        }


def rank_estimate(
    spec: OperatorSpec,
    probes: ProbeSet,
    ks: Sequence[int] = tuple(range(1, 9)),
    depth_cap: int = 4,
    index_bound: int = 32,
) -> RankEstimate:
    """Tree height at separation 1/k for each k in the grid.

    Heights are witnessed lower bounds, read by dynamic programming from
    one margin tensor; they are never partial, and `partial` is all False.
    """
    ks = [int(k) for k in ks]
    if any(k < 1 for k in ks):
        raise ValueError("k grid entries must be >= 1")
    epsilons = [1.0 / k for k in ks]
    margins = margin_tensor(spec, probes, index_bound)
    return RankEstimate(
        ks=ks,
        epsilons=epsilons,
        heights=[tree_height(margins, eps, depth_cap) for eps in epsilons],
        partial=[False] * len(ks),
        depth_cap=depth_cap,
        index_bound=index_bound,
        probe_label=probes.label,
    )
