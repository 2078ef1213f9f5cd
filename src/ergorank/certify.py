"""Non-convergence certificates and entropy-style rank estimates.

A certificate pins down persistent separation of the Cesaro means along a
subsequence: an epsilon > 0, indices J = (j_1 < ... < j_{M+1}), and for
each level m = 1..M a unit-ball witness x_m whose consecutive means along
the first m+1 indices of J stay strictly more than epsilon apart.  Deeper
certificates are stronger; an unbounded supply of levels rules out uniform
ergodicity.

`search_nse` looks for certificates with two strategies: ``doubling``
fixes the dyadic subsequence 1, 2, 4, ... and picks the best witness per
level, while ``beam`` reuses the tree enumeration to pick the deepest
member chain.  `check_certificate` re-derives every stated margin from
scratch and rejects on any mismatch, so accepted certificates are
self-contained evidence.

The rank estimate reports, for separations 1/k over a k-grid, the height
of the enumerated separation tree; heights that keep growing with the
probe budget indicate higher-rank non-convergence structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .cesaro import CesaroStream, cesaro_diff, trajectory
from .operators import OperatorSpec, ProbeSet, UNIT_BALL_SLACK, column_norms, vec_norm
from .tree import (
    SEPARATION_SLACK,
    build_truncation,
    longest_members,
    node_member,
    truncated_height,
)

#: Recomputed margins must match stated ones to this absolute tolerance.
MARGIN_RTOL = 1e-9

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


def check_certificate(cert: NSECertificate, margin_tol: float = MARGIN_RTOL) -> CheckResult:
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
    beam_width: int = 8,
    max_nodes: int = 200_000,
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
        return _search_beam(
            spec, probes, epsilon, target_depth, index_bound, beam_width, max_nodes
        )
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


def _search_beam(spec, probes, epsilon, target_depth, index_bound, beam_width, max_nodes):
    bound = index_bound if index_bound is not None else 2 ** target_depth
    trunc = build_truncation(
        spec, epsilon, depth_cap=target_depth + 1, index_bound=bound,
        probes=probes, max_nodes=max_nodes,
    )
    chains = [seq for seq in longest_members(trunc) if len(seq) >= 2]
    if not chains:
        return None
    chains.sort()
    best = None
    for seq in chains[:beam_width]:
        result = node_member(spec, seq, epsilon, probes)
        if not result.member:
            continue
        score = (len(seq), min(result.margins))
        if best is None or score > best[0]:
            best = (score, seq, result)
    if best is None:
        return None
    _, seq, result = best
    depth = len(seq) - 1
    witness_vec = probes[result.witness].copy()
    return NSECertificate(
        operator=spec,
        epsilon=float(epsilon),
        J=tuple(seq),
        witnesses=[witness_vec.copy() for _ in range(depth)],
        margins=[[float(v) for v in result.margins[:m]] for m in range(1, depth + 1)],
        depth=depth,
        probe_label=probes.label,
    )


# -- rank estimate -------------------------------------------------------


@dataclass(eq=False)
class RankEstimate:
    """Tree heights across a grid of separations 1/k."""

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
    max_nodes: int = 200_000,
) -> RankEstimate:
    """Truncated tree height at separation 1/k for each k in the grid.

    Heights are witnessed lower bounds; `partial[i]` marks grids where the
    node budget stopped the walk early.
    """
    ks = [int(k) for k in ks]
    if any(k < 1 for k in ks):
        raise ValueError("k grid entries must be >= 1")
    heights = []
    partial = []
    epsilons = []
    for k in ks:
        eps = 1.0 / k
        trunc = build_truncation(
            spec, eps, depth_cap=depth_cap, index_bound=index_bound,
            probes=probes, max_nodes=max_nodes,
        )
        heights.append(truncated_height(trunc))
        partial.append(trunc.partial)
        epsilons.append(eps)
    return RankEstimate(
        ks=ks,
        epsilons=epsilons,
        heights=heights,
        partial=partial,
        depth_cap=depth_cap,
        index_bound=index_bound,
        probe_label=probes.label,
    )
