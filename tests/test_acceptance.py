"""Acceptance suite: one test per top-level criterion.

Each test prints a single ``[criterion N] PASS`` line on success; the
pytest -v listing therefore shows one pass/fail line per criterion.  All
expected values are recomputed here by independent oracles (direct power
summation, eigendecomposition, closed-form shift norms) rather than taken
from the library under test.
"""

import math
import time
from pathlib import Path

import numpy as np

from ergorank.certify import NSECertificate, check_certificate, search_nse
from ergorank.cesaro import CesaroStream
from ergorank.classify import (
    FAILS,
    HOLDS,
    check_cesaro_bounded,
    check_ergodic,
    check_power_bounded,
    check_uniformly_ergodic,
    replay_witness,
    trusted_horizon,
)
from ergorank.cli import main
from ergorank.operators import (
    KIND_DENSE,
    OperatorSpec,
    ProbeSet,
    basis_probes,
    built_in_gallery,
    default_probes,
    gallery,
    matrix_norm,
)
from ergorank.serialization import canonical_dumps, canonical_loads
from ergorank.tree import TreeTruncation, build_truncation, truncated_height
from reference import as_dense

FIXTURES = Path(__file__).parent / "fixtures"


def _rel_ok(diff: float, scale: float, tol: float) -> bool:
    return diff <= tol * max(1.0, scale)


def _means(spec, X, horizon):
    """A_1 X .. A_horizon X and the stream's overflow stop (X = I: dense)."""
    stream = CesaroStream(spec, X)
    return list(stream.means_at(range(1, horizon + 1)).values()), stream.diverged_at


# -- criterion 1: Cesaro engine identities --------------------------------

def test_criterion_1_cesaro_identities():
    t_start = time.perf_counter()
    dims = [2, 3, 4, 6, 8, 12, 16, 24, 32]
    horizons = [100, 250, 500, 1000]
    worst_recur = worst_tele = worst_mean = 0.0
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        d = dims[i % len(dims)]
        n_max = horizons[i % len(horizons)]
        mat = rng.standard_normal((d, d))
        rho = max(np.abs(np.linalg.eigvals(mat)))
        if rho > 1e-12:
            mat = mat / rho
        if i % 2:
            mat = 0.9 * mat
        spec = OperatorSpec(KIND_DENSE, d, mat, "l2")
        x = rng.standard_normal(d)
        x = x / np.linalg.norm(x)

        means, diverged_at = _means(spec, x[:, None], n_max)
        assert diverged_at is None
        y = x - mat @ x
        means_y, _ = _means(spec, y[:, None], n_max)

        # independent direct summation of powers
        s = x.copy()
        power = mat @ x
        for n in range(1, n_max + 1):
            direct = s / n
            diff = np.linalg.norm(means[n - 1][:, 0] - direct)
            scale = np.linalg.norm(direct)
            assert _rel_ok(diff, scale, 1e-10), f"case {i}: recurrence vs direct at n={n}"
            worst_recur = max(worst_recur, diff / max(1.0, scale))

            tele = np.linalg.norm(
                (n + 1) * means[n][:, 0] - n * means[n - 1][:, 0] - power
            ) if n < n_max else 0.0
            if n < n_max:
                assert _rel_ok(tele, np.linalg.norm(power), 1e-9), \
                    f"case {i}: telescoping at n={n}"
                worst_tele = max(worst_tele, tele / max(1.0, np.linalg.norm(power)))

            mean_rhs = (x - power) / n
            mean_diff = np.linalg.norm(means_y[n - 1][:, 0] - mean_rhs)
            assert _rel_ok(mean_diff, np.linalg.norm(mean_rhs), 1e-9), \
                f"case {i}: mean identity at n={n}"
            worst_mean = max(worst_mean, mean_diff / max(1.0, np.linalg.norm(mean_rhs)))

            s += power
            power = mat @ power

    elapsed = time.perf_counter() - t_start
    assert elapsed < 30.0, f"criterion 1 exceeded 30 s ({elapsed:.1f} s)"
    print(
        f"[criterion 1] PASS: 20 dense cases, worst recurrence dev "
        f"{worst_recur:.2e} (<=1e-10), telescoping {worst_tele:.2e} and mean "
        f"identity {worst_mean:.2e} (<=1e-9), {elapsed:.1f} s"
    )


# -- criterion 2: spectral oracle agreement --------------------------------

def test_criterion_2_spectral_oracle():
    t_start = time.perf_counter()
    n_horizon = 5000
    disagreements = []
    for i in range(20):
        seed = 100 + i
        d = 2 + (i * 5) % 15
        spec = gallery(f"random_diagonalizable({seed},{d})")
        mat = as_dense(spec)
        w, v = np.linalg.eigh(mat)
        assert np.all(np.abs(w) <= 1.0 + 1e-9)
        one_mask = np.abs(w - 1.0) < 0.075
        rest = w[~one_mask]
        gamma = float(np.min(np.abs(1.0 - rest))) if rest.size else None
        if gamma is not None:
            assert gamma >= 0.15 - 1e-9
        p1 = v[:, one_mask] @ v[:, one_mask].T

        probes = default_probes(spec)
        verdict = check_ergodic(spec, probes, n_horizon, 0.05)
        if verdict.status != HOLDS:
            disagreements.append(f"seed {seed}: status {verdict.status}")
            continue

        diam_max = max(verdict.evidence["tail_diameter_ub"])
        rate_cap = 10.0 * (2.0 / (n_horizon * gamma)) + 1e-9 if gamma else 1e-9
        if not diam_max < rate_cap:
            disagreements.append(f"seed {seed}: tail diam {diam_max} >= {rate_cap}")

        # direct power summation oracle: A_N X vs the eigenprojection
        x_cols = probes.vectors.T
        s = x_cols.copy()
        power = mat @ x_cols
        for _ in range(1, n_horizon):
            s += power
            power = mat @ power
        mean_n = s / n_horizon
        proj = p1 @ x_cols
        resid = np.linalg.norm(mean_n - proj, axis=0)
        cap = (2.0 / (n_horizon * gamma) if gamma else 0.0) + 1e-9
        if not np.all(resid <= cap):
            disagreements.append(f"seed {seed}: projection residual {resid.max()} > {cap}")

    elapsed = time.perf_counter() - t_start
    assert not disagreements, "; ".join(disagreements)
    assert elapsed < 60.0, f"criterion 2 exceeded 60 s ({elapsed:.1f} s)"
    print(
        f"[criterion 2] PASS: 20 diagonalizable cases, ergodic holds with "
        f"tail diameters below the spectral rate cap, eigenprojection "
        f"residuals in bound, 0 disagreements, {elapsed:.1f} s"
    )


# -- criterion 3: shift example with exact margins --------------------------

def _shift_mean_direct(dim: int, k: int, j: int) -> np.ndarray:
    # brute-force A_j e_k for the left shift: T^p e_k = e_{k-p} (p <= k)
    out = np.zeros(dim)
    for p in range(j):
        if k - p >= 0:
            out[k - p] += 1.0 / j
    return out


def test_criterion_3_shift_example():
    t_start = time.perf_counter()
    spec = gallery("left_shift_l1(256)")
    probes = basis_probes(256, "l1")
    assert probes.label == "canonical-basis-0..31"

    verdict = check_ergodic(spec, probes, 10_000, 1e-2)
    assert verdict.status == HOLDS

    cert = search_nse(spec, probes, 0.5, 6, index_bound=64)
    assert cert is not None and cert.depth == 5
    assert cert.J == (1, 2, 4, 8, 16, 32)

    worst = 0.0
    for m, (witness, row) in enumerate(zip(cert.witnesses, cert.margins), start=1):
        assert np.count_nonzero(witness) == 1
        k = int(np.argmax(witness))
        for p in range(1, m + 1):
            a, b = cert.J[p - 1], cert.J[p]
            direct = float(np.abs(
                _shift_mean_direct(256, k, a) - _shift_mean_direct(256, k, b)
            ).sum())
            assert abs(direct - row[p - 1]) <= 1e-9
            assert abs(direct - 2.0 * (1.0 - a / b)) <= 1e-12
            assert abs(row[p - 1] - 1.0) <= 1e-9
            worst = max(worst, abs(row[p - 1] - 1.0))

    assert check_certificate(cert).accepted

    base = cert.to_json_dict()
    tampered = [
        dict(base, epsilon=1.5),
        dict(base, witnesses=[[2.0 * v for v in w] for w in base["witnesses"]]),
        dict(base, J=list(reversed(base["J"]))),
    ]
    for data in tampered:
        assert not check_certificate(NSECertificate.from_json_dict(data)).accepted

    elapsed = time.perf_counter() - t_start
    assert elapsed < 10.0, f"criterion 3 exceeded 10 s ({elapsed:.1f} s)"
    print(
        f"[criterion 3] PASS: shift(256) ergodic holds at tol 1e-2, depth-5 "
        f"certificate at separation 1/2 with margins within {worst:.1e} of "
        f"1.0 (brute-force verified), checker accepts it and rejects all 3 "
        f"tamperings, {elapsed:.1f} s"
    )


# -- criterion 4: tree invariants -------------------------------------------

_EPS_GRID = (1.0, 0.5, 0.25, 0.125)
_DEPTHS = (2, 3, 4, 5)
_BOUNDS = (4, 8, 16, 32)
_TREE_BUDGET = 250_000


def _prefixes_closed(trunc: TreeTruncation) -> bool:
    # Every member's parent (its key minus the last index) is a member; by
    # induction on length, so is every proper prefix.
    member_set = set(trunc.members)
    return all(key[: key.rfind(",")] in member_set for key in trunc.members if "," in key)


def test_prefix_closure_check_rejects_a_missing_parent():
    def truncation(members):
        return TreeTruncation(0.5, 3, 4, "p", members, dict.fromkeys(members), False)

    assert _prefixes_closed(truncation(["1", "1,2", "1,2,3"]))
    assert not _prefixes_closed(truncation(["1", "1,2,3"]))


def test_criterion_4_tree_invariants():
    cases = 0
    violations = []
    for name in built_in_gallery():
        spec = gallery(name)
        probes = default_probes(spec)

        # exact pairwise mean distances, for the suppression property
        all_mats, diverged_at = _means(spec, np.eye(spec.dim), max(_BOUNDS))
        assert diverged_at is None
        pair_max = {}
        for bound in _BOUNDS:
            mats = all_mats[:bound]
            pair_max[bound] = max(
                (
                    matrix_norm(mats[n] - mats[m], spec.norm_tag)
                    for n in range(bound)
                    for m in range(n + 1, bound)
                ),
                default=0.0,
            )

        truncs = {}
        for eps in _EPS_GRID:
            for depth_cap in _DEPTHS:
                for bound in _BOUNDS:
                    trunc = build_truncation(
                        spec, eps, depth_cap=depth_cap, index_bound=bound,
                        probes=probes, max_nodes=_TREE_BUDGET,
                    )
                    truncs[(eps, depth_cap, bound)] = trunc
                    cases += 1
                    if trunc.partial:
                        violations.append(f"{name} {eps} D={depth_cap} B={bound}: partial")
                    if not _prefixes_closed(trunc):
                        violations.append(f"{name} {eps} D={depth_cap} B={bound}: prefix")
                    if name == "identity(8)" and truncated_height(trunc) != 1:
                        violations.append(f"identity height != 1 at eps={eps}")
                    if pair_max[bound] <= eps and any(
                        "," in key for key in trunc.members
                    ):
                        violations.append(
                            f"{name} {eps} B={bound}: member pair despite exact "
                            f"max distance {pair_max[bound]}"
                        )

        for eps in _EPS_GRID:
            for bound in _BOUNDS:
                heights = [truncated_height(truncs[(eps, d, bound)]) for d in _DEPTHS]
                if heights != sorted(heights):
                    violations.append(f"{name} {eps} B={bound}: height not monotone in D")
            for depth_cap in _DEPTHS:
                heights = [truncated_height(truncs[(eps, depth_cap, b)]) for b in _BOUNDS]
                if heights != sorted(heights):
                    violations.append(f"{name} {eps} D={depth_cap}: height not monotone in B")

        for depth_cap in _DEPTHS:
            for bound in _BOUNDS:
                for hi, lo in zip(_EPS_GRID, _EPS_GRID[1:]):
                    upper = set(truncs[(hi, depth_cap, bound)].members)
                    lower = set(truncs[(lo, depth_cap, bound)].members)
                    if not upper <= lower:
                        violations.append(
                            f"{name} D={depth_cap} B={bound}: members at eps={hi} "
                            f"not within eps={lo}"
                        )

        # growing probe count never loses members
        counts = sorted({1, min(2, spec.dim), min(4, spec.dim),
                         min(8, spec.dim), min(32, spec.dim)})
        heights = []
        for count in counts:
            few = ProbeSet(np.eye(spec.dim)[:count], spec.norm_tag, f"canonical-basis-0..{count - 1}")
            trunc = build_truncation(
                spec, 0.25, depth_cap=4, index_bound=16,
                probes=few, max_nodes=_TREE_BUDGET,
            )
            cases += 1
            heights.append(truncated_height(trunc))
        if heights != sorted(heights):
            violations.append(f"{name}: height not monotone in probe count")

    assert cases >= 500
    assert not violations, f"{len(violations)} violations: " + "; ".join(violations[:5])
    print(
        f"[criterion 4] PASS: {cases} truncations across gallery x eps-grid "
        f"x depth x index bound; prefix closure, antitonicity, monotone "
        f"heights, identity height 1, suppression: 0 violations"
    )


# -- criterion 5: hierarchy consistency --------------------------------------

def test_criterion_5_hierarchy():
    tol = 0.125
    horizon = 10_000
    checked_ue_holds = []
    for name in built_in_gallery():
        spec = gallery(name)
        probes = default_probes(spec)

        ue = check_uniformly_ergodic(
            spec, trusted_horizon(spec, 256), tol, probes=probes
        )
        if ue.status == HOLDS:
            checked_ue_holds.append(name)
            for eps in (1.0, 0.5):  # grid entries with eps >= 4 * tol
                cert = search_nse(spec, probes, eps, 5, index_bound=32)
                assert cert is None or cert.depth < 5, (
                    f"{name}: norm-level holds but a depth-5 certificate "
                    f"exists at eps={eps}"
                )

        pb = check_power_bounded(spec, probes, horizon, 1e3)
        if pb.status == HOLDS:
            cb = check_cesaro_bounded(spec, probes, horizon, 1e3)
            assert cb.status != FAILS, f"{name}: power-bounded holds but mean-bounded fails"

    jordan = gallery("jordan_1(2)")
    probes = default_probes(jordan)
    cb = check_cesaro_bounded(jordan, probes, horizon, 1e3)
    assert cb.status == FAILS and cb.witness is not None
    value, still_violates = replay_witness(jordan, cb, probes)
    assert still_violates
    assert value == cb.witness["value"]

    assert checked_ue_holds, "no norm-level holds verdicts in the gallery"
    print(
        f"[criterion 5] PASS: {len(checked_ue_holds)} norm-level holds "
        f"operators produce no depth-5 certificate at eps in {{1, 1/2}}; "
        f"power-bounded holds never pairs with mean-bounded fails; "
        f"jordan_1(2) mean growth witness replays to {value:.6f}"
    )


# -- criterion 6: determinism and formats ------------------------------------

_FAST = ["--horizon", "400", "--ue-horizon", "64", "--index-bound", "16"]


def test_criterion_6_determinism_and_formats(tmp_path):
    # byte-identical reports (timings excluded) for two seeds x two specs
    for idx, name in enumerate(["scalar(0.5)", "left_shift_l1(64)"]):
        spec_path = tmp_path / f"spec{idx}.json"
        spec_path.write_text(canonical_dumps(gallery(name).to_json_dict()))
        outs = []
        for run in range(2):
            out = tmp_path / f"report{idx}-{run}.json"
            code = main([
                "analyze", str(spec_path), "--no-cache", "--seed", "7",
                "--out", str(out), *_FAST,
            ])
            assert code == 0
            outs.append(out.read_text())
        parsed = [canonical_loads(text) for text in outs]
        for report, text in zip(parsed, outs):
            assert canonical_dumps(report) == text  # report round-trips
            report.pop("timings")
        assert canonical_dumps(parsed[0]) == canonical_dumps(parsed[1])

    # every other artifact kind round-trips through its parser
    spec_path = tmp_path / "shift.json"
    assert main(["gallery", "left_shift_l1(64)", "--out", str(spec_path)]) == 0
    spec_text = spec_path.read_text()
    spec = OperatorSpec.from_json_dict(canonical_loads(spec_text))
    assert canonical_dumps(spec.to_json_dict()) == spec_text

    cert_path = tmp_path / "cert.json"
    assert main([
        "certify", str(spec_path), "--epsilon", "0.5", "--depth", "5",
        "--index-bound", "32", "--probes", "basis", "--out", str(cert_path),
    ]) == 0
    cert_text = cert_path.read_text()
    cert = NSECertificate.from_json_dict(canonical_loads(cert_text))
    assert canonical_dumps(cert.to_json_dict()) == cert_text
    assert main(["check", str(cert_path)]) == 0

    tree_path = tmp_path / "tree.json"
    assert main([
        "tree", str(spec_path), "--epsilon", "0.5", "--depth-cap", "3",
        "--index-bound", "8", "--out", str(tree_path),
    ]) == 0
    tree_text = tree_path.read_text()
    assert canonical_dumps(canonical_loads(tree_text)) == tree_text

    # certificate fixtures: one conforming, three canonical rejections
    valid = NSECertificate.from_json_dict(
        canonical_loads((FIXTURES / "valid_certificate.json").read_text())
    )
    assert check_certificate(valid).accepted
    for bad in ("bad_epsilon_raised", "bad_witness_scaled", "bad_j_not_increasing"):
        data = canonical_loads((FIXTURES / f"{bad}.json").read_text())
        assert not check_certificate(NSECertificate.from_json_dict(data)).accepted

    print(
        "[criterion 6] PASS: analyze reports byte-identical modulo timings; "
        "report, spec, certificate, and tree dumps all round-trip; fixture "
        "certificate accepted and 3 malformed fixtures rejected"
    )
