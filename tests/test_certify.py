import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ergorank.certify
import ergorank.cesaro
import ergorank.tree
from ergorank import cli
from ergorank.certify import (
    MARGIN_ATOL,
    CheckResult,
    NSECertificate,
    RankEstimate,
    check_certificate,
    rank_estimate,
    search_nse,
)
from ergorank.operators import (
    KIND_DENSE,
    KIND_DIAGONAL,
    KIND_SHIFT,
    OperatorSpec,
    basis_probes,
    built_in_gallery,
    default_probes,
    gallery,
)
from ergorank.serialization import canonical_dumps, canonical_loads
from ergorank.tree import (
    build_truncation,
    chain_margins,
    truncated_height,
)
from reference import few_default_probes, node_member
from test_classify import _bench_workloads

#: Powers overflow at the first step: T x already has norm 1e200.
HUGE_DIAGONAL = OperatorSpec(KIND_DIAGONAL, 2, [1e200, -1e200], "linf")


def _growing_dense(norm):
    """A 12x12 operator with eigenvalue 2: its means grow like 2^n / n."""
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    mat = q @ np.diag(np.r_[2.0, rng.uniform(-0.9, 0.9, 11)]) @ q.T
    return OperatorSpec(KIND_DENSE, 12, mat, norm)


def _shift_cert(depth=5, epsilon=0.5, index_bound=32):
    spec = gallery("left_shift_l1(64)")
    probes = basis_probes(64, "l1")
    cert = search_nse(spec, probes, epsilon, depth, index_bound=index_bound)
    assert cert is not None
    return spec, probes, cert


# -- doubling search -----------------------------------------------------

def test_doubling_reaches_depth_five_on_shift():
    _, _, cert = _shift_cert()
    assert cert.depth == 5
    assert cert.J == (1, 2, 4, 8, 16, 32)
    for m, row in enumerate(cert.margins, start=1):
        assert len(row) == m
        assert row == pytest.approx([1.0] * m, abs=1e-12)
    # per-level witnesses are the latest basis vectors that still keep all
    # leading pairs separated: e_1, e_3, e_7, e_15, e_31
    for m, w in enumerate(cert.witnesses, start=1):
        k = int(np.argmax(w))
        assert k == 2 ** m - 1
        assert np.count_nonzero(w) == 1


def test_doubling_respects_index_bound():
    _, _, cert = _shift_cert(depth=5, index_bound=8)
    assert cert.J == (1, 2, 4, 8)
    assert cert.depth == 3


def test_search_returns_none_without_separation():
    spec = gallery("scalar(0.5)")
    probes = default_probes(spec)
    assert search_nse(spec, probes, 0.5, 3) is None
    spec = gallery("identity(8)")
    assert search_nse(spec, default_probes(spec), 0.125, 3) is None


def test_search_partial_depth():
    # Alternating scalar separates the first dyadic pair only.
    spec = gallery("scalar(-1.0)")
    probes = default_probes(spec)
    cert = search_nse(spec, probes, 0.5, 4)
    assert cert is not None and cert.depth == 1
    assert check_certificate(cert).accepted


def test_beam_finds_chains_the_dyadic_grid_misses():
    # At separation 1.2 the pair (1, 2) splits by only 1.0, so the dyadic
    # subsequence is stuck, but wider chains like (1, 4, 16) still work.
    spec = gallery("left_shift_l1(64)")
    probes = basis_probes(64, "l1")
    assert search_nse(spec, probes, 1.2, 2, index_bound=32) is None
    cert = search_nse(spec, probes, 1.2, 2, index_bound=32, strategy="beam")
    assert cert is not None
    assert cert.depth >= 2
    assert check_certificate(cert).accepted


# The beam's chain sits among the large means; doubling's starts at J = 1.
@pytest.mark.parametrize(
    "strategy, depth, large", [("beam", 3, min), ("doubling", 5, max)], ids=["beam", "doubling"]
)
def test_beam_certificate_accepted_on_large_means(strategy, depth, large):
    # The means grow like 2^n / n, so at J near 32 one ulp of a margin is
    # more than MARGIN_ATOL: a search must state the margins the checker
    # recomputes, not the probe block's.
    for norm in ("l1", "l2", "linf"):
        spec = _growing_dense(norm)
        cert = search_nse(spec, default_probes(spec), 0.25, depth, index_bound=32, strategy=strategy)
        assert cert is not None and cert.depth == depth
        assert large(cert.margins[-1]) > 1e6
        assert check_certificate(cert).accepted


def test_overflow_stops_trees_and_doubling():
    # T x has norm 1e200, past the overflow limit, so only A_1 exists: no
    # pair separates, and no NaN or inf mean is ever formed.
    spec = HUGE_DIAGONAL
    probes = default_probes(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert rank_estimate(spec, probes).heights == [1] * 8
        for strategy in ("doubling", "beam"):
            assert search_nse(spec, probes, 0.5, 5, index_bound=32, strategy=strategy) is None


def test_search_validation():
    spec = gallery("identity(8)")
    probes = default_probes(spec)
    with pytest.raises(ValueError):
        search_nse(spec, probes, 0.0, 3)
    with pytest.raises(ValueError):
        search_nse(spec, probes, 0.5, 0)
    with pytest.raises(ValueError, match="strategy"):
        search_nse(spec, probes, 0.5, 3, strategy="oracle")


# -- checker -------------------------------------------------------------

def test_checker_accepts_round_tripped_certificate():
    _, _, cert = _shift_cert()
    text = canonical_dumps(cert.to_json_dict())
    again = NSECertificate.from_json_dict(canonical_loads(text))
    result = check_certificate(again)
    assert result == CheckResult(True, "ok")
    assert canonical_dumps(again.to_json_dict()) == text


def test_checker_rejection_reasons():
    spec, probes, cert = _shift_cert()

    def variant(**overrides):
        base = cert.to_json_dict()
        base.update(overrides)
        return NSECertificate.from_json_dict(base)

    r = check_certificate(variant(epsilon=1.5))
    assert not r.accepted and "not above epsilon" in r.reason

    r = check_certificate(variant(J=[32, 16, 8, 4, 2, 1]))
    assert not r.accepted and "strictly increasing" in r.reason

    r = check_certificate(variant(J=[1]))
    assert not r.accepted and "two indices" in r.reason

    r = check_certificate(variant(J=[0, 2, 4, 8, 16, 32]))
    assert not r.accepted and ">= 1" in r.reason

    r = check_certificate(variant(depth=4))
    assert not r.accepted and "depth" in r.reason

    r = check_certificate(variant(witnesses=cert.to_json_dict()["witnesses"][:-1]))
    assert not r.accepted and "witness count" in r.reason

    scaled = [[2.0 * v for v in w] for w in cert.to_json_dict()["witnesses"]]
    r = check_certificate(variant(witnesses=scaled))
    assert not r.accepted and "unit ball" in r.reason

    trimmed = [w[:-1] for w in cert.to_json_dict()["witnesses"]]
    r = check_certificate(variant(witnesses=trimmed))
    assert not r.accepted and "dimension" in r.reason

    bad_margins = [list(row) for row in cert.to_json_dict()["margins"]]
    bad_margins[2][1] += 1e-6
    r = check_certificate(variant(margins=bad_margins))
    assert not r.accepted and "mismatch" in r.reason

    r = check_certificate(variant(margins=cert.to_json_dict()["margins"][:-1]))
    assert not r.accepted and "shape" in r.reason

    r = check_certificate(variant(epsilon=-0.5))
    assert not r.accepted and "positive" in r.reason

    # The witness stream stops at index 1, so the pair (1, 2) has no margin.
    huge = NSECertificate(HUGE_DIAGONAL, 0.5, (1, 2), [np.array([1.0, 0.0])], [[1.0]], 1)
    r = check_certificate(huge)
    assert not r.accepted and "overflows" in r.reason


def test_checker_margin_atol_boundary():
    _, _, cert = _shift_cert()
    data = cert.to_json_dict()
    data["margins"] = [list(row) for row in data["margins"]]
    data["margins"][0][0] += 5e-10
    assert check_certificate(NSECertificate.from_json_dict(data)).accepted
    data["margins"][0][0] += 1e-8
    assert not check_certificate(NSECertificate.from_json_dict(data)).accepted
    assert MARGIN_ATOL == 1e-9


def test_certificate_version_guard():
    _, _, cert = _shift_cert()
    data = cert.to_json_dict()
    data["version"] = 2
    with pytest.raises(ValueError, match="version"):
        NSECertificate.from_json_dict(data)
    data = cert.to_json_dict()
    del data["witnesses"]
    with pytest.raises(ValueError, match="missing"):
        NSECertificate.from_json_dict(data)


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
@pytest.mark.parametrize("strategy", ["doubling", "beam"])
def test_certificate_margins_match_trajectories(strategy, norm):
    # Both searches state exactly the witness margins the checker recomputes.
    spec = _growing_dense(norm)
    cert = search_nse(spec, default_probes(spec), 0.25, 5, index_bound=32, strategy=strategy)
    assert cert is not None and cert.depth >= 3
    for m, (w, row) in enumerate(zip(cert.witnesses, cert.margins), start=1):
        assert row == chain_margins(spec, w[:, None], cert.J[: m + 1])[:, 0].tolist()


# -- rank estimate -------------------------------------------------------

def test_rank_estimate_zero_and_identity():
    spec = gallery("zero(4)")
    probes = default_probes(spec)
    est = rank_estimate(spec, probes, ks=[1, 2, 4, 8], depth_cap=6, index_bound=32)
    assert est.heights == [1, 2, 3, 5]
    assert est.to_json_dict()["partial"] == [False] * 4
    assert est.epsilons == [1.0, 0.5, 0.25, 0.125]

    spec = gallery("identity(8)")
    est = rank_estimate(spec, default_probes(spec), ks=[1, 2, 3])
    assert est.heights == [1, 1, 1]


def test_rank_estimate_json_shape():
    spec = gallery("scalar(0.5)")
    est = rank_estimate(spec, default_probes(spec), ks=[1, 2])
    d = est.to_json_dict()
    assert list(d.keys()) == [
        "construct", "ks", "epsilons", "heights", "partial",
        "depth_cap", "index_bound", "probe_label",
    ]
    assert d["construct"]
    with pytest.raises(ValueError):
        rank_estimate(spec, default_probes(spec), ks=[0])


def test_rank_estimate_makes_one_stream_pass(monkeypatch):
    # One pass over the probe block serves every k; enumeration used to
    # re-run the stream once per k.
    spec = gallery("left_shift_l1(64)")
    probes = default_probes(spec)
    real = ergorank.cesaro.apply_columns
    calls = []

    def counting(s, X, out=None):
        calls.append(X.shape[1])
        return real(s, X, out=out)

    monkeypatch.setattr(ergorank.cesaro, "apply_columns", counting)
    est = rank_estimate(spec, probes, ks=range(1, 9), index_bound=48)
    assert 0 < len(calls) <= 48
    assert est.heights == [4] * 8


def _analyze_inputs():
    """(label, spec, extra analyze arguments): the gallery at the default
    config and the wide-operators inputs at seed 101, horizon 2 000."""
    wide = _bench_workloads().wide_specs(101).items()
    return [(name, gallery(name), []) for name in built_in_gallery()] + [
        (label, spec, ["--horizon", "2000"]) for label, spec in wide
    ]


#: The analyses of `_analyze_inputs` whose probe pass walks to the index
#: bound 32 (or to the overflow stop before it) and so writes the means the
#: margin tensor reads: every other probe pass is settled before it walks,
#: or walks fewer steps (dense-96-l2's walks none).
PROBE_PASS_SERVES_THE_TENSOR = {
    "scalar(2.0)", "jordan_1(2)", "left_shift_l1(64)",
    "sparse-128-l1", "sparse-256-linf", "diagonal-256-l1", "shift-256-linf", "overflow-diagonal-256-l2",
}


@pytest.mark.parametrize("label, spec, extra", _analyze_inputs(), ids=lambda v: v if isinstance(v, str) else "")
def test_one_analysis_walks_its_probe_block_once_for_rank_and_search(monkeypatch, tmp_path, label, spec, extra):
    # The rank heights and the doubling search read one margin tensor, from
    # the means the probe pass of `check_families` wrote where it walked to
    # the index bound, so `analyze` walks the probe block no more there, and
    # once more elsewhere; the certificate then walks one column per
    # distinct witness probe, the margins that `check_certificate`
    # recomputes.
    path = tmp_path / "spec.json"
    path.write_text(canonical_dumps(spec.to_json_dict()), encoding="utf-8")
    widths, witnesses = [], []
    real_stream, real_certificate = ergorank.tree.CesaroStream, ergorank.certify._certificate

    def stream(spec, X, *args, **kwargs):
        widths.append(X.shape[1])
        return real_stream(spec, X, *args, **kwargs)

    def certificate(spec, probes, epsilon, J, witness_probes):
        witnesses.extend(witness_probes)
        return real_certificate(spec, probes, epsilon, J, witness_probes)

    monkeypatch.setattr(ergorank.tree, "CesaroStream", stream)
    monkeypatch.setattr(ergorank.certify, "_certificate", certificate)
    argv = ["analyze", str(path), "--no-cache", "--seed", "101", "--out", str(tmp_path / "report.json"), *extra]
    assert cli.main(argv) == cli.EXIT_OK
    width = len(default_probes(spec, seed=101))
    walks = 0 if label in PROBE_PASS_SERVES_THE_TENSOR else 1
    assert widths.count(width) == walks, label
    assert sorted(widths) == sorted([width] * walks + [1] * len(set(witnesses))), label


# -- dynamic programming against enumeration ------------------------------

_ENTRIES = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, 1.0, -1.0, 1e-300, -5e-324]),
)


@st.composite
def _small_specs(draw):
    norm = draw(st.sampled_from(["l1", "l2", "linf"]))
    kind = draw(st.sampled_from(["diagonal", "shift", "huge"]))
    if kind == "huge":
        return HUGE_DIAGONAL
    dim = draw(st.integers(1, 4))
    if kind == "diagonal":
        diagonal = draw(st.lists(_ENTRIES, min_size=dim, max_size=dim))
        return OperatorSpec(KIND_DIAGONAL, dim, diagonal, norm)
    weights = draw(st.lists(_ENTRIES, min_size=dim - 1, max_size=dim - 1))
    return OperatorSpec(KIND_SHIFT, dim, weights, norm)


@given(_small_specs(), st.integers(1, 12), st.integers(1, 3), st.integers(1, 8))
@settings(max_examples=80)
def test_dp_heights_and_beam_match_enumeration(spec, bound, target_depth, k):
    probes = few_default_probes(spec, 3)
    cap = target_depth + 1
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        est = rank_estimate(spec, probes, ks=range(1, 9), depth_cap=cap, index_bound=bound)
        truncs = [
            build_truncation(spec, eps, depth_cap=cap, index_bound=bound, probes=probes)
            for eps in est.epsilons
        ]
        for trunc, height in zip(truncs, est.heights):
            if not trunc.partial:
                assert height == truncated_height(trunc)

        eps, trunc = est.epsilons[k - 1], truncs[k - 1]
        assert not trunc.partial
        doubling = search_nse(spec, probes, eps, target_depth, index_bound=bound)
        assert doubling is None or check_certificate(doubling).accepted
        cert = search_nse(spec, probes, eps, target_depth, index_bound=bound, strategy="beam")
        height = truncated_height(trunc)
        if height < 2:
            assert cert is None
            return
        assert cert.depth == height - 1
        assert check_certificate(cert).accepted
        # Brute force: the beam's minimum margin beats the lowest-probe
        # witness of every longest member.  The beam states one-probe
        # recomputed margins, which match the block's to MARGIN_ATOL.
        beam_min = min(cert.margins[-1])
        longest = [key for key in trunc.members if key.count(",") + 1 == height]
        for seq in (tuple(map(int, key.split(","))) for key in longest):
            res = node_member(spec, seq, eps, probes)
            assert res.member
            assert beam_min >= min(res.margins) - MARGIN_ATOL
