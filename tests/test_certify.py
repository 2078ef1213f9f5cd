import warnings

import numpy as np
import pytest

from ergorank.certify import (
    MARGIN_RTOL,
    CheckResult,
    NSECertificate,
    RankEstimate,
    check_certificate,
    rank_estimate,
    search_nse,
)
from ergorank.operators import KIND_DIAGONAL, OperatorSpec, basis_probes, default_probes, gallery
from ergorank.serialization import canonical_dumps, canonical_loads
from ergorank.cesaro import trajectory, cesaro_diff


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


def test_overflow_stops_trees_and_doubling():
    # T x has norm 1e200, past the overflow limit, so only A_1 exists: no
    # pair separates, and no NaN or inf mean is ever formed.
    spec = OperatorSpec(KIND_DIAGONAL, 2, [1e200, -1e200], "linf")
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


def test_checker_margin_tolerance_boundary():
    _, _, cert = _shift_cert()
    data = cert.to_json_dict()
    data["margins"] = [list(row) for row in data["margins"]]
    data["margins"][0][0] += 5e-10
    assert check_certificate(NSECertificate.from_json_dict(data)).accepted
    data["margins"][0][0] += 1e-8
    assert not check_certificate(NSECertificate.from_json_dict(data)).accepted
    assert MARGIN_RTOL == 1e-9


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


def test_certificate_margins_match_trajectories():
    spec, probes, cert = _shift_cert()
    for m, (w, row) in enumerate(zip(cert.witnesses, cert.margins), start=1):
        traj = trajectory(spec, w, cert.J[m])
        for p in range(1, m + 1):
            assert row[p - 1] == pytest.approx(
                cesaro_diff(traj, cert.J[p - 1], cert.J[p]), abs=1e-12
            )


# -- rank estimate -------------------------------------------------------

def test_rank_estimate_zero_and_identity():
    spec = gallery("zero(4)")
    probes = default_probes(spec)
    est = rank_estimate(spec, probes, ks=[1, 2, 4, 8], depth_cap=6, index_bound=32)
    assert est.heights == [1, 2, 3, 5]
    assert est.partial == [False] * 4
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
