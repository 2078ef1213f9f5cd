"""Correctness checks on benchmark outputs, run after the timed passes.

Each check looks at the first output of every distinct request (repeats
are compared byte for byte while the passes run) and records failures by
request key, so every request sharing a failed key counts as failed.
"""

from __future__ import annotations

import math

from ergorank import certify, classify, operators, serialization, tree


class CheckLog:
    """Per check: how many outputs were checked and which failed, and why."""

    def __init__(self):
        self.checked: dict[str, int] = {}
        self.failures: dict[str, list[str]] = {}
        self.failed_keys: set[str] = set()

    def record(self, check: str, key: str, ok: bool, why: str = "") -> None:
        self.checked[check] = self.checked.get(check, 0) + 1
        self.failures.setdefault(check, [])
        if not ok:
            self.failures[check].append(f"{key}: {why}")
            self.failed_keys.add(key)

    def run(self, check: str, key: str, fn) -> None:
        """Record `fn()` -> (ok, why); an exception fails the check."""
        try:
            ok, why = fn()
        except Exception as exc:  # a crash in the program under test is a failed check
            ok, why = False, f"raised {type(exc).__name__}: {exc}"
        self.record(check, key, ok, why)

    def summary(self) -> dict:
        return {
            name: {"checked": self.checked[name], "failed": len(self.failures[name]),
                   "failures": self.failures[name][:20]}
            for name in self.checked
        }


def _probes(spec, config):
    if config["probes"] == "basis":
        return operators.basis_probes(spec.dim, spec.norm_tag)
    return operators.default_probes(spec, seed=config["seed"])


def _replay_fails(spec, probes, report):
    verdicts = list(report["verdicts"].values())
    section = report.get("norm_trusted", {}).get("section_verdict")
    if section is not None:
        verdicts.append(section)
    for v in verdicts:
        if v["status"] != classify.FAILS:
            continue
        verdict = classify.Verdict(
            v["family"], v["status"], v["horizon"], v["tolerance"], v["bound"],
            v["witness"], v["probe_label"],
        )
        value, violates = classify.replay_witness(spec, verdict, probes)
        if not violates:
            return False, f"{v['family']} witness does not replay (value {value!r})"
    return True, ""


def _recompute_verdicts(spec, probes, config):
    """The family checks `build_report` runs, for when none were captured."""
    horizon, tol, cap = config["horizon"], config["tolerance"], config["bound_cap"]
    ue_horizon = config["ue_horizon"]
    return [
        classify.check_power_bounded(spec, probes, horizon, cap),
        classify.check_cesaro_bounded(spec, probes, horizon, cap, mode="auto"),
        classify.check_ergodic(spec, probes, horizon, tol, cap),
        classify.check_uniformly_ergodic(
            spec, classify.trusted_horizon(spec, ue_horizon), tol, probes=probes, bound_cap=cap
        ),
    ]


def _holds_from_full_scan(verdicts):
    """No `holds` may rest on a scan that diverged or stopped early."""
    for v in verdicts:
        if v.status != classify.HOLDS:
            continue
        ev = v.evidence
        if ev.get("diverged") or ev.get("diverged_at") is not None:
            return False, f"{v.family} holds on a diverged scan ({ev})"
        if ev.get("steps", v.horizon) < v.horizon:
            return False, f"{v.family} holds after {ev['steps']} of {v.horizon} steps"
    return True, ""


def _rank_heights(spec, probes, rank, **budget):
    """Each non-partial height equals the height of the enumerated tree."""
    for eps, height, partial in zip(rank["epsilons"], rank["heights"], rank["partial"]):
        if partial:
            continue
        trunc = tree.build_truncation(
            spec, eps, depth_cap=rank["depth_cap"], index_bound=rank["index_bound"],
            probes=probes, **budget,
        )
        expected = tree.truncated_height(trunc)
        if height != expected:
            return False, f"height {height} at epsilon {eps!r}, enumeration gives {expected}"
    return True, ""


def _certificate(cert):
    """Canonical JSON round trip, acceptance, and rejection of a copy whose
    epsilon sits just above the smallest stated margin."""
    text = serialization.canonical_dumps(cert.to_json_dict())
    parsed = certify.NSECertificate.from_json_dict(serialization.canonical_loads(text))
    if serialization.canonical_dumps(parsed.to_json_dict()) != text:
        return False, "certificate JSON does not round-trip"
    result = certify.check_certificate(parsed)
    if not result.accepted:
        return False, f"round-tripped certificate rejected: {result.reason}"
    tampered = serialization.canonical_loads(text)
    smallest = min(min(row) for row in tampered["margins"])
    tampered["epsilon"] = math.nextafter(smallest, math.inf)
    if certify.check_certificate(certify.NSECertificate.from_json_dict(tampered)).accepted:
        return False, f"accepted with epsilon raised to {tampered['epsilon']!r}"
    return True, ""


def check_analyze(workload, session, log: CheckLog) -> None:
    for key, first in session.first.items():
        if first.kind != "analyze" or first.text is None:
            continue
        report = serialization.canonical_loads(first.text)
        config = report["config"]
        spec = operators.OperatorSpec.from_json_dict(report["operator"])
        probes = _probes(spec, config)
        log.run("replay_fails", key, lambda: _replay_fails(spec, probes, report))
        log.run("rank_heights", key, lambda: _rank_heights(
            spec, probes, report["rank_estimate"], max_nodes=config["max_nodes"]))
        log.run("holds_from_full_scan", key, lambda: _holds_from_full_scan(
            session.captured.get(key) or _recompute_verdicts(spec, probes, config)))


def check_tree_certify(workload, session, log: CheckLog) -> None:
    for key, first in session.first.items():
        if first.result is None:
            continue
        if first.kind == "rank":
            spec, _, probes = workload.ops[key.split(":", 1)[1]]
            rank = first.result.to_json_dict()
            # Rank requests and this check both use the default node budget.
            log.run("rank_heights", key, lambda: _rank_heights(spec, probes, rank))
        elif first.kind == "certify":
            log.run("certificates", key, lambda: _certificate(first.result))


def run_checks(workload, session) -> CheckLog:
    log = CheckLog()
    log.checked["identical_outputs"] = session.repeats
    log.failures["identical_outputs"] = list(session.mismatches)
    if workload.name == "tree-certify":
        check_tree_certify(workload, session, log)
    else:
        check_analyze(workload, session, log)
    return log
