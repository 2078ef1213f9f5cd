"""Four-family classification across the built-in gallery.

Each check returns holds / fails / inconclusive at a finite horizon.  The
discipline is one-sided: fails always carries a witness that can be
replayed from scratch, while thin evidence degrades to inconclusive.
Ergodicity and uniform ergodicity fail only by inheriting a Cesaro-bounded
failure; the left shift's non-uniform ergodicity shows in its separation
certificate instead.
"""

from ergorank.certify import search_nse
from ergorank.classify import (
    FAILS,
    check_cesaro_bounded,
    check_ergodic,
    check_power_bounded,
    check_uniformly_ergodic,
    replay_witness,
    trusted_horizon,
)
from ergorank.operators import built_in_gallery, default_probes, gallery

HORIZON = 4000
UE_HORIZON = 256
TOL = 1e-2


def main():
    print(f"verdicts at horizon {HORIZON} (norm level {UE_HORIZON}), tol {TOL}")
    header = f"{'operator':28s} {'power-bdd':13s} {'mean-bdd':13s} {'ergodic':13s} {'unif-ergodic':13s}"
    print(header)
    print("-" * len(header))

    rows = {}
    for name in built_in_gallery():
        spec = gallery(name)
        probes = default_probes(spec)
        pb = check_power_bounded(spec, probes, HORIZON)
        cb = check_cesaro_bounded(spec, probes, HORIZON)
        erg = check_ergodic(spec, probes, HORIZON, TOL)
        ue = check_uniformly_ergodic(
            spec, trusted_horizon(spec, UE_HORIZON), TOL, probes=probes
        )
        rows[name] = cb
        print(f"{name:28s} {pb.status:13s} {cb.status:13s} {erg.status:13s} {ue.status:13s}")

    print("\n== replaying a failure witness ==")
    jordan = gallery("jordan_1(2)")
    cb = rows["jordan_1(2)"]
    assert cb.status == FAILS
    print(f"  jordan_1(2) mean-boundedness witness: {cb.witness}")
    value, still_violates = replay_witness(jordan, cb, default_probes(jordan))
    print(f"  replayed value {value:.9f}, still above the cap: {still_violates}")

    print("\n== norm-level verdicts trust only half the section ==")
    shift = gallery("left_shift_l1(64)")
    print(f"  left_shift_l1(64): requested horizon {UE_HORIZON}, "
          f"trusted {trusted_horizon(shift, UE_HORIZON)}")
    probes = default_probes(shift)
    trusted = check_uniformly_ergodic(shift, trusted_horizon(shift, UE_HORIZON), TOL, probes=probes)
    section = check_uniformly_ergodic(shift, UE_HORIZON, TOL, probes=probes)
    print(f"  verdict inside the trusted window: {trusted.status} "
          f"(tail diameter at least {trusted.evidence['tail_diameter_lb']}, means bounded)")
    print(f"  finite-section verdict past it:    {section.status} "
          "(the nilpotent section converges, the infinite shift does not)")
    cert = search_nse(shift, probes, epsilon=0.5, target_depth=5, index_bound=32)
    print(f"  doubling certificate at epsilon 0.5: depth {cert.depth}, J = {list(cert.J)}")
    print("  (the means at J stay separated: the evidence that the shift is not uniformly ergodic)")


if __name__ == "__main__":
    main()
