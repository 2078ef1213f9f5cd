"""Command-line interface.

Subcommands:

* ``analyze``: run all four family checks plus the rank estimate and a
  certificate search on an operator spec, emitting one JSON report.
* ``certify``: search for a separation certificate and write it.
* ``check``: validate a certificate file from scratch.
* ``tree``: enumerate a separation-tree truncation (JSON, optional DOT).
* ``gallery``: list built-in operators or print one as a spec file.

Reports are canonical JSON (sorted insertion order, repr floats, trailing
newline) so identical inputs produce byte-identical output apart from the
timings block.  ``analyze`` results are cached under ``~/.cache/ergorank``
(override with ``ERGORANK_CACHE_DIR``) keyed by the spec hash and a hash of
the config, package version, report schema and the package's source files.

Exit codes: 0 success; 1 certificate not found / rejected; 2 invalid
input; 3 the node budget truncated a ``tree`` enumeration.  Only ``tree``
lists nodes and takes ``--max-nodes``; ``analyze`` records the default.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import sys
import time

from . import __version__
from .certify import (
    DEFAULT_DEPTH_CAP,
    DEFAULT_INDEX_BOUND,
    NSE_CONSTRUCT,
    NSECertificate,
    check_certificate,
    rank_estimate,
    search_nse,
)
from .classify import check_families, trusted_horizon
from .operators import (
    DEFAULT_SEED,
    OperatorSpec,
    SpecValidationError,
    basis_probes,
    built_in_gallery,
    default_probes,
    gallery,
)
from .serialization import (
    atomic_write_text,
    canonical_dumps,
    load_json_file,
    sha256_hex,
)
from .tree import DEFAULT_MAX_NODES, build_truncation, tree_to_dot

REPORT_SCHEMA = "ergorank-report-v1"

DEFAULT_HORIZON = 10_000
DEFAULT_TOLERANCE = 1e-2
DEFAULT_BOUND_CAP = 1e3
DEFAULT_NSE_EPSILON = 0.5

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_INVALID = 2
EXIT_PARTIAL = 3


def _load_spec(path: str) -> OperatorSpec | None:
    """The spec in `path`, or None after reporting why it is invalid."""
    try:
        return OperatorSpec.from_json_dict(load_json_file(path))
    except (OSError, ValueError) as exc:
        print(f"invalid operator spec: {exc}", file=sys.stderr)
        return None


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        atomic_write_text(out, text)


def _make_probes(spec: OperatorSpec, which: str, seed: int):
    if which == "basis":
        return basis_probes(spec.dim, spec.norm_tag)
    return default_probes(spec, seed=seed)


def _cache_dir() -> str:
    override = os.environ.get("ERGORANK_CACHE_DIR")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "ergorank")


@functools.cache
def _source_digest() -> str:
    """sha256 of the package's Python source files (each name, length and
    bytes, in name order), read once per process."""
    root = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), "rb") as handle:
                data = handle.read()
            digest.update(f"{name}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def build_report(spec: OperatorSpec, config: dict, spec_sha256: str) -> dict:
    """Assemble the full analysis report (everything but cache handling).
    `spec_sha256` is the digest of the spec's canonical JSON text."""
    probes = _make_probes(spec, config["probes"], config["seed"])
    horizon = config["horizon"]
    tolerance = config["tolerance"]
    bound_cap = config["bound_cap"]

    t0 = time.perf_counter()
    ue_requested = config["ue_horizon"]
    ue_trusted = trusted_horizon(spec, ue_requested)
    families = check_families(spec, probes, horizon, tolerance, bound_cap, ue_requested)
    t1 = time.perf_counter()

    rank = rank_estimate(
        spec,
        probes,
        depth_cap=config["depth_cap"],
        index_bound=config["index_bound"],
    )
    t2 = time.perf_counter()

    nse_target = max(1, int(math.floor(math.log2(config["index_bound"]))))
    cert = search_nse(
        spec,
        probes,
        epsilon=config["nse_epsilon"],
        target_depth=nse_target,
        index_bound=config["index_bound"],
        strategy="doubling",
    )
    t3 = time.perf_counter()

    norm_trusted = {
        "requested_horizon": ue_requested,
        "trusted_horizon": ue_trusted,
        "section_only_beyond": ue_trusted < ue_requested,
        "section_verdict": (
            families.section.to_json_dict() if families.section is not None else None
        ),
    }
    nse_summary = {
        "construct": NSE_CONSTRUCT,
        "strategy": "doubling",
        "epsilon": config["nse_epsilon"],
        "target_depth": nse_target,
        "depth": cert.depth if cert is not None else 0,
        "J": list(cert.J) if cert is not None else None,
        "probe_label": probes.label,
        "found": cert is not None,
    }
    report = {
        "schema": REPORT_SCHEMA,
        "operator": spec.to_json_dict(),
        "operator_sha256": spec_sha256,
        "config": config,
        "verdicts": {
            "power_bounded": families.power_bounded.to_json_dict(),
            "cesaro_bounded": families.cesaro_bounded.to_json_dict(),
            "ergodic": families.ergodic.to_json_dict(),
            "uniformly_ergodic": families.uniformly_ergodic.to_json_dict(),
        },
        "norm_trusted": norm_trusted,
        "rank_estimate": rank.to_json_dict(),
        "nse": nse_summary,
        "timings": {
            "verdicts_s": t1 - t0,
            "rank_s": t2 - t1,
            "nse_s": t3 - t2,
            "total_s": t3 - t0,
        },
    }
    return report


def cmd_analyze(args) -> int:
    spec = _load_spec(args.spec)
    if spec is None:
        return EXIT_INVALID

    ue_horizon = args.ue_horizon if args.ue_horizon is not None else min(256, args.horizon)
    config = {
        "horizon": args.horizon,
        "tolerance": args.tol,
        "bound_cap": args.bound_cap,
        "depth_cap": args.depth_cap,
        "index_bound": args.index_bound,
        "ue_horizon": ue_horizon,
        "nse_epsilon": args.nse_epsilon,
        "seed": args.seed,
        "max_nodes": DEFAULT_MAX_NODES,
        "probes": args.probes,
    }

    spec_sha256 = sha256_hex(canonical_dumps(spec.to_json_dict()))
    # Reports from other code (version, report schema or sources) never match.
    key_text = canonical_dumps(
        {"version": __version__, "schema": REPORT_SCHEMA, "code": _source_digest(), "config": config}
    )
    cache_file = os.path.join(
        _cache_dir(), f"{spec_sha256[:16]}-{sha256_hex(key_text)[:16]}.json"
    )
    report = None
    if not args.no_cache:
        try:
            report = load_json_file(cache_file)
        except (OSError, ValueError):
            pass
    # Serve only an entry that is this report; recompute and overwrite any other.
    wanted = {"schema": REPORT_SCHEMA, "operator_sha256": spec_sha256, "config": config}
    if isinstance(report, dict) and all(report.get(k) == v for k, v in wanted.items()):
        report["timings"] = {"cached": True}
    else:
        report = build_report(spec, config, spec_sha256)
        if not args.no_cache:
            stored = {k: v for k, v in report.items() if k != "timings"}
            try:
                os.makedirs(_cache_dir(), exist_ok=True)
                atomic_write_text(cache_file, canonical_dumps(stored))
            except OSError as exc:  # the report is still emitted
                print(f"warning: analyze cache not written: {exc}", file=sys.stderr)
    _emit(canonical_dumps(report), args.out)
    return EXIT_OK


def cmd_certify(args) -> int:
    spec = _load_spec(args.spec)
    if spec is None:
        return EXIT_INVALID
    probes = _make_probes(spec, args.probes, args.seed)
    cert = search_nse(
        spec,
        probes,
        epsilon=args.epsilon,
        target_depth=args.depth,
        index_bound=args.index_bound,
        strategy=args.strategy,
    )
    if cert is None:
        print("no certificate found", file=sys.stderr)
        return EXIT_NOT_FOUND
    _emit(canonical_dumps(cert.to_json_dict()), args.out)
    if cert.depth < args.depth:
        print(
            f"only reached depth {cert.depth} of requested {args.depth}",
            file=sys.stderr,
        )
        return EXIT_NOT_FOUND
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        cert = NSECertificate.from_json_dict(load_json_file(args.certificate))
    except (OSError, ValueError) as exc:
        print(f"rejected: unreadable certificate: {exc}")
        return EXIT_NOT_FOUND
    result = check_certificate(cert)
    if result.accepted:
        print(f"accepted: depth {cert.depth} at epsilon {cert.epsilon!r}")
        return EXIT_OK
    print(f"rejected: {result.reason}")
    return EXIT_NOT_FOUND


def cmd_tree(args) -> int:
    spec = _load_spec(args.spec)
    if spec is None:
        return EXIT_INVALID
    probes = _make_probes(spec, args.probes, args.seed)
    trunc = build_truncation(
        spec,
        epsilon=args.epsilon,
        depth_cap=args.depth_cap,
        index_bound=args.index_bound,
        probes=probes,
        max_nodes=args.max_nodes,
    )
    _emit(canonical_dumps(trunc.to_json_dict()), args.out)
    if args.dot:
        atomic_write_text(args.dot, tree_to_dot(trunc))
    return EXIT_PARTIAL if trunc.partial else EXIT_OK


def cmd_gallery(args) -> int:
    if args.name is None:
        for name in built_in_gallery():
            print(name)
        return EXIT_OK
    try:
        spec = gallery(args.name)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    _emit(canonical_dumps(spec.to_json_dict()), args.out)
    return EXIT_OK


def _positive(convert, allow_zero=False):
    """An argparse `type` that converts with `convert` and rejects values
    that are not positive (negative, with `allow_zero`), so they exit with
    EXIT_INVALID and a usage line."""

    def parse(text: str):
        value = convert(text)
        if not (value >= 0 if allow_zero else value > 0):
            raise argparse.ArgumentTypeError(
                f"must be {'non-negative' if allow_zero else 'positive'}, got {text!r}"
            )
        return value

    parse.__name__ = convert.__name__
    return parse


_POSITIVE_INT = _positive(int)
_POSITIVE_FLOAT = _positive(float)
_NON_NEGATIVE_INT = _positive(int, allow_zero=True)


def _add_probe_args(parser) -> None:
    parser.add_argument(
        "--probes",
        choices=("default", "basis"),
        default="default",
        help="probe family: canonical basis plus seeded random (default) or basis only",
    )
    parser.add_argument(
        "--seed", type=_NON_NEGATIVE_INT, default=DEFAULT_SEED, help="seed for the random probes"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergorank",
        description="Finite-horizon ergodicity checks, separation trees, and "
        "non-convergence certificates for linear operators.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run all checks and emit a JSON report")
    p.add_argument("spec", help="operator spec JSON file")
    p.add_argument("--horizon", type=_POSITIVE_INT, default=DEFAULT_HORIZON)
    p.add_argument("--tol", type=_POSITIVE_FLOAT, default=DEFAULT_TOLERANCE)
    p.add_argument("--bound-cap", type=_POSITIVE_FLOAT, default=DEFAULT_BOUND_CAP)
    p.add_argument("--depth-cap", type=_POSITIVE_INT, default=DEFAULT_DEPTH_CAP)
    p.add_argument("--index-bound", type=_POSITIVE_INT, default=DEFAULT_INDEX_BOUND)
    p.add_argument(
        "--ue-horizon",
        type=_POSITIVE_INT,
        default=None,
        help="horizon for the norm-level check (default min(256, horizon))",
    )
    p.add_argument("--nse-epsilon", type=_POSITIVE_FLOAT, default=DEFAULT_NSE_EPSILON)
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--no-cache", action="store_true", help="skip the report cache")
    _add_probe_args(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("certify", help="search for a separation certificate")
    p.add_argument("spec")
    p.add_argument("--epsilon", type=_POSITIVE_FLOAT, required=True)
    p.add_argument("--depth", type=_POSITIVE_INT, required=True)
    p.add_argument("--strategy", choices=("doubling", "beam"), default="doubling")
    p.add_argument("--index-bound", type=_POSITIVE_INT, default=None)
    p.add_argument("--out", default=None)
    _add_probe_args(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("check", help="validate a certificate file")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("tree", help="enumerate a separation-tree truncation")
    p.add_argument("spec")
    p.add_argument("--epsilon", type=_POSITIVE_FLOAT, required=True)
    p.add_argument("--depth-cap", type=_POSITIVE_INT, default=DEFAULT_DEPTH_CAP)
    p.add_argument("--index-bound", type=_POSITIVE_INT, default=DEFAULT_INDEX_BOUND)
    p.add_argument("--max-nodes", type=_POSITIVE_INT, default=DEFAULT_MAX_NODES)
    p.add_argument("--out", default=None)
    p.add_argument("--dot", default=None, help="also write a Graphviz rendering here")
    _add_probe_args(p)
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("gallery", help="list built-in operators or print one")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gallery)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parsing leaves a parser unchanged, and each
    call fills a fresh namespace from the defaults."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
