"""The benchmark's three workloads: seeded inputs and one pass of requests.

A workload builds its inputs once from the workload seed (`setup`) and then
runs identical passes of requests (`run_pass`).  The program only sees what
`setup` generated: spec files, probe seeds and probe sets.

Every call into ergorank goes through a module attribute looked up at call
time (``certify.rank_estimate``, not a name imported once), so the traced
run sees the same wrappers the program's own modules see.
"""

from __future__ import annotations

import functools
import os

import numpy as np

from ergorank import certify, cli, operators, serialization

#: Separation grid of every rank request: epsilon = 1/k.
RANK_KS = tuple(range(1, 9))
RANK_DEPTH_CAP = 4
RANK_INDEX_BOUND = 48

#: `ergorank tree` arguments of the tree-certify workload.
TREE_ARGS = ("--epsilon", "0.25", "--depth-cap", "4", "--index-bound", "32")

#: (strategy, epsilon, target depth, index bound) of the two certify requests.
CERTIFY_RUNS = (("doubling", 0.5, 6, 64), ("beam", 0.25, 4, 32))

WIDE_HORIZON = 2000


def _write_spec(path: str, spec) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialization.canonical_dumps(spec.to_json_dict()))


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def analyze_output(out_path: str, exit_code: int) -> tuple[str, dict]:
    """Canonical report text without `timings`, plus request metadata."""
    report = serialization.canonical_loads(_read_text(out_path))
    timings = report.pop("timings", None)
    meta = {"ok": exit_code in (cli.EXIT_OK, cli.EXIT_PARTIAL), "cached": timings == {"cached": True}}
    return serialization.canonical_dumps(report), meta


class GalleryDefault:
    """`ergorank analyze` at the default config on the built-in gallery.

    Each operator gets a cold request (cache miss) and then the same request
    again, served from a cache directory private to the pass.
    """

    name = "gallery-default"
    kinds = ("analyze", "analyze_cached")
    uses_cache = True

    def setup(self, root: str, seed: int) -> None:
        self.seed = seed
        self.specs = {}
        for index, op_name in enumerate(operators.built_in_gallery()):
            path = os.path.join(root, f"op{index:02d}.json")
            _write_spec(path, operators.gallery(op_name))
            self.specs[op_name] = path

    def run_pass(self, session, pass_dir: str) -> None:
        os.environ["ERGORANK_CACHE_DIR"] = os.path.join(pass_dir, "cache")
        for op_name, spec_path in self.specs.items():
            out = os.path.join(pass_dir, "report.json")
            argv = ["analyze", spec_path, "--seed", str(self.seed), "--out", out]
            for kind in self.kinds:
                session.request(
                    kind, op_name, functools.partial(cli.main, argv),
                    functools.partial(analyze_output, out),
                )


def _sparse_stochastic(rng, dim: int, norm_tag: str) -> operators.OperatorSpec:
    """3 or 4 positive entries per row (half the rows each), scaled to be
    column-stochastic (l1) or row-stochastic (linf), so the operator norm is
    1 and powers neither blow up nor decay to zero."""
    per_row = np.array([3, 4] * (dim // 2) + [3] * (dim % 2))
    rng.shuffle(per_row)
    rows = np.repeat(np.arange(dim), per_row)
    cols = np.concatenate([rng.choice(dim, size=count, replace=False) for count in per_row])
    vals = rng.uniform(0.1, 1.0, rows.size)
    group = cols if norm_tag == "l1" else rows
    vals /= np.bincount(group, weights=vals, minlength=dim)[group]
    triplets = [[int(r), int(c), float(v)] for r, c, v in zip(rows, cols, vals)]
    return operators.OperatorSpec(operators.KIND_SPARSE, dim, triplets, norm_tag)


def _dense_symmetric(rng, dim: int) -> operators.OperatorSpec:
    """Symmetric with two eigenvalues at 1 and the rest inside (-0.9, 0.9)."""
    eigs = np.concatenate([np.ones(2), rng.uniform(-0.9, 0.9, dim - 2)])
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    mat = q @ np.diag(eigs) @ q.T
    return operators.OperatorSpec(operators.KIND_DENSE, dim, (mat + mat.T) / 2.0, "l2")


def _diagonal(rng, dim: int, norm_tag: str, special: float, count: int) -> operators.OperatorSpec:
    """Entries inside (-0.9, 0.9) except `count` seeded positions at `special`."""
    diag = rng.uniform(-0.9, 0.9, dim)
    diag[rng.choice(dim, size=count, replace=False)] = special
    return operators.OperatorSpec(operators.KIND_DIAGONAL, dim, diag, norm_tag)


def wide_specs(seed: int) -> dict:
    """The wide-operators inputs.  Kinds, dims, norms and entry counts are
    fixed; the seed picks positions and values."""
    rng = np.random.default_rng([seed, 0xB3])
    return {
        "sparse-128-l1": _sparse_stochastic(rng, 128, "l1"),
        "sparse-256-linf": _sparse_stochastic(rng, 256, "linf"),
        "dense-96-l2": _dense_symmetric(rng, 96),
        "diagonal-256-l1": _diagonal(rng, 256, "l1", 1.0, 8),
        "shift-256-linf": operators.OperatorSpec(
            operators.KIND_SHIFT, 256, rng.uniform(0.5, 1.0, 255), "linf"
        ),
        # Powers grow by 1.25 per step and pass the overflow limit near
        # step 1450, inside the horizon.
        "overflow-diagonal-256-l2": _diagonal(rng, 256, "l2", 1.25, 4),
    }


class WideOperators:
    """`ergorank analyze --no-cache --horizon 2000` on generated specs of
    dim 96 to 256, including a sparse kind and a divergent operator."""

    name = "wide-operators"
    kinds = ("analyze",)
    uses_cache = False

    def setup(self, root: str, seed: int) -> None:
        self.seed = seed
        self.specs = {}
        for label, spec in wide_specs(seed).items():
            path = os.path.join(root, f"{label}.json")
            _write_spec(path, spec)
            self.specs[label] = path

    def run_pass(self, session, pass_dir: str) -> None:
        for label, spec_path in self.specs.items():
            out = os.path.join(pass_dir, "report.json")
            argv = [
                "analyze", spec_path, "--no-cache", "--horizon", str(WIDE_HORIZON),
                "--seed", str(self.seed), "--out", out,
            ]
            session.request(
                "analyze", label, functools.partial(cli.main, argv),
                functools.partial(analyze_output, out),
            )


def tree_certify_names(seed: int) -> list[str]:
    """The gallery plus two seeded rotations and one seeded random
    diagonalizable operator of fixed dimension."""
    rng = np.random.default_rng([seed, 0x7C])
    thetas = rng.uniform(0.2, 3.0, 2)
    return [
        *operators.built_in_gallery(),
        *(f"rotation({theta:.6f})" for theta in thetas),
        f"random_diagonalizable({int(rng.integers(1, 10_000))},12)",
    ]


def _round_trip_check(cert):
    """What `ergorank check` does with a certificate file: parse the
    canonical text, then validate from scratch."""
    text = serialization.canonical_dumps(cert.to_json_dict())
    parsed = certify.NSECertificate.from_json_dict(serialization.canonical_loads(text))
    return certify.check_certificate(parsed)


class TreeCertify:
    """Rank estimates, `ergorank tree`, certificate search and checking.

    Per operator: one `rank` request, one `tree` request, one `certify`
    request per strategy, and one `check` request per certificate found.
    """

    name = "tree-certify"
    kinds = ("rank", "tree", "certify", "check")
    uses_cache = False

    def setup(self, root: str, seed: int) -> None:
        self.seed = seed
        self.ops = {}
        for index, op_name in enumerate(tree_certify_names(seed)):
            spec = operators.gallery(op_name)
            path = os.path.join(root, f"op{index:02d}.json")
            _write_spec(path, spec)
            self.ops[op_name] = (spec, path, operators.default_probes(spec, seed=seed))

    def run_pass(self, session, pass_dir: str) -> None:
        tree_json = os.path.join(pass_dir, "tree.json")
        tree_dot = os.path.join(pass_dir, "tree.dot")
        for op_name, (spec, path, probes) in self.ops.items():
            session.request(
                "rank", f"rank:{op_name}",
                functools.partial(
                    certify.rank_estimate, spec, probes, ks=RANK_KS,
                    depth_cap=RANK_DEPTH_CAP, index_bound=RANK_INDEX_BOUND,
                ),
                lambda est: (serialization.canonical_dumps(est.to_json_dict()), {"ok": True}),
            )
            argv = ["tree", path, *TREE_ARGS, "--seed", str(self.seed),
                    "--out", tree_json, "--dot", tree_dot]
            session.request(
                "tree", f"tree:{op_name}", functools.partial(cli.main, argv),
                lambda code: (
                    _read_text(tree_json) + _read_text(tree_dot),
                    {"ok": code in (cli.EXIT_OK, cli.EXIT_PARTIAL)},
                ),
            )
            for strategy, epsilon, depth, bound in CERTIFY_RUNS:
                key = f"{op_name}/{strategy}"
                cert = session.request(
                    "certify", f"certify:{key}",
                    functools.partial(
                        certify.search_nse, spec, probes, epsilon=epsilon,
                        target_depth=depth, index_bound=bound, strategy=strategy,
                    ),
                    lambda c: (serialization.canonical_dumps(c and c.to_json_dict()), {"ok": True}),
                )
                if cert is not None:
                    session.request(
                        "check", f"check:{key}", functools.partial(_round_trip_check, cert),
                        lambda res: (f"{res.accepted} {res.reason}\n", {"ok": res.accepted}),
                    )


WORKLOADS = {w.name: w for w in (GalleryDefault, WideOperators, TreeCertify)}
