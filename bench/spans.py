"""Span tracing of ergorank from outside the package.

`Tracer.install` wraps the layer-boundary functions of each module in
`TARGETS` and rebinds every name that refers to the original anywhere in the
loaded ``ergorank`` modules, including names bound by ``from .x import y``.
So ``check_ergodic``'s inner ``check_cesaro_bounded`` call and the
``apply_columns`` calls made inside ``classify``, ``tree`` and ``cesaro`` are
all seen.  A target that no longer exists is skipped and listed in
`missing`; it records nothing and does not fail the run.

Each span stores its name, start, end, parent span, request id, and one
number taken from the call (columns, steps, members, bytes, status).  Spans
live in compact arrays and are written once, at the end of the run.  Calls
made outside a request (the benchmark reading outputs) are not recorded.
"""

from __future__ import annotations

import array
import contextlib
import functools
import sys
import time

import numpy as np

#: Functions wrapped per module: the public entry points that the
#: per-layer metrics are defined on.  Per-node helpers (``node_key``) are
#: left out; wrapping them would multiply the span count tenfold.
TARGETS = {
    "operators": ("apply_columns", "column_norms", "matrix_norm", "default_probes"),
    "cesaro": ("trajectory", "cesaro_diff"),
    "classify": (
        "check_power_bounded", "check_cesaro_bounded", "check_ergodic",
        "check_uniformly_ergodic",
    ),
    "tree": ("build_truncation", "truncated_height", "tree_to_dot"),
    "certify": ("rank_estimate", "search_nse", "check_certificate"),
    "serialization": ("canonical_dumps", "canonical_loads", "atomic_write_text", "sha256_hex"),
    "cli": ("main", "build_report"),
}

OPERATOR_KINDS = ("dense_matrix", "diagonal", "weighted_left_shift", "sparse_triplets")
KIND_LABELS = ("dense", "diagonal", "shift", "sparse")
STATUSES = ("holds", "fails", "inconclusive")
STRATEGIES = ("doubling", "beam")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _model_cost(spec, columns):
    """(flops, bytes) of one apply_columns call, computed from the operator
    kind and shapes (a model, not a hardware counter)."""
    d = spec.dim
    if spec.kind == "dense_matrix":
        return 2.0 * d * d * columns, 8.0 * (d * d + 2 * d * columns)
    if spec.kind == "sparse_triplets":
        nnz = len(spec.entries[0])
        return 2.0 * nnz * columns, 8.0 * (3 * nnz + 2 * nnz * columns + d * columns)
    return float(d * columns), 8.0 * (d + 2 * d * columns)


class Tracer:
    """Records spans while installed; `metrics` summarises them per pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.parent = array.array("i")
        self.request = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.value = array.array("d")
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack = [-1]
        self._request_id = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1])
        self.request.append(self._request_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.value.append(0.0)
        self._stack.append(index)
        return index

    def _count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    @contextlib.contextmanager
    def request_span(self, request_id: int, kind: str):
        """Root span of one benchmark request."""
        self._request_id = request_id
        index = self._open(self._name_id(f"bench.{kind}"))
        self.start[index] = time.perf_counter()
        try:
            yield
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()
            self._request_id = -1

    def _wrap(self, qualname: str, fn):
        name_id = self._name_id(qualname)
        hook = getattr(self, "_hook_" + qualname.replace(".", "_"), None)
        # Kind-specific span names for apply_columns, so per-kind time needs
        # no extra per-span field.
        kind_ids = {
            kind: self._name_id(f"{qualname}.{label}")
            for kind, label in zip(OPERATOR_KINDS, KIND_LABELS)
        } if qualname == "operators.apply_columns" else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._request_id < 0:  # benchmark work outside a request
                return fn(*args, **kwargs)
            span_id = name_id
            if kind_ids is not None:
                span_id = kind_ids.get(getattr(_arg(args, kwargs, 0, "spec"), "kind", None), name_id)
            index = tracer._open(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[index] = time.perf_counter()
                tracer.start[index] = start
                tracer._stack.pop()
            if hook is not None:
                try:
                    tracer.value[index] = hook(args, kwargs, result)
                except Exception:  # a hook must never fail the traced call
                    tracer._count("trace.hook_errors", 1)
            return result

        return traced

    # -- per-call values ---------------------------------------------------

    def _hook_operators_apply_columns(self, args, kwargs, result):
        spec = _arg(args, kwargs, 0, "spec")
        columns = result.shape[1]
        flops, nbytes = _model_cost(spec, columns)
        self._count("operators.apply_columns.flops_computed", flops)
        self._count("operators.apply_columns.bytes_computed", nbytes)
        return columns

    def _hook_cesaro_trajectory(self, args, kwargs, result):
        self._count("cesaro.trajectory.diverged", result.diverged_at is not None)
        return result.horizon

    def _status(self, args, kwargs, result):
        return STATUSES.index(result.status)

    def _hook_classify_check_power_bounded(self, args, kwargs, result):
        # Probe columns times horizon: one full pass of the recurrence.
        probes = _arg(args, kwargs, 1, "probes")
        horizon = _arg(args, kwargs, 2, "horizon")
        self._count("classify.pass_columns", float(horizon) * len(probes))
        return self._status(args, kwargs, result)

    _hook_classify_check_cesaro_bounded = _status
    _hook_classify_check_ergodic = _status
    _hook_classify_check_uniformly_ergodic = _status

    def _hook_tree_build_truncation(self, args, kwargs, result):
        self._count("tree.build_truncation.partial", bool(result.partial))
        return len(result.members)

    def _hook_certify_rank_estimate(self, args, kwargs, result):
        return len(result.heights)

    def _hook_certify_search_nse(self, args, kwargs, result):
        return STRATEGIES.index(_arg(args, kwargs, 5, "strategy", "doubling"))

    def _hook_certify_check_certificate(self, args, kwargs, result):
        return 0.0 if result.accepted else 1.0

    def _hook_serialization_canonical_dumps(self, args, kwargs, result):
        return len(result.encode("utf-8"))

    def _hook_serialization_canonical_loads(self, args, kwargs, result):
        return len(_arg(args, kwargs, 0, "text").encode("utf-8"))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind it wherever a loaded ergorank module
        (or the package itself) holds a reference to the original."""
        loaded = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "ergorank" or name.startswith("ergorank."))
        ]
        for module_name, functions in TARGETS.items():
            owner = sys.modules.get(f"ergorank.{module_name}")
            for fn_name in functions:
                original = getattr(owner, fn_name, None) if owner is not None else None
                if not callable(original):
                    self.missing.append(f"{module_name}.{fn_name}")
                    continue
                traced = self._wrap(f"{module_name}.{fn_name}", original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, traced)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    # -- summary -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "value": np.frombuffer(self.value, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, each per pass (totals divided by `passes`)."""
        a = self.arrays()
        name, parent, value = a["name"], a["parent"], a["value"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.zeros(dur.size)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        def ids(*qualnames):
            return [self._name_ids[q] for q in qualnames if q in self._name_ids]

        def mask(*qualnames):
            return np.isin(name, ids(*qualnames))

        def under(*qualnames):
            """Spans with a strict ancestor among `qualnames`."""
            targets = np.isin(np.arange(len(self.names)), ids(*qualnames))
            found = np.zeros(name.size, dtype=bool)
            cursor = parent.copy()
            while True:
                live = cursor >= 0
                if not live.any():
                    return found
                found[live] |= targets[name[cursor[live]]]
                cursor[live] = parent[cursor[live]]

        apply_names = ("operators.apply_columns",) + tuple(
            f"operators.apply_columns.{label}" for label in KIND_LABELS
        )
        classify_names = tuple(f"classify.{fn}" for fn in TARGETS["classify"])
        out: dict[str, float] = {}

        def put(key, total):
            out[key] = float(total) / passes

        def calls_and_time(qualname, extra=()):
            m = mask(qualname, *extra)
            put(f"{qualname}.calls", m.sum())
            put(f"{qualname}.s", dur[m].sum())
            return m

        applies = calls_and_time("operators.apply_columns", apply_names[1:])
        put("operators.apply_columns.columns", value[applies].sum())
        for label in KIND_LABELS:
            put(f"operators.apply_columns.{label}.s", dur[mask(f"operators.apply_columns.{label}")].sum())
        for key in ("flops_computed", "bytes_computed"):
            put(f"operators.apply_columns.{key}", self.counters.get(f"operators.apply_columns.{key}", 0.0))
        for fn in ("column_norms", "matrix_norm"):
            calls_and_time(f"operators.{fn}")
        put("operators.default_probes.s", dur[mask("operators.default_probes")].sum())

        traj = calls_and_time("cesaro.trajectory")
        put("cesaro.trajectory.steps", value[traj].sum())
        put("cesaro.trajectory.diverged", self.counters.get("cesaro.trajectory.diverged", 0.0))
        calls_and_time("cesaro.cesaro_diff")

        put("classify.check_power_bounded.s", dur[mask("classify.check_power_bounded")].sum())
        calls_and_time("classify.check_cesaro_bounded")
        put("classify.check_ergodic.self_s", self_time[mask("classify.check_ergodic")].sum())
        put("classify.check_uniformly_ergodic.s", dur[mask("classify.check_uniformly_ergodic")].sum())
        in_classify = applies & under(*classify_names)
        applications = value[in_classify].sum()
        put("classify.operator_applications", applications)
        pass_columns = self.counters.get("classify.pass_columns", 0.0)
        out["classify.passes_per_horizon"] = applications / pass_columns if pass_columns else 0.0
        top_verdicts = mask(*classify_names) & ~under(*classify_names)
        for code, status in enumerate(STATUSES):
            put(f"classify.verdicts.{status}", (top_verdicts & (value == code)).sum())

        builds = calls_and_time("tree.build_truncation")
        put("tree.build_truncation.members", value[builds].sum())
        put("tree.build_truncation.partial", self.counters.get("tree.build_truncation.partial", 0.0))
        put("tree.truncated_height.s", dur[mask("tree.truncated_height")].sum())
        put("tree.tree_to_dot.s", dur[mask("tree.tree_to_dot")].sum())
        ranks = mask("certify.rank_estimate")
        heights = value[ranks].sum()
        rank_members = value[builds & under("certify.rank_estimate")].sum()
        out["tree.members_per_height"] = rank_members / heights if heights else 0.0

        put("certify.rank_estimate.calls", ranks.sum())
        put("certify.rank_estimate.self_s", self_time[ranks].sum())
        searches = mask("certify.search_nse")
        for code, strategy in enumerate(STRATEGIES):
            put(f"certify.search_nse.{strategy}.s", dur[searches & (value == code)].sum())
        checks = calls_and_time("certify.check_certificate")
        put("certify.check_certificate.rejected", value[checks].sum())

        for fn in ("canonical_dumps", "canonical_loads"):
            m = mask(f"serialization.{fn}")
            put(f"serialization.{fn}.s", dur[m].sum())
            put(f"serialization.{fn}.bytes", value[m].sum())
        for fn in ("atomic_write_text", "sha256_hex"):
            put(f"serialization.{fn}.s", dur[mask(f"serialization.{fn}")].sum())

        put("cli.main.s", dur[mask("cli.main")].sum())
        put("cli.build_report.s", dur[mask("cli.build_report")].sum())

        # Self time per layer (module); request root spans form the
        # "bench" layer: benchmark glue plus program code outside TARGETS.
        layer_of = np.array([q.split(".", 1)[0] for q in self.names] or [""])
        for layer in ("bench", *TARGETS):
            put(f"layer.{layer}.self_s", self_time[layer_of[name] == layer].sum() if name.size else 0.0)
        put("trace.spans", name.size)
        return out
