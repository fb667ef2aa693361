"""Traced runs: wrap hampart's public functions from outside the package.

Each wrapped function records a span (name, start, end, parent span, op id,
ru_maxrss before and after) while an op is running. The two innermost hot
paths, `apply_block` and `term_matrix`, are only counted: a span per call
would cost more than the call. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from collections import defaultdict

# (module, attribute, span name); `PauliSum.apply` is a method.
SPANNED = (
    ("hampart.cli", "main", "cli.main"),
    ("hampart.pauli", "parse_pauli_text", "pauli.parse_pauli_text"),
    ("hampart.pauli", "format_pauli_text", "pauli.format_pauli_text"),
    ("hampart.pauli", "PauliSum.apply", "pauli.PauliSum.apply"),
    ("hampart.operators", "load_fcidump", "operators.load_fcidump"),
    ("hampart.encodings", "jordan_wigner", "encodings.jordan_wigner"),
    ("hampart.encodings", "encode_boson_operator", "encodings.encode_boson_operator"),
    ("hampart.partitioners", "sorted_insertion", "partitioners.sorted_insertion"),
    ("hampart.partitioners", "greedy_partition", "partitioners.greedy_partition"),
    ("hampart.partitioners", "qpn_partition", "partitioners.qpn_partition"),
    ("hampart.partitioners", "color_partition_bose_hubbard",
     "partitioners.color_partition_bose_hubbard"),
    ("hampart.fragments", "partition_to_json", "fragments.partition_to_json"),
    ("hampart.fragments", "partition_from_json", "fragments.partition_from_json"),
    ("hampart.variance", "random_state", "variance.random_state"),
    ("hampart.variance", "partition_cost", "variance.partition_cost"),
    ("hampart.variance", "lower_bound", "variance.lower_bound"),
    ("hampart.validators", "validate_partition", "validators.validate_partition"),
    ("hampart.validators", "check_reconstruction", "validators.check_reconstruction"),
    ("hampart.validators", "check_commutation", "validators.check_commutation"),
    ("hampart.validators", "diagonalize_fragment", "validators.diagonalize_fragment"),
)
COUNTED = (
    ("hampart.fragments", "apply_block", "fragments.apply_block"),
    ("hampart.fragments", "term_matrix", "fragments.term_matrix"),
)
PARTITIONERS = tuple(name for _, _, name in SPANNED if name.startswith("partitioners."))

# Per-layer metrics reported by a traced run: name -> unit.
PER_LAYER_UNITS = {
    "validators.validate_partition.s": "s",
    "validators.check_commutation.s": "s",
    "validators.diagonalize_fragment.s": "s",
    "validators.diagonalize_fragment.calls": "count",
    "validators.check_reconstruction.s": "s",
    "validators.check_reconstruction.rss_step_mib": "MiB",
    "validators.failed": "count",
    "fragments.apply_block.calls": "count",
    "fragments.apply_block.bytes": "B-computed",
    "fragments.term_matrix.calls": "count",
    "fragments.partition_to_json.s": "s",
    "fragments.partition_from_json.s": "s",
    "variance.partition_cost.s": "s",
    "variance.partition_cost.calls": "count",
    "variance.lower_bound.s": "s",
    "variance.lower_bound.calls": "count",
    "variance.random_state.s": "s",
    "partitioners.sorted_insertion.s": "s",
    "partitioners.greedy_partition.s": "s",
    "partitioners.fragments": "count",
    "encodings.jordan_wigner.s": "s",
    "encodings.encode_boson_operator.s": "s",
    "operators.load_fcidump.s": "s",
    "pauli.parse_pauli_text.s": "s",
    "pauli.format_pauli_text.s": "s",
    "pauli.PauliSum.apply.s": "s",
    "pauli.PauliSum.apply.calls": "count",
    "cli.main.calls": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Span recorder; records only while `op_id` is set."""

    def __init__(self):
        self.op_id: int | None = None
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self):
        for module, attr, name in SPANNED:
            self._wrap(module, attr, self._spanned(name))
        for module, attr, name in COUNTED:
            self._wrap(module, attr, self._counted(name))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, module: str, attr: str, make):
        mod = importlib.import_module(module)
        if "." in attr:  # a method: patch the class once
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(mod, attr)
        wrapped = make(original)
        # hampart modules import each other's functions by name, so patch
        # every module attribute that refers to the original.
        for name, other in list(sys.modules.items()):
            if other is None or not (name == "hampart" or name.startswith("hampart.")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._restore.append((other, key, original))
                    setattr(other, key, wrapped)

    def _spanned(self, name: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.op_id is None:
                    return fn(*args, **kwargs)
                span = {
                    "name": name,
                    "op": self.op_id,
                    "parent": self._stack[-1] if self._stack else None,
                    "rss_before_kib": _maxrss_kib(),
                    "error": None,
                    "start": time.perf_counter(),
                }
                self._stack.append(len(self.spans))
                self.spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    span["error"] = type(exc).__name__
                    raise
                finally:
                    span["end"] = time.perf_counter()
                    span["rss_after_kib"] = _maxrss_kib()
                    self._stack.pop()
                if name in PARTITIONERS:
                    span["fragments"] = len(result.fragments)
                elif name == "validators.validate_partition":
                    span["ok"] = bool(result.ok)
                return result

            return wrapper

        return make

    def _counted(self, name: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.op_id is not None:
                    self.counts[name + ".calls"] += 1
                    if name == "fragments.apply_block":
                        n = kwargs["n"] if "n" in kwargs else args[1]
                        self.counts[name + ".bytes"] += 2 * 16 * (1 << n)
                return fn(*args, **kwargs)

            return wrapper

        return make

    # -- derived metrics ----------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values from the spans and counters (without the overhead)."""
        metrics = {name: 0 for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
        for key, value in self.counts.items():
            metrics[key] = value
        for span, self_s in zip(self.spans, self.self_times()):
            name = span["name"]
            if name == "cli.main":
                metrics["cli.main.calls"] += 1
                metrics["cli.self_s"] += self_s
                continue
            if name + ".s" in metrics:
                metrics[name + ".s"] += self_s
            if name + ".calls" in metrics:
                metrics[name + ".calls"] += 1
            if "fragments" in span:
                metrics["partitioners.fragments"] += span["fragments"]
            if name == "validators.validate_partition" and (
                span["error"] is not None or not span.get("ok", False)
            ):
                metrics["validators.failed"] += 1
            if name == "validators.check_reconstruction":
                step = (span["rss_after_kib"] - span["rss_before_kib"]) / 1024.0
                metrics["validators.check_reconstruction.rss_step_mib"] = max(
                    metrics["validators.check_reconstruction.rss_step_mib"], step
                )
        return {k: int(v) if PER_LAYER_UNITS[k] in ("count", "B-computed") else float(v)
                for k, v in metrics.items()}
