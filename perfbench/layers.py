"""Per-layer tracing of one in-process `tbltag.cli.main` call.

The layers are tbltag's modules. Timing wrappers are placed from here, not
in the program: each function in WRAPPED is replaced by a wrapper in every
tbltag module that binds it, so calls through `from .x import f` and
through `x.f` are both seen. Each call records a span (name, start, end,
parent) in memory; a layer's self time is the duration of its spans minus
the part their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# module -> metric prefix of its layer
LAYERS = {
    "corpus": "corpus",
    "rules": "rules",
    "training": "training",
    "trainer_incremental": "incr",
    "trainer_naive": "naive",
    "evaluate": "evaluate",
    "dependency": "dependency",
    "cli": "cli",
}

# The layer boundaries the train and tag commands cross, as (module, function).
WRAPPED = (
    ("cli", "main"),
    ("corpus", "parse_corpus"),
    ("corpus", "serialize_corpus"),
    ("corpus", "build_lexicon"),
    ("corpus", "baseline_assign"),
    ("corpus", "error_count"),
    ("rules", "find_sites"),
    ("rules", "apply_rule"),
    ("training", "select"),
    ("training", "apply_at_sites"),
    ("training", "save_model"),
    ("training", "load_model"),
    ("training", "trace_tsv"),
    ("trainer_incremental", "train_incremental"),
    ("trainer_incremental", "init_index"),
    ("trainer_incremental", "apply_and_update"),
    ("trainer_naive", "train_naive"),
    ("trainer_naive", "enumerate_candidates"),
    ("evaluate", "tag"),
    ("dependency", "record_pass"),
    ("dependency", "dependency_report"),
)

# metric -> function whose spans' total (inclusive) duration it reports
SPAN_TIMES = {
    "incr.apply_update_s": "trainer_incremental.apply_and_update",
    "incr.init_index_s": "trainer_incremental.init_index",
    "training.select_s": "training.select",
    "training.save_model_s": "training.save_model",
    "naive.enumerate_s": "trainer_naive.enumerate_candidates",
    "rules.apply_rule_s": "rules.apply_rule",
    "rules.find_sites_s": "rules.find_sites",
    "corpus.parse_s": "corpus.parse_corpus",
    "corpus.serialize_s": "corpus.serialize_corpus",
    "corpus.baseline_s": "corpus.baseline_assign",
    "dependency.record_pass_s": "dependency.record_pass",
    "dependency.report_s": "dependency.dependency_report",
}

COUNTS = (
    "training.select_calls",
    "incr.unseen_rules_added",
    "incr.sites_rechecked",
    "incr.sites_changed",
    "incr.table_rules",
    "incr.links_total",
    "naive.candidates_scored",
    "rules.sites_matched",
    "dependency.nodes",
)


class TraceError(RuntimeError):
    """The program no longer has a name the traced run measures."""


def _attr(obj, name: str):
    try:
        return getattr(obj, name)
    except AttributeError:
        raise TraceError(
            f"{type(obj).__module__}.{type(obj).__name__} has no attribute {name!r}"
        ) from None


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        # [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._index = None  # the incremental trainer's index, read at the end
        self._restore: list[tuple] = []

    def _on_return(self, name: str, args, result) -> None:
        c = self.counts
        if name == "training.select":
            c["training.select_calls"] += 1
        elif name == "trainer_incremental.init_index":
            self._index = result
        elif name == "trainer_incremental.apply_and_update":
            index = args[0]
            self._index = index
            c["incr.sites_changed"] += len(result)
            c["incr.unseen_rules_added"] += _attr(index, "last_unseen_added")
            c["incr.sites_rechecked"] += _attr(index, "last_sites_rechecked")
        elif name == "trainer_naive.enumerate_candidates":
            c["naive.candidates_scored"] += len(result)
        elif name == "rules.apply_rule":
            c["rules.sites_matched"] += len(result)
        elif name == "dependency.record_pass":
            c["dependency.nodes"] += len(result)

    def _wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            self._on_return(name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every WRAPPED function wherever a tbltag module binds it."""
        modules = {m: importlib.import_module(f"tbltag.{m}") for m in LAYERS}
        for mod_name, fn_name in WRAPPED:
            fn = getattr(modules[mod_name], fn_name, None)
            if not callable(fn):
                raise TraceError(
                    f"tbltag.{mod_name}.{fn_name} is gone; the traced run measures it"
                )
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn)
            for name, module in list(sys.modules.items()):
                if name != "tbltag" and not name.startswith("tbltag."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._restore.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the finished run; wall_s is its traced wall time."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = {prefix: 0.0 for prefix in LAYERS.values()}
        inclusive: dict[str, float] = {}
        covered = 0.0  # time inside spans of layers other than cli
        for i, (name, start, end, parent) in enumerate(spans):
            layer = LAYERS[name.split(".", 1)[0]]
            self_s[layer] += end - start - child_time[i]
            inclusive[name] = inclusive.get(name, 0.0) + end - start
            if layer != "cli" and (parent < 0 or spans[parent][0].startswith("cli.")):
                covered += end - start

        out = {metric: inclusive.get(fn, 0.0) for metric, fn in SPAN_TIMES.items()}
        out.update(self.counts)
        if self._index is not None:
            out["incr.table_rules"] = len(_attr(self._index, "table"))
            out["incr.links_total"] = _attr(self._index, "links_total")
        rechecked = out["incr.sites_rechecked"]
        out["incr.changed_per_rechecked"] = (
            out["incr.sites_changed"] / rechecked if rechecked else 0.0
        )
        layer_sum = sum(v for k, v in self_s.items() if k != "cli")
        if abs(layer_sum - covered) > 1e-6 * max(1.0, covered):
            raise TraceError(f"layer self times sum to {layer_sum} s, spans cover {covered} s")
        self_s["cli"] = wall_s - covered
        for prefix, value in self_s.items():
            out[f"{prefix}.self_s"] = value
        out["trace.wall_s"] = wall_s
        return out

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]
