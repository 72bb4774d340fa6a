"""Per-layer spans for the logvar benchmark, recorded from outside the library.

Each hook replaces one attribute in the namespace of the module that calls it
(the name the caller looks up at run time), records a span around the call,
and is put back when tracing stops. Spans stay in memory until the run ends.
A span's self time is its duration minus the durations of its child spans;
calls are strictly nested because the benchmark runs on one thread.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from logvar.embed import PAD

ALL = ("parse-bulk", "stream-long", "train")
PARSE = ("parse-bulk", "stream-long")

# (hook, module, attribute path in that module, workloads that must call it)
HOOKS = (
    ("parse.tag_log", "logvar.parse", "tag_log", ("parse-bulk",)),
    ("parse.extract_template", "logvar.parse", "extract_template", ("parse-bulk",)),
    ("parse.intern", "logvar.parse", "TemplateStore.intern", ("parse-bulk",)),
    ("corpus.tokenize", "logvar.tagger", "tokenize", PARSE),
    ("embed.encode_log", "logvar.tagger", "encode_log", PARSE),
    ("tagger.forward", "logvar.tagger", "_forward", ALL),
    ("tagger.char_cnn", "logvar.tagger", "_char_forward", PARSE),
    ("tagger.lstm", "logvar.tagger", "_lstm_forward", ALL),
    ("tagger.lstm_bwd", "logvar.tagger", "_lstm_backward", ("train",)),
    ("tagger.backward_net", "logvar.tagger", "_backward_net", ("train",)),
    ("crf.viterbi", "logvar.crf", "viterbi_decode", PARSE),
    ("crf.nll_gradients", "logvar.crf", "nll_gradients", ("train",)),
    ("train.loss_and_gradients", "logvar.train", "loss_and_gradients", ("train",)),
    ("train.decode", "logvar.train", "decode", ("train",)),
    ("train.val", "logvar.train", "_val_metric", ("train",)),
    ("train.clip", "logvar.train", "clip_global_norm", ("train",)),
    ("train.adam_step", "logvar.train", "Adam.step", ("train",)),
)

# per-layer metric -> (unit, better, hooks it needs)
PER_LAYER = {
    "tagger.char_cnn.ms_per_log": ("ms", "lower", ("tagger.char_cnn",)),
    "tagger.char_cnn.char_fill": ("ratio", "higher", ("tagger.char_cnn",)),
    "tagger.char_cnn.rows_per_token": ("count", "lower", ("tagger.char_cnn",)),
    "tagger.lstm_f.ms_per_log": ("ms", "lower", ("tagger.lstm", "tagger.forward")),
    "tagger.lstm_b.ms_per_log": ("ms", "lower", ("tagger.lstm", "tagger.forward")),
    "tagger.lstm.calls_per_log": ("count", "lower", ("tagger.lstm",)),
    "tagger.forward.self_ms_per_log": ("ms", "lower", ("tagger.forward",)),
    "crf.viterbi.ms_per_log": ("ms", "lower", ("crf.viterbi",)),
    "crf.nll_gradients.ms_per_log": ("ms", "lower", ("crf.nll_gradients",)),
    "tagger.lstm_bwd.ms_per_log": ("ms", "lower", ("tagger.lstm_bwd",)),
    "tagger.backward_net.self_ms_per_log": ("ms", "lower", ("tagger.backward_net",)),
    "train.adam_step.ms_per_batch": ("ms", "lower", ("train.adam_step",)),
    "train.clip.ms_per_batch": ("ms", "lower", ("train.clip",)),
    "train.val.ms_per_log": ("ms", "lower", ("train.val",)),
    "corpus.tokenize.ms_per_log": ("ms", "lower", ("corpus.tokenize",)),
    "embed.encode_log.ms_per_log": ("ms", "lower", ("embed.encode_log",)),
    "parse.extract_template.ms_per_log": ("ms", "lower", ("parse.extract_template",)),
    "parse.intern.ms_per_log": ("ms", "lower", ("parse.intern",)),
    "parse.tag_log.self_ms_per_log": ("ms", "lower", ("parse.tag_log",)),
    "trace.untraced_share": ("ratio", "lower", ()),
    "trace.overhead": ("ratio", "lower", ()),
}


class TraceError(Exception):
    """The recorded spans are inconsistent with the measured wall time."""


def _note_model(tracer: "Tracer", args: tuple) -> None:
    tracer.model = args[1]


def _count_chars(tracer: "Tracer", args: tuple) -> None:
    char_ids = args[0]
    tracer.counts["char_rows"] += char_ids.shape[0]
    tracer.counts["char_real"] += int(np.count_nonzero(char_ids != PAD))
    tracer.counts["char_positions"] += char_ids.size


def _lstm_direction(tracer: "Tracer", args: tuple) -> str:
    if tracer.model is None:
        return "tagger.lstm"
    forward = args[1] is tracer.model.params["lstm_f_Wx"]
    return "tagger.lstm_f" if forward else "tagger.lstm_b"


# hook -> callable(tracer, args) run before the span opens; a returned
# string renames the span
PROBES = {
    "tagger.forward": _note_model,
    "tagger.char_cnn": _count_chars,
    "tagger.lstm": _lstm_direction,
}


def _resolve(module: str, path: str):
    """(owner, attribute) for a dotted path inside a module, or None.

    Modules come from importlib, not attribute access on the package: the
    package re-exports ``train``, so ``logvar.train`` names the function.
    """
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Spans and boundary counts for one workload run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.calls: Counter[str] = Counter()  # per hook
        self.counts: Counter[str] = Counter()  # per boundary and per unit
        self.model = None
        self.root_factors: dict[int, float] = {}  # root span index -> machine speed
        self.unmeasured: set[str] = set()
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def _wrapper(self, hook: str, original):
        probe = PROBES.get(hook)

        def traced(*args, **kwargs):
            self.calls[hook] += 1
            name = (probe(self, args) if probe else None) or hook
            return self.call(name, original, *args, **kwargs)

        return traced

    @contextmanager
    def hooked(self):
        """Install every hook that resolves; restore the originals on exit."""
        installed = []
        try:
            for hook, module, path, _ in HOOKS:
                target = _resolve(module, path)
                if target is None:
                    self.unmeasured.add(hook)
                    continue
                owner, attr = target
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrapper(hook, original))
                installed.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(installed):
                setattr(owner, attr, original)

    def layer_times(self, scaled: bool = True) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, total ns, self ns).

        Scaled times are at the reference machine speed: each span takes
        the speed factor of the root span (benchmark unit) it ran under.
        """
        child_ns = [0] * len(self.spans)
        factor = [1.0] * len(self.spans)
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_ns[parent] += end - start
                factor[i] = factor[parent]
            elif scaled:
                factor[i] = self.root_factors.get(i, 1.0)
        out: dict[str, list] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            self_ns = end - start - child_ns[i]
            if self_ns < 0:
                raise TraceError(f"span {name} has negative self time {self_ns} ns")
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += (end - start) * factor[i]
            agg[2] += self_ns * factor[i]
        return {name: tuple(v) for name, v in out.items()}

    def check_self_times(self, raw_wall_s: float) -> None:
        """Self times are non-negative and sum to no more than the wall time."""
        self_total_ns = sum(v[2] for v in self.layer_times(scaled=False).values())
        if self_total_ns > raw_wall_s * 1e9:
            raise TraceError(
                f"self times sum to {self_total_ns / 1e9:.6f} s, more than the "
                f"{raw_wall_s:.6f} s of wall time"
            )

    def summary(self) -> dict:
        """What one process contributes to the per-layer metrics (JSON-ready)."""
        return {
            "times": {k: list(v) for k, v in self.layer_times().items()},
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "unmeasured": sorted(self.unmeasured),
        }


def merge(summaries: list[dict]) -> dict:
    """Sum the per-process summaries of one run."""
    times: dict[str, list] = {}
    calls: Counter[str] = Counter()
    counts: Counter[str] = Counter()
    unmeasured: set[str] = set()
    for part in summaries:
        for name, v in part["times"].items():
            times[name] = [a + b for a, b in zip(times.get(name, [0, 0, 0]), v)]
        calls.update(part["calls"])
        counts.update(part["counts"])
        unmeasured.update(part["unmeasured"])
    return {"times": times, "calls": calls, "counts": counts, "unmeasured": unmeasured}


def zero_call_flags(workload: str, merged: dict) -> list[str]:
    """Resolved hooks that this workload should call but never did."""
    return sorted(
        hook for hook, _, _, workloads in HOOKS
        if workload in workloads
        and hook not in merged["unmeasured"]
        and merged["calls"][hook] == 0
    )


def unmeasured_metrics(merged: dict) -> list[str]:
    return sorted(m for m, (_, _, hooks) in PER_LAYER.items()
                  if any(h in merged["unmeasured"] for h in hooks))


def per_layer(merged: dict, root: str, overhead: float) -> dict[str, float]:
    """Every per-layer metric; 0.0 for a layer this workload never enters.

    ``ms_per_log`` divides by the workload's logs (lines parsed, or training
    logs on train), so that the layers' self times add up to the traced time
    per log. ``calls_per_log`` and ``rows_per_token`` divide by the logs and
    tokens that went through the network, which on train includes the
    validation pass.
    """
    times, c = merged["times"], merged["counts"]

    def ms(name: str, per: str, field: int = 1) -> float:
        if name not in times or not c[per]:
            return 0.0
        return times[name][field] / 1e6 / c[per]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    lstm_calls = sum(times[n][0] for n in ("tagger.lstm_f", "tagger.lstm_b", "tagger.lstm")
                     if n in times)
    _, root_ns, root_self_ns = times.get(root, (0, 0, 0))
    return {
        "tagger.char_cnn.ms_per_log": ms("tagger.char_cnn", "logs"),
        "tagger.char_cnn.char_fill": ratio(c["char_real"], c["char_positions"]),
        "tagger.char_cnn.rows_per_token": ratio(c["char_rows"], c["fwd_tokens"]),
        "tagger.lstm_f.ms_per_log": ms("tagger.lstm_f", "logs"),
        "tagger.lstm_b.ms_per_log": ms("tagger.lstm_b", "logs"),
        "tagger.lstm.calls_per_log": ratio(lstm_calls, c["fwd_logs"]),
        "tagger.forward.self_ms_per_log": ms("tagger.forward", "logs", 2),
        "crf.viterbi.ms_per_log": ms("crf.viterbi", "logs"),
        "crf.nll_gradients.ms_per_log": ms("crf.nll_gradients", "logs"),
        "tagger.lstm_bwd.ms_per_log": ms("tagger.lstm_bwd", "logs"),
        "tagger.backward_net.self_ms_per_log": ms("tagger.backward_net", "logs", 2),
        "train.adam_step.ms_per_batch": ms("train.adam_step", "batches"),
        "train.clip.ms_per_batch": ms("train.clip", "batches"),
        "train.val.ms_per_log": ms("train.val", "val_logs"),
        "corpus.tokenize.ms_per_log": ms("corpus.tokenize", "logs"),
        "embed.encode_log.ms_per_log": ms("embed.encode_log", "logs"),
        "parse.extract_template.ms_per_log": ms("parse.extract_template", "logs"),
        "parse.intern.ms_per_log": ms("parse.intern", "logs"),
        "parse.tag_log.self_ms_per_log": ms("parse.tag_log", "logs", 2),
        "trace.untraced_share": ratio(root_self_ns, root_ns),
        "trace.overhead": overhead,
    }


def shares(merged: dict) -> dict[str, dict]:
    """Calls, total and self ms, and share of all self time, per span name."""
    all_self_ns = sum(v[2] for v in merged["times"].values())
    return {
        name: {"calls": n, "total_ms": total / 1e6, "self_ms": self_ns / 1e6,
               "self_share": self_ns / all_self_ns}
        for name, (n, total, self_ns) in sorted(merged["times"].items())
    }
