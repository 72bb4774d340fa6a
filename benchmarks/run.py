"""logvar benchmark: bulk parse, per-line streaming tag, and training.

Run from the repository root:

    python3 benchmarks/run.py --workload parse-bulk --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload runs untraced and the end-to-end metrics are
printed. With ``--trace 1`` untraced and traced units alternate and the
per-layer metrics are printed. The last line of standard output is one JSON
object; a fuller record (environment, sample counts, per-span times) goes to
``.bench_out/`` at the repository root. See ``benchmarks/README.md``.
"""

from __future__ import annotations

import os
import sys
import time

_T_START = time.perf_counter()
# Before numpy is imported: one BLAS thread, and no tagging thread pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("VALB_THREADS", None)

from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
if not (SRC / "logvar" / "__init__.py").is_file():
    sys.exit(f"benchmark: no logvar sources under {SRC}")
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Callable, Iterator  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from logvar import (  # noqa: E402
    AnnotatedLog,
    Hyperparams,
    TrainConfig,
    build_vocabs,
    generate_synthetic,
    init_model,
    load_model,
    parse_corpus,
    tag_log,
    train,
)
from logvar.errors import IOBError  # noqa: E402
from logvar.evaluate import variable_aware_accuracy  # noqa: E402
from logvar.parse import ParseResult, reconstruct  # noqa: E402
from logvar.taxonomy import OUTSIDE, Tag, check_iob  # noqa: E402

import layertrace  # noqa: E402
from speedclock import SpeedClock  # noqa: E402

IMPORT_S = time.perf_counter() - _T_START

# The synthetic family the pinned model was trained on (see make_model.py).
FAMILY_SEED = 1
N_TEMPLATES = 20
MODEL_TRAIN = 800  # logs [0, 800) train the pinned model
MODEL_VAL = 100  # logs [800, 900) select its checkpoint; workloads draw from 900 on
TRAIN_CONFIG = TrainConfig(epochs=1, batch_size=8, learning_rate=1e-2, seed=1)
INIT_SEED = 1
MODEL_PATH = BENCH_DIR / "model.bin"
MODEL_BLAKE2B = "c05f3779d6f7c9a03107b638c49545a751b694341906238a7d8a6ca784425faa"

# A run whose variable-aware accuracy falls below its floor is not correct.
VAR_ACC_FLOOR = {"parse-bulk": 0.95, "stream-long": 0.55, "train": 0.8}

OUT_DIR = ROOT / ".bench_out"
GIVE_UP_S = 60.0  # past the deadline, stop waiting for enough good units


@dataclass(frozen=True)
class Sizes:
    pool: int = 4000  # held-out family logs the seed draws inputs from
    bulk_lines: int = 2000
    stream_lines: int = 1200
    logs_per_stream_line: int = 4
    train_logs: int = 800
    val_logs: int = 100
    min_stream_samples: int = 1000  # per run, so that ten lines lie beyond p99
    stream_block: int = 100  # tag_log calls per throughput sample


SIZES = Sizes()


class CheckFailed(Exception):
    """A workload produced a wrong output."""


def family_logs(n: int) -> list[AnnotatedLog]:
    logs, _ = generate_synthetic(seed=FAMILY_SEED, n_templates=N_TEMPLATES, n_logs=n)
    return logs


def held_out(pool: int) -> list[AnnotatedLog]:
    """Family logs the pinned model never saw in training or selection."""
    return family_logs(MODEL_TRAIN + MODEL_VAL + pool)[MODEL_TRAIN + MODEL_VAL:]


def load_pinned_model():
    digest = hashlib.blake2b(MODEL_PATH.read_bytes(), digest_size=32).hexdigest()
    if digest != MODEL_BLAKE2B:
        raise CheckFailed(f"{MODEL_PATH.name}: BLAKE2b {digest} is not the pinned digest")
    return load_model(MODEL_PATH)


# ---------------------------------------------------------------------------
# output checks


def check_tags(line: str, tokens, tags) -> None:
    """The tokens are the line's tokens and the tags one well-formed IOB sequence."""
    if list(tokens) != line.split():
        raise CheckFailed(f"tokens do not match the line {line!r}")
    if len(tags) != len(tokens):
        raise CheckFailed(f"{len(tags)} tags for {len(tokens)} tokens in {line!r}")
    try:
        check_iob(list(tags))
    except IOBError as exc:
        raise CheckFailed(f"{exc} in {line!r}") from exc


def result_tags(result: ParseResult, n_tokens: int) -> list[Tag]:
    """The tag sequence a parse result's extractions imply."""
    tags = [OUTSIDE] * n_tokens
    pos = 0
    for ex in result.extractions:
        if not pos <= ex.start < ex.end <= n_tokens:
            raise CheckFailed(f"extraction span [{ex.start}, {ex.end}) out of order")
        tags[ex.start] = Tag("B", ex.category)
        for i in range(ex.start + 1, ex.end):
            tags[i] = Tag("I", ex.category)
        pos = ex.end
    return tags


def check_parse(line: str, result: ParseResult | None) -> list[Tag]:
    if result is None:
        raise CheckFailed(f"no result for the non-empty line {line!r}")
    try:
        rebuilt = reconstruct(result)
    except StopIteration as exc:  # more wildcards than extractions
        raise CheckFailed(f"template does not reconstruct {line!r}") from exc
    if rebuilt != line:
        raise CheckFailed(f"template does not reconstruct {line!r}")
    tokens = line.split()
    tags = result_tags(result, len(tokens))
    check_tags(line, tokens, tags)
    return tags


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Unit:
    """One timed call. ``ops`` count toward attempted/failed; ``counts``
    (logs, fwd_logs, fwd_tokens, batches, val_logs) feed the per-layer ratios;
    ``key`` names the input, which later units may time again."""

    ops: int
    counts: dict[str, int]
    call: Callable[[], object]
    check: Callable[[object], None]
    key: int


# A run measures in ``processes`` fresh interpreters, one after another, each
# for an equal share of --seconds, and pools their samples: memory layout
# differs between processes and moves a process's speed by several percent.
# train has fewer because one train() call already takes over ten seconds.


class ParseBulk:
    """parse_corpus over a few thousand held-out lines in one call."""

    name = "parse-bulk"
    root = "bench.parse_corpus"
    rate_block = 1
    processes = 6

    def __init__(self, seed: int, sizes: Sizes):
        held = held_out(sizes.pool)
        pick = np.random.default_rng(seed).choice(len(held), sizes.bulk_lines, replace=False)
        self.gold = [held[i] for i in pick]
        self.lines = [" ".join(g.tokens) for g in self.gold]
        self.model = load_pinned_model()
        self.min_units = 1
        self.first: list[ParseResult] | None = None
        self.var_acc = 0.0
        n_tok = sum(len(g.tokens) for g in self.gold)
        self._counts = {"logs": len(self.lines), "fwd_logs": len(self.lines), "fwd_tokens": n_tok}

    def warm(self) -> None:
        parse_corpus(self.model, self.lines[:50])

    def units(self, start: float) -> Iterator[Unit]:
        while True:
            yield Unit(len(self.lines), self._counts,
                       lambda: parse_corpus(self.model, self.lines), self.check, key=0)

    def check(self, out) -> None:
        results, _store = out
        if len(results) != len(self.lines):
            raise CheckFailed(f"{len(results)} results for {len(self.lines)} lines")
        if self.first is not None:
            if results != self.first:
                raise CheckFailed("a repeated parse gave different results")
            return
        preds = [AnnotatedLog(g.tokens, tuple(check_parse(line, r)))
                 for line, r, g in zip(self.lines, results, self.gold)]
        self.var_acc = variable_aware_accuracy(preds, self.gold)
        self.first = results


class StreamLong:
    """tag_log one long line at a time; each line joins several held-out logs."""

    name = "stream-long"
    root = "bench.tag_log"
    processes = 6

    def __init__(self, seed: int, sizes: Sizes):
        held = held_out(sizes.pool)
        pick = np.random.default_rng(seed).integers(
            0, len(held), size=(sizes.stream_lines, sizes.logs_per_stream_line))
        self.gold = [
            AnnotatedLog(sum((held[i].tokens for i in row), ()),
                         sum((held[i].tags for i in row), ()))
            for row in pick
        ]
        self.lines = [" ".join(g.tokens) for g in self.gold]
        self.model = load_pinned_model()
        self.rate_block = sizes.stream_block
        self.min_units = math.ceil(sizes.min_stream_samples / self.processes)
        self.seen: dict[int, tuple[Tag, ...]] = {}

    @property
    def var_acc(self) -> float:
        idx = sorted(self.seen)
        preds = [AnnotatedLog(self.gold[i].tokens, self.seen[i]) for i in idx]
        return variable_aware_accuracy(preds, [self.gold[i] for i in idx])

    def warm(self) -> None:
        for line in self.lines[:20]:
            tag_log(self.model, line)

    def units(self, start: float) -> Iterator[Unit]:
        """Cycle through the lines from ``start`` (a fraction of the list)."""
        n = len(self.lines)
        i = int(start * n)
        while True:
            line = self.lines[i]
            counts = {"logs": 1, "fwd_logs": 1, "fwd_tokens": len(self.gold[i].tokens)}
            yield Unit(1, counts, lambda line=line: tag_log(self.model, line),
                       lambda out, i=i: self.check(i, out), key=i)
            i = (i + 1) % n

    def check(self, i: int, out: AnnotatedLog) -> None:
        check_tags(self.lines[i], out.tokens, out.tags)
        if self.seen.setdefault(i, out.tags) != out.tags:
            raise CheckFailed(f"line {i} tagged differently on a repeat")


class Train:
    """train() for one epoch from a fresh model on family logs."""

    name = "train"
    root = "bench.train"
    rate_block = 1
    processes = 3

    def __init__(self, seed: int, sizes: Sizes):
        held = held_out(sizes.pool)
        pick = np.random.default_rng(seed).choice(
            len(held), sizes.train_logs + sizes.val_logs, replace=False)
        logs = [held[i] for i in pick]
        self.train_set = logs[: sizes.train_logs]
        self.val_set = logs[sizes.train_logs:]
        wv, cv = build_vocabs(self.train_set)
        self.init = init_model(Hyperparams(), wv, cv, seed=INIT_SEED)
        self.min_units = 1
        self.first: tuple | None = None
        self.var_acc = 0.0
        batches = math.ceil(len(self.train_set) / TRAIN_CONFIG.batch_size)
        self._counts = {
            "logs": len(self.train_set),
            "fwd_logs": len(self.train_set) + len(self.val_set),
            "fwd_tokens": sum(len(g.tokens) for g in logs),
            "batches": batches,
            "val_logs": len(self.val_set),
        }

    def warm(self) -> None:
        train(self.init, self.train_set[:64], self.val_set[:16], TRAIN_CONFIG)

    def units(self, start: float) -> Iterator[Unit]:
        call = lambda: train(self.init, self.train_set, self.val_set, TRAIN_CONFIG)  # noqa: E731
        while True:
            yield Unit(self._counts["batches"], self._counts, call, self.check, key=0)

    def check(self, out) -> None:
        _model, history = out
        losses = [h.train_loss for h in history]
        if not all(math.isfinite(x) for x in losses):
            raise CheckFailed(f"non-finite training loss {losses}")
        summary = (losses, [h.val_metric for h in history])
        if self.first is not None and summary != self.first:
            raise CheckFailed("a repeated training run gave a different history")
        self.first = summary
        self.var_acc = max(summary[1])


WORKLOADS = {w.name: w for w in (ParseBulk, StreamLong, Train)}


# ---------------------------------------------------------------------------
# measurement, in one child process


@dataclass
class Samples:
    """Timed units. ``raw`` excludes time spent in speed samples; ``factors``
    hold the machine speed over each unit, relative to the reference."""

    bounds: list[tuple[float, float]] = field(default_factory=list)
    raw: list[float] = field(default_factory=list)
    logs: list[int] = field(default_factory=list)
    keys: list[int] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)

    def add(self, start: float, end: float, raw: float, unit: Unit) -> None:
        self.bounds.append((start, end))
        self.raw.append(raw)
        self.logs.append(unit.counts["logs"])
        self.keys.append(unit.key)

    def calibrate(self, clock: SpeedClock) -> None:
        self.factors = [clock.factor(a, b) for a, b in self.bounds]

    def summary(self) -> dict:
        """Unit times at the reference machine speed, and logs per unit."""
        return {"seconds": [r * f for r, f in zip(self.raw, self.factors)],
                "logs": self.logs, "keys": self.keys, "factors": self.factors}


@dataclass
class Measurement:
    plain: Samples
    traced: Samples
    attempted: int
    failed: int


def measure(workload, seconds: float, clock: SpeedClock,
            tracer: layertrace.Tracer | None, start: float = 0.0) -> Measurement:
    """Closed loop, one caller: the next unit starts when the last one ends.

    Stops at the block boundary nearest the deadline, once enough units are
    in. With a tracer, blocks of ``rate_block`` units alternate between
    untraced and traced, so both see the same machine conditions.
    """
    plain, traced = Samples(), Samples()
    roots: list[int] = []
    attempted = failed = 0
    block = workload.rate_block
    deadline = time.perf_counter() + seconds
    units = workload.units(start)
    k = 0
    while True:
        block_start = time.perf_counter()
        tracing = tracer is not None and (k // block) % 2 == 1
        with tracer.hooked() if tracing else nullcontext():
            for _ in range(block):
                unit = next(units)
                attempted += unit.ops
                spent = clock.spent
                root = len(tracer.spans) if tracing else -1
                t0 = time.perf_counter()
                try:
                    if tracing:
                        out = tracer.call(workload.root, unit.call)
                    else:
                        out = unit.call()
                except Exception:  # an operation that raises is counted, not fatal
                    if not failed:
                        traceback.print_exc()
                    failed += unit.ops
                    continue
                t1 = time.perf_counter()
                raw = t1 - t0 - (clock.spent - spent)
                if tracing:
                    tracer.counts.update(unit.counts)
                    roots.append(root)
                unit.check(out)
                (traced if tracing else plain).add(t0, t1, raw, unit)
        k += block
        now = time.perf_counter()
        enough = len(plain.raw) >= workload.min_units and (tracer is None or traced.raw)
        if enough and now + (now - block_start) / 2 >= deadline:
            break
        if now >= deadline + GIVE_UP_S:
            break
    if not plain.raw or (tracer is not None and not traced.raw):
        raise CheckFailed("no unit completed")
    plain.calibrate(clock)
    traced.calibrate(clock)
    if tracer is not None:
        tracer.root_factors = dict(zip(roots, traced.factors))
    return Measurement(plain, traced, attempted, failed)


def child(name: str, seed: int, seconds: float, trace: bool, index: int) -> dict:
    """Set up, warm up, measure and check one workload in this process."""
    with SpeedClock() as clock:
        spent, t0 = clock.spent, time.perf_counter()
        workload = WORKLOADS[name](seed, SIZES)
        t1 = time.perf_counter()
        setup_s = (IMPORT_S + t1 - t0 - (clock.spent - spent)) * clock.factor(t0, t1)
        workload.warm()
        tracer = layertrace.Tracer() if trace else None
        m = measure(workload, seconds, clock, tracer, start=index / workload.processes)
    floor = VAR_ACC_FLOOR[name]
    if workload.var_acc < floor:
        raise CheckFailed(f"var_acc {workload.var_acc:.4f} is below the floor {floor}")
    out = {
        "correct": True,
        "attempted": m.attempted,
        "failed": m.failed,
        "setup_s": setup_s,
        "var_acc": workload.var_acc,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "speed_samples": len(clock.samples),
        "rate_block": workload.rate_block,
        "plain": m.plain.summary(),
    }
    if tracer is not None:
        tracer.check_self_times(sum(b - a for a, b in m.traced.bounds))
        out["traced"] = m.traced.summary()
        out["trace"] = tracer.summary()
        write_spans(tracer.spans, name, seed, index)
    return out


def write_spans(spans: list[list], name: str, seed: int, index: int) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}-seed{seed}-trace1-child{index}.spans.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for span, start, end, parent in spans:
            fh.write(json.dumps({"name": span, "start_ns": start, "end_ns": end,
                                 "parent": parent}) + "\n")


def spawn(name: str, seed: int, seconds: float, trace: bool, index: int) -> dict:
    """Run ``child`` in a fresh interpreter and return its result."""
    argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(int(trace)), "--child", str(index)]
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + GIVE_UP_S + 60)
    except subprocess.TimeoutExpired:
        return {"correct": False, "error": f"child {index} timed out"}
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "error": f"child {index} exited {proc.returncode}"}
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# one run: children pooled into the metrics


def block_rates(part: dict, block: int) -> list[float]:
    secs, logs = part["seconds"], part["logs"]
    return [sum(logs[i:i + block]) / sum(secs[i:i + block])
            for i in range(0, len(secs) - block + 1, block)] or [sum(logs) / sum(secs)]


def per_line_ms(parts: list[dict]) -> list[float]:
    """Milliseconds per log, one sample per distinct input: an input timed
    repeatedly (in one or several processes) counts once, with the median of
    its times, so that a one-off stall of the shared host does not pass for
    a slow input."""
    by_key: dict[int, list[float]] = {}
    for part in parts:
        for s, n, key in zip(part["seconds"], part["logs"], part["keys"]):
            by_key.setdefault(key, []).append(1000.0 * s / n)
    return [statistics.median(v) for v in by_key.values()]


def logs_per_s(parts: list[dict], block: int) -> float:
    """Median throughput over blocks of ``block`` consecutive units."""
    return statistics.median(r for part in parts for r in block_rates(part, block))


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload in its processes, in turn; return the full record."""
    parts = []
    processes = WORKLOADS[name].processes
    for index in range(processes):
        part = spawn(name, seed, seconds / processes, trace, index)
        if not part["correct"]:
            raise CheckFailed(part.get("error", f"child {index} failed"))
        parts.append(part)
    block = parts[0]["rate_block"]
    plain = [p["plain"] for p in parts]
    line_ms = per_line_ms(plain)
    p50, p99 = (float(v) for v in np.percentile(line_ms, [50, 99]))
    lps = logs_per_s(plain, block)
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    factors = [f for part in plain for f in part["factors"]]
    record = {
        "workload": name, "env": environment(seed),
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "samples": {"line_ms": len(line_ms), "beyond_p99": sum(v > p99 for v in line_ms),
                    "logs_per_s_blocks": sum(len(block_rates(part, block)) for part in plain),
                    "setup": len(parts),
                    "speed": sum(p["speed_samples"] for p in parts)},
        "speed_factor": {"median": statistics.median(factors),
                         "min": min(factors), "max": max(factors)},
    }
    if not trace:
        record["metrics"] = {
            "logs_per_s": metric(lps, "logs/s"),
            "line_ms_p50": metric(p50, "ms"),
            "line_ms_p99": metric(p99, "ms"),
            "var_acc": metric(statistics.median(p["var_acc"] for p in parts), "ratio"),
            "setup_s": metric(statistics.median(p["setup_s"] for p in parts), "s"),
            "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in parts), "MB"),
        }
        return record

    merged = layertrace.merge([p["trace"] for p in parts])
    overhead = lps / logs_per_s([p["traced"] for p in parts], block)
    values = layertrace.per_layer(merged, WORKLOADS[name].root, overhead)
    record["metrics"] = {k: metric(v, layertrace.PER_LAYER[k][0]) for k, v in values.items()}
    record["unmeasured"] = layertrace.unmeasured_metrics(merged)
    record["zero_call_flags"] = layertrace.zero_call_flags(name, merged)
    record["spans"] = layertrace.shares(merged)
    return record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    trace = bool(args.trace)

    if args.child is not None:
        try:
            out = child(args.workload, args.seed, args.seconds, trace, args.child)
        except (CheckFailed, layertrace.TraceError) as exc:
            out = {"correct": False, "error": str(exc)}
        print(json.dumps(out))
        return 0 if out["correct"] else 1

    print("env " + json.dumps(environment(args.seed)))
    try:
        record = run(args.workload, args.seed, args.seconds, trace)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / stem).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    n = record["samples"]
    print(f"{args.workload}: {record['attempted']} ops attempted, {record['failed']} failed "
          f"(fail_frac {record['fail_frac']:g}); {n['line_ms']} line_ms samples, "
          f"{n['beyond_p99']} beyond p99; {n['setup']} processes")
    for key, val in record["metrics"].items():
        print(f"  {key:40s} {val['value']:.6g} {val['unit']}")
    for key in ("unmeasured", "zero_call_flags"):
        if record.get(key):
            print(f"trace: {key}: {', '.join(record[key])}")
    print(json.dumps({"correct": True, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
