#!/usr/bin/env python3
"""Seeded benchmark of the tropsurf CLI.

    python3 perfbench/run.py --workload sweep --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout (it imports ``src/tropsurf``).  One
client calls ``tropsurf.cli.main(argv)`` in-process in a closed loop, with
stdout captured, on input files generated from ``--seed``; every output is
checked outside the timed region.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced replay.
The last line of stdout is one JSON object; see README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import checks
import corpus
import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 5
SUBPROCESS_REPEATS = 15
# Timed passes over a fixed corpus, whatever the machine's speed: each
# request reports the best of exactly this many executions.  Two passes of
# `sweep` or of `flats` take about 20 s on a 2-core x86 VM.
PASSES = 2
RECORD_BLOCKS = 60  # `large` blocks with recorded digests; a 30 s run reaches about 13
TRACE_SHARE = 0.3  # share of --seconds spent replaying with spans
TAIL_BEYOND = 10

# ROADMAP "Baseline state" figures, in ms.
BASELINE_MS = {
    "classify WORKED u_e=-3": 102.0,
    "classify EX_THOMAS": 126.0,
    "regular_subdivision n=7": 52.0,
    "regular_subdivision n=20": 4100.0,
}


# ---------------------------------------------------------------------------
# workloads


def build_workload(name: str, seed: int):
    """The inputs of a workload: ``(first, batches, samples)``.

    ``first`` is the first batch of requests.  ``batches`` are the batches
    an untraced run measures: a list of whole passes over a fixed corpus
    (``sweep``, ``flats``), or an endless stream of fresh blocks (``large``)
    that the run cuts after ``--seconds``.  ``samples`` is an endless
    iterator of batches for the traced run: the same sample of a fixed
    corpus again and again, or further fresh blocks of the stream.
    """
    if name == "sweep":
        reqs = corpus.sweep(seed)
        return reqs, [reqs] * PASSES, itertools.repeat(reqs[::3])
    if name == "flats":
        reqs = corpus.flats(seed)
        sample = [r for r in reqs if len(r.points) <= 8][::2]
        return reqs, [reqs] * PASSES, itertools.repeat(sample)
    if name == "large":
        blocks = iter(corpus.LargeStream(seed).next_block, None)
        first = next(blocks)
        stream = itertools.chain([first], blocks)
        return first, stream, stream
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep", "large", "flats")


# ---------------------------------------------------------------------------
# requests


class Runner:
    """Writes input files, calls the CLI in-process and checks every output."""

    def __init__(self, main, workdir: Path, digests: dict | None) -> None:
        self.main = main
        self.workdir = workdir
        self.digests = digests or {}
        self.paths: dict[str, str] = {}
        self.done: dict[str, dict] = {}  # request key -> checked `singular` output
        self.attempted = 0
        self.failed = 0
        self.last_outputs: list[tuple[str, int, str]] = []

    def write(self, reqs: list[corpus.Request]) -> None:
        for req in reqs:
            if req.key in self.paths:
                continue
            path = self.workdir / f"{len(self.paths):05d}.json"
            path.write_text(json.dumps(req.document()), encoding="utf-8")
            self.paths[req.key] = str(path)

    def call(self, req: corpus.Request, wrap=None) -> float:
        """Run one request; return its wall time in ms (checks are not timed).

        ``wrap(key, send)``, when given, must call ``send()`` once.
        """
        path = self.paths[req.key]
        outputs: list[tuple[str, int, str]] = []

        def send() -> None:
            for command in req.commands:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = self.main([command, path])
                outputs.append((command, code, out.getvalue()))

        self.attempted += 1
        t0 = perf_counter()
        try:
            if wrap is None:
                send()
            else:
                wrap(req.key, send)
        except (Exception, SystemExit):
            ms = (perf_counter() - t0) * 1e3
            self.fail(req, "raised:\n" + traceback.format_exc())
            return ms
        ms = (perf_counter() - t0) * 1e3
        self.last_outputs = outputs
        self.verify(req, outputs)
        return ms

    def verify(self, req: corpus.Request, outputs: list[tuple[str, int, str]]) -> None:
        try:
            docs = [
                (command, checks.check(req, command, code, stdout, self.done))
                for command, code, stdout in outputs
            ]
            want = self.digests.get(req.key)
            if want is not None and checks.digest(outputs) != want:
                raise checks.CheckError("output differs from the recorded digest")
        except Exception:  # any malformed output counts as a failed request
            self.fail(req, traceback.format_exc())
            return
        for command, doc in docs:
            if command == "singular":
                self.done.setdefault(req.key, doc)

    def fail(self, req: corpus.Request, why: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"FAILED {req.key}: {why}", file=sys.stderr)


def import_cli():
    """Import tropsurf.cli afresh (drops any tropsurf modules imported before)."""
    for name in [m for m in sys.modules if m == "tropsurf" or m.startswith("tropsurf.")]:
        del sys.modules[name]
    return importlib.import_module("tropsurf.cli")


def warmup_requests() -> list[corpus.Request]:
    pts, u = corpus.WARMUP
    return [
        corpus.Request(f"warmup/{c}", (c,), pts, u) for c in ("singular", "surface", "oracle", "flags")
    ]


def setup(name: str, seed: int, workdir: Path, digests: dict | None):
    """Import, generate the corpus, write its files and warm up, several times.

    Returns the runner, the batches and samples of the last round (see
    ``build_workload``) and the median round time at reference speed.
    """
    times = []
    first_keys = None
    before = speed.probe_ms()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        cli = import_cli()
        first, batches, samples = build_workload(name, seed)
        runner = Runner(cli.main, workdir, digests)
        runner.write(first)
        warm = warmup_requests()
        runner.write(warm)
        for req in warm:
            runner.call(req)
        wall = perf_counter() - t0
        after = speed.probe_ms()
        times.append(speed.scaled(wall, before, after))
        before = after
        keys = [(r.key, r.heights) for r in first]
        if first_keys is not None and keys != first_keys:
            raise RuntimeError("corpus generation is not deterministic")
        first_keys = keys
    return runner, batches, samples, statistics.median(times)


# ---------------------------------------------------------------------------
# untraced run


def measure(batches, runner: Runner, seconds: float, tick) -> dict[str, list[float]]:
    """Closed loop over whole batches.

    Every pass of a fixed corpus runs, however long it takes; a stream of
    fresh blocks stops after the block that reaches ``seconds`` of request
    time.  ``tick(busy)`` is called between requests with the wall time
    of the requests so far.  Returns each request's execution times in ms
    at reference speed (see ``speed``).
    """
    endless = not isinstance(batches, list)
    times: dict[str, list[float]] = {}
    lat: list[float] = []
    probes: list[float] = []
    busy = gen = 0.0
    t0 = perf_counter()
    for batch in batches:
        runner.write(batch)
        gen += perf_counter() - t0
        before = speed.probe_ms()
        for req in batch:
            ms = runner.call(req)
            after = speed.probe_ms()
            probes.append(after)
            times.setdefault(req.key, []).append(speed.scaled(ms, before, after))
            lat.append(ms)
            busy += ms / 1e3
            tick(busy)
            before = after
        if endless and busy >= seconds:
            break
        t0 = perf_counter()
    print(f"measured {len(lat)} executions of {len(times)} requests in {busy:.2f} s of request "
          f"time (+{gen:.2f} s drawing inputs between batches); wall-clock p50 of all "
          f"executions {statistics.median(lat):.1f} ms, throughput {len(lat) / busy:.3f}/s; "
          f"probe {min(probes):.3f} / {statistics.median(probes):.3f} / {max(probes):.3f} ms "
          f"(min / median / max; reference {speed.REFERENCE_MS} ms)")
    return times


class ColdStart:
    """Times ``python -m tropsurf.cli singular`` on a fixed input in fresh
    interpreters, one at a time, spread over the run; reports the median, at
    reference speed.

    The machine's speed drifts for seconds at a time, so spreading the
    samples keeps one slow spell from deciding the result.
    """

    def __init__(self, runner: Runner, seconds: float) -> None:
        self.req = corpus.Request(
            "data/worked_example.json", ("singular",), *corpus.DATA["worked_example.json"]
        )
        runner.write([self.req])
        self.runner = runner
        self.every = seconds / SUBPROCESS_REPEATS
        self.times: list[float] = []

    def tick(self, busy: float) -> None:
        if len(self.times) < SUBPROCESS_REPEATS and busy >= len(self.times) * self.every:
            self.sample()

    def median(self) -> float:
        while len(self.times) < SUBPROCESS_REPEATS:
            self.sample()
        return statistics.median(self.times)

    def sample(self) -> None:
        argv = [sys.executable, "-m", "tropsurf.cli", "singular", self.runner.paths[self.req.key]]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        before = speed.probe_ms()
        t0 = perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        ms = (perf_counter() - t0) * 1e3
        self.times.append(speed.scaled(ms, before, speed.probe_ms()))
        self.runner.attempted += 1
        self.runner.verify(self.req, [("singular", proc.returncode, proc.stdout)])


def tail(lat: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and that percentile."""
    ordered = sorted(lat)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def untraced(batches, runner: Runner, seconds: float, setup_s: float) -> dict:
    # Each request counts once, with its best time at reference speed over
    # a fixed number of passes; the best of several filters what the speed
    # correction leaves.
    cold = ColdStart(runner, seconds)
    times = measure(batches, runner, seconds, cold.tick)
    lat = [min(v) for v in times.values()]
    cold_ms = cold.median()
    tail_ms, pct = tail(lat)
    print(f"latency_tail_ms is p{pct:.1f} of {len(lat)} requests ({TAIL_BEYOND} beyond it)")
    summary([runner.done[k] for k in times if k in runner.done])
    ok = (runner.attempted - runner.failed) / runner.attempted
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "throughput_rps": (len(lat) / sum(lat) * 1e3, "1/s"),
        "ok_ratio": (ok, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "cold_start_ms": (cold_ms, "ms"),
    }


def summary(docs: list[dict]) -> None:
    """Refusal share, circuit dimensions and labels of the measured `singular` requests."""
    if not docs:
        return
    refused = sum(bool(d["refusals"]) for d in docs)
    dims = Counter(d["circuit"]["dim"] for d in docs if d["circuit"] is not None)
    labels = Counter(p["label"] for d in docs for p in d["points"])
    print(f"singular requests: {len(docs)}, refused {refused} ({refused / len(docs):.0%}); "
          f"circuit dimensions 3/2/1: {dims[3]}/{dims[2]}/{dims[1]}")
    print("labels: " + (", ".join(f"{k} x{v}" for k, v in sorted(labels.items())) or "none"))


# ---------------------------------------------------------------------------
# traced run

COUNTED = {
    "lattice.convex_hull_calls": "tropsurf.lattice.convex_hull",
    "lattice.lattice_points_calls": "tropsurf.lattice.lattice_points",
    "linalg.row_reduce_calls": "tropsurf.linalg._row_reduce",
    "linalg.rank_calls": "tropsurf.linalg.rank",
    "linalg.kernel_basis_calls": "tropsurf.linalg.kernel_basis",
    "linalg.solve_affine_calls": "tropsurf.linalg.solve_affine",
    "matroid.is_flat_calls": "tropsurf.matroid.is_flat",
    "matroid.chains_case_calls": "tropsurf.matroid.chains_case",
    "matroid.refine_to_accepted_calls": "tropsurf.matroid.refine_to_accepted",
    "catalogs.normalize_calls": "tropsurf.catalogs.normalize",
}

def count_calls(runner: Runner, sample: list[corpus.Request]) -> dict[str, Counter]:
    """Calls per ``module.function`` for each request of ``sample``."""
    counts: dict[str, Counter] = {}

    def counted(key, fn):
        with tracing.CallCounter() as cc:
            try:
                return fn()
            finally:
                counts[key] = cc.counts

    for req in sample:
        runner.call(req, counted)
    return counts


def request_values(spans: tracing.Spans) -> list[dict[str, float]]:
    """Per request span: stage times in ms and the derived per-request values."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans.records):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)

    def below(i: int):
        for c in children.get(i, ()):
            yield c
            yield from below(c)

    def self_ms(i: int) -> float:
        return spans.records[i].ms - sum(spans.records[c].ms for c in children.get(i, ()))

    def inside_same_stage(i: int) -> bool:
        name, parent = spans.records[i].name, spans.records[i].parent
        while parent is not None:
            if spans.records[parent].name == name:
                return True
            parent = spans.records[parent].parent
        return False

    out = []
    for i, s in enumerate(spans.records):
        if s.name != "cli.request":
            continue
        vals: dict[str, float] = {"_key": s.request}
        ids = list(below(i))
        inner = [spans.records[j] for j in ids]
        for j, span in zip(ids, inner):
            if not inside_same_stage(j):
                vals[span.name + "_ms"] = vals.get(span.name + "_ms", 0.0) + span.ms
        vals["cli.request_overhead_ms"] = self_ms(i)
        classify = [j for j, x in zip(ids, inner) if x.name == "engine.classify"]
        if classify:
            vals["engine.classify_unattributed_ms"] = sum(self_ms(j) for j in classify)
        cands = [x.result for x in inner if x.name == "engine.candidate_points"]
        if cands:
            vals["engine.candidates"] = sum(len(pts) + len(fams) for pts, fams in cands)
        lifts = [x.result for x in inner if x.name == "engine.lift_check"]
        if lifts:
            accepted = sum(type(r).__name__ == "Certificate" for r in lifts)
            vals["engine.lift_accept_ratio"] = accepted / len(lifts)
            vals["_lift_checks"] = len(lifts)
        chains = [x.result for x in inner if x.name == "matroid.maximal_flat_chains"]
        if chains:
            vals["matroid.chains"] = sum(len(c) for c in chains)
        flats = [x for x in inner if x.name == "matroid.all_flats"]
        if flats:
            subsets = sum(2 ** len(x.arg[0]) - 1 for x in flats)
            vals["matroid.flats_per_subset"] = sum(len(x.result) for x in flats) / subsets
        out.append(vals)
    return out


def median_or_zero(values: list[float]) -> float:
    """Median over the requests that reached a stage; 0 when none did."""
    return statistics.median(values) if values else 0.0


def traced(name: str, seed: int, samples, runner: Runner, seconds: float) -> dict:
    def draw() -> list[corpus.Request]:
        batch = next(samples)
        runner.write(batch)
        return batch

    # Replays with and without spans alternate, so both see the same state.
    # A fixed corpus replays one sample; `large` draws a fresh block for
    # every replay, so nothing repeats there either.
    spans = tracing.Spans()
    plain, reps = [], []
    while sum(reps) < TRACE_SHARE * seconds * 1e3 or len(reps) < 2:
        plain.append(sum(runner.call(req) for req in draw()))
        with spans:
            reps.append(sum(runner.call(req, spans.request) for req in draw()))
    counts = count_calls(runner, draw())
    import_ms = import_best()
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{name}-seed{seed}.jsonl"
    with open(span_file, "w", encoding="utf-8") as fh:
        spans.dump(fh)
    per_req = request_values(spans)
    print(f"traced {len(per_req)} executions of {len({v['_key'] for v in per_req})} requests "
          f"in {len(reps)} replays; spans in {span_file}")
    # stage times: median over the replays of each request, then over requests
    by_key: dict[str, list[dict]] = {}
    for vals in per_req:
        by_key.setdefault(vals["_key"], []).append(vals)
    metrics: dict[str, tuple[float, str]] = {}
    timed = [f"{stage}_ms" for stage in tracing.STAGES]
    for metric in timed + ["cli.request_overhead_ms", "engine.classify_unattributed_ms"]:
        per_request = [
            statistics.median(v.get(metric, 0.0) for v in runs)
            for runs in by_key.values()
            if metric in runs[0]
        ]
        metrics[metric] = (median_or_zero(per_request), "ms")
    firsts = [runs[0] for runs in by_key.values()]
    for metric, unit in (
        ("engine.candidates", "count"),
        ("engine.lift_accept_ratio", "ratio"),
        ("matroid.chains", "count"),
        ("matroid.flats_per_subset", "ratio"),
    ):
        metrics[metric] = (median_or_zero([v[metric] for v in firsts if metric in v]), unit)
    checks_total = sum(v.get("_lift_checks", 0) for v in firsts)
    print(f"engine.lift_accept_ratio rests on {checks_total} lift checks")
    for metric, func in COUNTED.items():
        per_request = [c[func] for c in counts.values() if c[func] > 0]
        metrics[metric] = (median_or_zero(per_request), "count")
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["trace.overhead_ratio"] = (statistics.median(reps) / statistics.median(plain), "ratio")
    baseline(name, seed)
    return metrics


def import_best() -> float:
    """Best time to import tropsurf.cli in fresh interpreters, in ms."""
    code = (
        "import time; t = time.perf_counter(); import tropsurf.cli; "
        "print((time.perf_counter() - t) * 1e3)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SUBPROCESS_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=60, check=True,
        )
        times.append(float(proc.stdout.strip()))
    return min(times)


def baseline(name: str, seed: int) -> None:
    """Print stage times next to the ROADMAP baseline figures."""
    from tropsurf.engine import classify
    from tropsurf.subdivision import PointConfig, regular_subdivision

    def timed(fn, repeats: int) -> float:
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            fn()
            times.append((perf_counter() - t0) * 1e3)
        return statistics.median(times)

    got = {}
    if name == "sweep":
        worked = PointConfig(points=corpus.WORKED)
        thomas = PointConfig(points=corpus.EX_THOMAS)
        got["classify WORKED u_e=-3"] = timed(
            lambda: classify(worked, corpus.worked_heights(-3)), 5
        )
        got["classify EX_THOMAS"] = timed(lambda: classify(thomas, corpus.U_EX_THOMAS), 5)
        got["regular_subdivision n=7"] = timed(
            lambda: regular_subdivision(worked, corpus.worked_heights(-3)), 5
        )
    elif name == "large":
        rng = random.Random(f"baseline/{seed}")
        pts, base = corpus.saturated_points(rng, 20)
        u = corpus.generic_heights(rng, base)
        got["regular_subdivision n=20"] = timed(
            lambda: regular_subdivision(PointConfig(points=pts), u), 1
        )
    for what, ms in got.items():
        ref = BASELINE_MS[what]
        print(f"baseline {what}: {ms:.1f} ms (ROADMAP {ref:.0f} ms, ratio {ms / ref:.2f})")


# ---------------------------------------------------------------------------


def load_digests(name: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(name)


def record_digests() -> None:
    """Write the digests of every request of the default seed that an
    untraced run can reach (the first RECORD_BLOCKS batches), once each."""
    cli = import_cli()
    out = {}
    with workdir_for("record") as wd:
        for name in WORKLOADS:
            _, batches, _ = build_workload(name, DEFAULT_SEED)
            batches = itertools.islice(batches, RECORD_BLOCKS)
            reqs = list({req.key: req for batch in batches for req in batch}.values())
            runner = Runner(cli.main, wd, None)
            runner.write(reqs)
            got = {}
            for req in reqs:
                runner.call(req)
                got[req.key] = checks.digest(runner.last_outputs)
            if runner.failed:
                raise RuntimeError(f"{name}: {runner.failed} outputs fail their checks")
            out[name] = got
            print(f"{name}: {len(got)} digests", file=sys.stderr)
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")


@contextlib.contextmanager
def workdir_for(tag: str):
    path = OUT / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--record-digests", action="store_true",
        help="record the output digests of the default seed and exit",
    )
    args = p.parse_args(argv)
    if not (SRC / "tropsurf" / "cli.py").is_file():
        print(f"error: no tropsurf sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and its subprocesses, so that the speed
    # probe times the CPU the program runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    with workdir_for(f"{args.workload}-seed{args.seed}") as wd:
        runner, batches, samples, setup_s = setup(
            args.workload, args.seed, wd, load_digests(args.workload, args.seed)
        )
        print(f"workload {args.workload}, seed {args.seed}, setup {setup_s:.3f} s "
              f"(median of {SETUP_REPEATS}, at reference speed)")
        if args.trace:
            metrics = traced(args.workload, args.seed, samples, runner, args.seconds)
        else:
            metrics = untraced(batches, runner, args.seconds, setup_s)
    for metric, (value, unit) in metrics.items():
        print(f"{metric} = {value:.6g} {unit}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
