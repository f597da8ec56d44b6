"""Tests of the benchmark itself: python3 -m pytest -q perfbench/tests"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
from tropsurf.subdivision import (  # noqa: E402
    PointConfig,
    is_maximal_dimensional_type,
    regular_subdivision,
)


def test_same_seed_gives_identical_inputs():
    assert corpus.sweep(5) == corpus.sweep(5)
    assert corpus.flats(5) == corpus.flats(5)
    a, b = corpus.LargeStream(5), corpus.LargeStream(5)
    assert [a.next_block() for _ in range(2)] == [b.next_block() for _ in range(2)]
    assert corpus.sweep(5) != corpus.sweep(6)


@pytest.mark.parametrize("seed", [0, 1])
def test_large_inputs_are_codim_one_and_maximal_dimensional(seed):
    stream = corpus.LargeStream(seed)
    reqs = stream.next_block()
    assert len({frozenset(r.points) for r in reqs}) == len(reqs)
    for req in reqs:
        cfg = PointConfig(points=req.points)
        sub = regular_subdivision(cfg, req.heights)
        assert sub.dim_lineality == 1
        assert is_maximal_dimensional_type(cfg, sub)
        assert tuple(c.marked for c in sub.cells) == req.cells


def test_fixed_passes_and_fresh_large_blocks():
    """A fixed corpus runs a fixed number of passes; `large` never repeats a
    request, in the traced replays either."""
    first, batches, _ = run.build_workload("flats", 0)
    assert batches == [first] * run.PASSES
    first, _, samples = run.build_workload("large", 0)
    keys = [r.key for batch in itertools.islice(samples, 3) for r in batch]
    assert keys[: len(first)] == [r.key for r in first]
    assert len(set(keys)) == len(keys) == 3 * len(first)


def test_certificate_agrees_with_regular_subdivision():
    """Walls, generic heights (codim 0) and two walls (codim 2) on small sets."""
    seen = set()
    for req in corpus.sweep(0) + corpus.flats(0):
        if req.cells is None or len(req.points) > 9:
            continue
        cfg = PointConfig(points=req.points)
        sub = regular_subdivision(cfg, req.heights)
        assert sub.dim_lineality == req.codim
        assert tuple(c.marked for c in sub.cells) == req.cells
        seen.add(req.codim)
    assert seen == {0, 1, 2}


def test_data_copies_match_the_files():
    for name, (pts, u) in corpus.DATA.items():
        doc = json.loads((ROOT / "data" / name).read_text(encoding="utf-8"))
        assert [tuple(p) for p in doc["points"]] == list(pts)
        assert doc["heights"] == list(u)


def test_call_counts_repeat_exactly(tmp_path):
    cli = run.import_cli()
    reqs = corpus.sweep(0)[:6] + corpus.flats(0)[:2]
    runner = run.Runner(cli.main, tmp_path, None)
    runner.write(reqs)
    for req in reqs:  # let lazy module state settle first
        runner.call(req)
    first = run.count_calls(runner, reqs)
    second = run.count_calls(runner, reqs)
    assert runner.failed == 0
    assert first == second
    assert all(c["tropsurf.linalg.rank"] > 0 for c in first.values())


def _singular_output(req: corpus.Request, tmp_path) -> tuple[int, str]:
    cli = run.import_cli()
    path = tmp_path / "in.json"
    path.write_text(json.dumps(req.document()), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["singular", str(path)])
    return code, out.getvalue()


def test_checks_reject_a_point_off_the_surface(tmp_path):
    req = corpus.Request("worked-3", ("singular",), corpus.WORKED, corpus.worked_heights(-3))
    code, stdout = _singular_output(req, tmp_path)
    doc = checks.check(req, "singular", code, stdout, {})
    assert len(doc["points"]) == 2
    doc["points"][0]["location"][1] = str(Fraction(doc["points"][0]["location"][1]) + Fraction(1, 3))
    with pytest.raises(checks.CheckError):
        checks.check(req, "singular", code, json.dumps(doc), {})


def test_checks_reject_a_wrong_lineality_shift(tmp_path):
    base = corpus.Request("ex", ("singular",), corpus.EX_THOMAS, corpus.U_EX_THOMAS)
    x = (Fraction(1), Fraction(-1, 2), Fraction(2))
    shifted = corpus.Request(
        "ex+shift", ("singular",), corpus.EX_THOMAS,
        corpus._shifted(corpus.EX_THOMAS, corpus.U_EX_THOMAS, x), shift_of="ex", shift=x,
    )
    done = {"ex": checks.check(base, "singular", *_singular_output(base, tmp_path), {})}
    code, stdout = _singular_output(shifted, tmp_path)
    checks.check(shifted, "singular", code, stdout, done)
    wrong = corpus.Request(**{**shifted.__dict__, "shift": (Fraction(0),) * 3})
    with pytest.raises(checks.CheckError):
        checks.check(wrong, "singular", code, stdout, done)


def test_digest_of_worked_example_covers_both_singular_points(tmp_path):
    digests = json.loads(run.DIGESTS.read_text(encoding="utf-8"))["sweep"]
    req = next(r for r in corpus.sweep(run.DEFAULT_SEED) if r.key == "worked-3")
    code, stdout = _singular_output(req, tmp_path)
    assert code == 0
    assert len(json.loads(stdout)["points"]) == 2
    assert checks.digest([("singular", code, stdout)]) == digests["worked-3"]
