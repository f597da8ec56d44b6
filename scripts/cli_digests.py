#!/usr/bin/env python3
"""Print a digest of the CLI's stdout for every (input, command) of a corpus.

Each line is ``<input> <command...> <exit code> <sha256 of stdout>``.  Two
checkouts that print the same lines give byte-identical output on the whole
corpus, which is how a refactor shows that it changed no result:

    PYTHONPATH=src python3 scripts/cli_digests.py > after.txt
    diff before.txt after.txt

Without arguments the corpus is ``data/*.json``, ``tests/inputs/*.json``,
the seed-0 ``sweep`` and ``flats`` inputs and the first 20 seed-0 ``large``
blocks of ``perfbench/corpus.py``; the generated inputs are written to a
temporary directory.  Input paths given as arguments replace the corpus.
Every input runs through ``subdivide``, ``surface``, ``singular``,
``singular --certificate`` and ``render``, then ``oracle`` when it has at
most ``ENUMERATION_BOUND`` (10) points and ``flags`` when it has at most 8.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

from tropsurf.cli import main as cli_main
from tropsurf.matroid import ENUMERATION_BOUND

ROOT = Path(__file__).resolve().parent.parent
LARGE_BLOCKS = 20
COMMANDS = (("subdivide",), ("surface",), ("singular",), ("singular", "--certificate"), ("render",))


def commands_for(n: int) -> list[tuple[str, ...]]:
    return [*COMMANDS, *([("oracle",)] if n <= ENUMERATION_BOUND else []), *([("flags",)] if n <= 8 else [])]


def load_corpus():
    """``perfbench/corpus.py`` as a module, without writing its bytecode."""
    spec = importlib.util.spec_from_file_location("perfbench_corpus", ROOT / "perfbench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def generated_inputs() -> list[tuple[str, dict]]:
    """Seed-0 perfbench inputs as ``(name, document)``, each document once."""
    corpus = load_corpus()
    requests = [("sweep", r) for r in corpus.sweep(0)] + [("flats", r) for r in corpus.flats(0)]
    stream = corpus.LargeStream(0)
    for _ in range(LARGE_BLOCKS):
        requests += [("large", r) for r in stream.next_block()]
    seen: set[str] = set()
    out = []
    for workload, req in requests:
        doc = req.document()
        text = json.dumps(doc, sort_keys=True)
        if text not in seen:
            seen.add(text)
            out.append((f"{workload}:{req.key}", doc))
    return out


def digest(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def run(inputs: list[tuple[str, str]]) -> None:
    for name, path in inputs:
        n = len(json.loads(Path(path).read_text(encoding="utf-8"))["points"])
        for command in commands_for(n):
            code, sha = digest([command[0], path, *command[1:]])
            print(name, *command, code, sha, flush=True)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args:
        run([(a, a) for a in args])
        return 0
    files = sorted((ROOT / "data").glob("*.json")) + sorted((ROOT / "tests" / "inputs").glob("*.json"))
    inputs = [(str(p.relative_to(ROOT)), str(p)) for p in files]
    with tempfile.TemporaryDirectory() as tmp:
        for k, (name, doc) in enumerate(generated_inputs()):
            path = Path(tmp) / f"{k:04d}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            inputs.append((name, str(path)))
        run(inputs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
