from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from tests.test_cli import GOLDEN, golden_input

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_examples_without_arguments_runs_all(capsys):
    script = load_script("reproduce_examples")
    assert script.main([]) == 0
    out = capsys.readouterr().out
    for heading in ("quadrangle example", "planar-circuit height sweep", "codimension-2 family"):
        assert f"== {heading}" in out
    assert "brute-force agreement: NO" not in out


def test_reproduce_examples_rejects_unknown_name(capsys):
    script = load_script("reproduce_examples")
    with pytest.raises(SystemExit) as exc:
        script.main(["nope"])
    assert exc.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


def test_cli_digests_reproduce_the_golden_digests(capsys):
    script = load_script("cli_digests")
    names = sorted({name for name, *_ in GOLDEN})
    assert script.main([golden_input(name) for name in names]) == 0
    lines = set(capsys.readouterr().out.splitlines())
    for name, command, code, digest in GOLDEN:
        assert f"{golden_input(name)} {' '.join(command)} {code} {digest}" in lines
