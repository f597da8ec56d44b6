from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tropsurf import catalogs, cli, engine, lattice, linalg, matroid, subdivision, surface
from tropsurf.cli import main, point_label

DATA = Path(__file__).resolve().parent.parent / "data"
INPUTS = Path(__file__).resolve().parent / "inputs"
EX_THOMAS = str(DATA / "ex_thomas.json")
WORKED = str(DATA / "worked_example.json")
CODIM2 = str(DATA / "codim2_family.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


@pytest.mark.parametrize(
    "i, label", [(0, "a"), (1, "b"), (25, "z"), (26, "aa"), (27, "ab"), (2 * 26, "ba")]
)
def test_point_label(i, label):
    assert point_label(i) == label


def test_singular_quadrangle(capsys):
    code, doc, err = run_json(capsys, "singular", EX_THOMAS)
    assert code == 0
    assert err == ""
    assert doc["codim"] == 1
    assert doc["generic"] is True
    assert doc["max_dimensional"] is True
    assert doc["circuit"] == {
        "points": ["a", "b", "c"],
        "type": "E",
        "dim": 1,
        "dependence": ["1", "-2", "1"],
    }
    assert doc["refusals"] == []
    by_label = {p["label"]: p for p in doc["points"]}
    assert set(by_label) == {"c-barycenter", "c-virtual-barycenter"}
    assert by_label["c-barycenter"]["location"] == ["-1", "-1", "0"]
    assert by_label["c-virtual-barycenter"]["location"] == ["0", "0", "0"]
    assert by_label["c-barycenter"]["metric"]["triple"] == ["d", "e", "f"]
    assert "certificate" not in by_label["c-barycenter"]


def test_singular_certificate_flag(capsys):
    code, doc, err = run_json(capsys, "singular", EX_THOMAS, "--certificate")
    assert code == 0
    by_label = {p["label"]: p for p in doc["points"]}
    cert = by_label["c-virtual-barycenter"]["certificate"]
    assert cert["flag"] == [["d"], ["d", "e", "f", "g"], ["a", "b", "c", "d", "e", "f", "g"]]
    assert cert["maximal"] is True
    assert cert["case"] == "c"
    cert2 = by_label["c-barycenter"]["certificate"]
    assert cert2["flag"][0] == ["g"]


def test_singular_worked_example(capsys):
    code, doc, err = run_json(capsys, "singular", WORKED)
    assert code == 0
    locations = sorted(p["location"] for p in doc["points"])
    assert locations == [["1", "0", "0"], ["1/2", "0", "0"]]


def test_singular_codim_two_refused(capsys):
    code, out, err = run(capsys, "singular", CODIM2)
    assert code == 1
    assert "refused: subdivision is not of codimension 1" in err
    doc = json.loads(out)
    assert doc["codim"] == 2
    assert doc["points"] == []


def test_singular_defective_refused(capsys, tmp_path):
    src = {
        "points": [
            [0, 0, 0], [0, 0, 1], [0, 0, 2], [0, 1, 0],
            [0, -1, 0], [1, 0, 0], [1, 1, 0], [-1, 0, 0],
        ],
        "heights": [0, 0, 0, -1, -1, -2, -2, -3],
    }
    path = tmp_path / "defective.json"
    path.write_text(json.dumps(src))
    code, out, err = run(capsys, "singular", str(path))
    assert code == 1
    assert "refused: heights are not generic" in err
    assert json.loads(out)["generic"] is False


def test_subdivide(capsys):
    code, doc, err = run_json(capsys, "subdivide", EX_THOMAS)
    assert code == 0
    assert doc["codim"] == 1
    assert doc["max_dimensional"] is True
    assert [c["marked"] for c in doc["cells"]] == [
        ["a", "b", "c", "d", "e"],
        ["a", "b", "c", "d", "f"],
        ["a", "b", "c", "e", "g"],
        ["a", "b", "c", "f", "g"],
        ["a", "e", "f", "g"],
    ]
    assert doc["circuit"]["points"] == ["a", "b", "c"]


def test_surface(capsys):
    code, doc, err = run_json(capsys, "surface", EX_THOMAS)
    assert code == 0
    assert len(doc["vertices"]) == 5
    assert len(doc["edges"]) == 14
    assert len(doc["faces"]) == 14
    quad = next(f for f in doc["faces"] if f["dual_edge"] == ["a", "b", "c"])
    assert quad["weight"] == 2
    assert len(quad["vertices"]) == 4


def test_flags(capsys):
    code, doc, err = run_json(capsys, "flags", EX_THOMAS)
    assert code == 0
    assert doc["height_flag"]["maximal"] is True
    assert doc["height_flag"]["case"] == "c"
    assert doc["height_flag"]["levels"][0] == ["d"]
    assert all(set(f) == {"levels", "case", "circuit"} for f in doc["accepted_flags"])
    assert any(f["circuit"] == ["a", "b", "c"] for f in doc["accepted_flags"])


def test_oracle_families(capsys):
    code, doc, err = run_json(capsys, "oracle", CODIM2)
    assert code == 0
    assert len(doc["families"]) == 2
    segment, ray = doc["families"]
    assert segment["endpoints"] == [["-3", "0", "0"], ["1", "0", "0"]]
    assert segment["unbounded"] is False
    assert ray["unbounded"] is True
    assert ray["direction"] == [1, 0, 0]


def test_oracle_isolated_points(capsys):
    code, doc, err = run_json(capsys, "oracle", EX_THOMAS)
    assert code == 0
    assert doc["points"] == [["-1", "-1", "0"], ["0", "0", "0"]]
    assert doc["families"] == []


def test_catalog_all_groups(capsys):
    code, doc, err = run_json(capsys, "catalog")
    assert code == 0
    assert set(doc) == {"a1", "a2", "triangles", "E1", "E2"}


def test_catalog_single_group(capsys):
    code, doc, err = run_json(capsys, "catalog", "--group", "a2")
    assert code == 0
    assert set(doc) == {"a2"}
    assert len(doc["a2"]) == 8
    assert doc["a2"][0]["id"] == "a2/vol4"


def test_catalog_unknown_group(capsys):
    code, out, err = run(capsys, "catalog", "--group", "a9")
    assert code == 2
    assert "unknown catalog group" in err


def test_render_stdout(capsys):
    code, out, err = run(capsys, "render", EX_THOMAS)
    assert code == 0
    lines = out.splitlines()
    assert any(line == "OFF" for line in lines)
    assert sum("singular point" in line for line in lines) == 2


def test_render_to_file(capsys, tmp_path):
    target = tmp_path / "surface.off"
    code, out, err = run(capsys, "render", EX_THOMAS, "--bound", "30", "-o", str(target))
    assert code == 0
    assert out == ""
    assert "OFF" in target.read_text().splitlines()


@pytest.mark.parametrize("name", ["ex_thomas", "saturated_n12"])
def test_render_builds_the_subdivision_once(capsys, monkeypatch, name):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return subdivision.regular_subdivision(*args, **kwargs)

    for module in (cli, engine, surface):
        monkeypatch.setattr(module, "regular_subdivision", counted)
    code, out, _ = run(capsys, "render", golden_input(name))
    assert code == 0 and "OFF" in out.splitlines()
    assert len(calls) == 1


def test_singular_computes_the_radon_partition_three_times(capsys, monkeypatch):
    """`extract_circuit`, `chains_case` and the a2 map search need it once
    each; the tetrahedron label reads the signs of the circuit's dependence.
    """
    calls = []
    original = lattice.radon_partition

    def counted(points):
        calls.append(points)
        return original(points)

    for module in (lattice, catalogs, engine, matroid, subdivision):
        monkeypatch.setattr(module, "radon_partition", counted, raising=False)
    code, out, _ = run(capsys, "singular", golden_input("tetra5_sheared"))
    assert code == 0 and '"a2(' in out
    assert len(calls) == 3


def test_solve_affine_reads_its_kernel_off_its_own_elimination(capsys, monkeypatch):
    """No `kernel_basis` call comes from inside `solve_affine`: the kernel of
    a consistent system is read off the one elimination of ``[m | b]``."""
    calls = []
    original = linalg.kernel_basis

    def counted(m):
        calls.append(sys._getframe(1).f_code.co_name)
        return original(m)

    monkeypatch.setattr(linalg, "kernel_basis", counted)
    code, _, _ = run(capsys, "singular", golden_input("saturated_n16"))
    assert code == 0
    assert "solve_affine" not in calls


def test_missing_file_exit_2(capsys):
    code, out, err = run(capsys, "singular", "no_such_file.json")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
def test_unreadable_input_exit_2(capsys, tmp_path, kind):
    if kind == "directory":
        path = tmp_path
    else:
        path = tmp_path / "input.json"
        path.write_bytes(b"\xff\xfe{}\x00")
    code, out, err = run(capsys, "singular", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_invalid_json_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "singular", str(path))
    assert code == 2
    assert "invalid JSON" in err


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_non_finite_height_exit_2(capsys, tmp_path, token):
    path = tmp_path / "non_finite.json"
    path.write_text(
        '{"points": [[0,0,0],[1,0,0],[0,1,0],[0,0,1],[1,1,1]], '
        f'"heights": [0,0,0,0,{token}]}}'
    )
    code, out, err = run(capsys, "singular", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_degenerate_points_exit_2(capsys, tmp_path):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"points": [[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]], "heights": [0, 0, 0, 0]}))
    code, out, err = run(capsys, "singular", str(path))
    assert code == 2
    assert "3-dimensional" in err


def test_heights_required_exit_2(capsys, tmp_path):
    path = tmp_path / "no_heights.json"
    path.write_text(json.dumps({"points": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    code, out, err = run(capsys, "singular", str(path))
    assert code == 2
    assert "heights" in err


SIMPLEX = {"points": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], "heights": [0, 0, 0, 0]}


def test_flags_on_four_points_has_no_flags(capsys, tmp_path):
    # s = 4: the Gale dual has no rows, so every point is a loop
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps(SIMPLEX))
    code, doc, err = run_json(capsys, "flags", str(path))
    assert code == 0
    assert doc["accepted_flags"] == []
    assert doc["height_flag"]["levels"] == [["a", "b", "c", "d"]]
    assert doc["height_flag"]["maximal"] is False


def test_oracle_on_four_points_is_empty(capsys, tmp_path):
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps(SIMPLEX))
    code, doc, err = run_json(capsys, "oracle", str(path))
    assert code == 0
    assert doc == {"points": [], "families": []}


def test_flags_enumeration_bound_exit_2(capsys, tmp_path):
    points = [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    points += [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"points": points}))
    code, out, err = run(capsys, "flags", str(path))
    assert code == 2
    assert "at most 10 points" in err


def test_internal_error_exit_3(capsys, monkeypatch):
    def broken(cfg, u):
        raise RuntimeError("hull self-check failed")

    monkeypatch.setattr("tropsurf.cli.classify", broken)
    code, out, err = run(capsys, "singular", EX_THOMAS)
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: hull self-check failed\n"


# Exit code and sha256 of stdout on the sample inputs.  The enumeration
# commands and the certificate output were recorded before the closure
# oracle replaced subset enumeration in the matroid layer; `subdivide`,
# `surface` and `render` (stacked cell relations and dual vertices) before
# the fraction-free elimination replaced the Fraction one; the two
# lattice-saturated codimension-one sets under `tests/inputs/` (n = 12 and
# 16) before beneath-beyond replaced the exhaustive hull search; their
# certificates and renders, and `saturated_n12_shifted` (the n = 12 heights
# plus the lineality shift of x = (1/3, -2/5, 1/7), so rational heights),
# before the terms u_i + m_i . p were evaluated on integers;
# `saturated_n12_flat` (the n = 12 points at height 0: the trivial
# subdivision) before the cells were read off the lifted hull's ridges.
# Refactors must leave these bytes unchanged.
GOLDEN = [
    ("codim2_family", ("subdivide",), 0, "a42a4fd8042fdc42eb0c759f2be8140ff68607d9a1b350391d47e30f386821e0"),
    ("codim2_family", ("surface",), 0, "331621836c18a30fb3ac6164525c0a1d560033deb7a2655c9eb580e3fcf05151"),
    ("codim2_family", ("render",), 0, "10e1ba60612c503a69902e3f9e504869e6020c9c7b026e13f73855bd8cc3364d"),
    ("ex_thomas", ("subdivide",), 0, "ff1fc4edc1cecb6fc8d1eab079d3e03ffd1a4ebc6ac19af2e5241da2433aa575"),
    ("ex_thomas", ("surface",), 0, "6f6bc7d214b793e0405141d02de8f88409c44748b1bb3e9209ab4df7730de6f7"),
    ("ex_thomas", ("render",), 0, "4f72e6905a43e794876971515447126cc8cec51cbb2b552edaad9130813de810"),
    ("worked_example", ("subdivide",), 0, "fe877153e9be583d392999a966fa82638b5feabd4d3e06df43afddc3137d1314"),
    ("worked_example", ("surface",), 0, "dad3649bac6960e6c47d31690b127d079c7468484920c7d34d4170c3846ccac3"),
    ("worked_example", ("render",), 0, "4f845be40045109a13dd8e1e44430ed374a24177616c3593c41e9ccfcbbc26e0"),
    ("codim2_family", ("flags",), 0, "f05895c928521663258741379b83262248102fab2189b2b580d810515cb206f5"),
    ("codim2_family", ("oracle",), 0, "e9edc3d5d699769504e105c539b245caa7bf7a6f935e00083c562e0fd6999d4e"),
    ("codim2_family", ("singular", "--certificate"), 1, "37197e346a9b060bfe182c5300634646db7326201a3ba953a50832cfef117f87"),
    ("ex_thomas", ("flags",), 0, "05e04c781ceafac56e7782a23ca384678a494b0b0b9ddba677ff545d6c6b2f16"),
    ("ex_thomas", ("oracle",), 0, "926738df1397e0576a0b51a2086e73b870870f345557fa00af2050b4ba8d7046"),
    ("ex_thomas", ("singular", "--certificate"), 0, "940db9459142423f42395e66767d74f4286df291abbdb67082b915a48a82fe23"),
    ("worked_example", ("flags",), 0, "cfd5b2a6010de3cefb92de4f7f0aaf5b299bd336e64843e03ae87662a0904047"),
    ("worked_example", ("oracle",), 0, "8b41e76495bf41949f5d0f503493bfd5454d45c9ddd3bebb6033d08e0c2abbe7"),
    ("worked_example", ("singular", "--certificate"), 0, "80182b4c2e56bfabf791cb3f0ffc8898aed04c926e1c72a36af66b6b0bcff167"),
    ("saturated_n12", ("subdivide",), 0, "829841aa386bbc720aeeb31d9bb34641626e54bfccdfd58fa6736c98ec84be2d"),
    ("saturated_n12", ("surface",), 0, "b5332db7ed4e847d4bf1c68cd3d00de5ae66c2d17310994db8949788907e2f67"),
    ("saturated_n12", ("singular",), 0, "25e9f219d6b5dbaba75773b6e0440bb306ae20396dff97348d94d9ddefd3f707"),
    ("saturated_n16", ("subdivide",), 0, "2449bb4155f4ce79a1c1fbae5e23bbb7eafa98cded506006648a3d95db7572b4"),
    ("saturated_n16", ("surface",), 0, "7da880d27f0a93ecf5c14af0e407de1bcc785e973f72655730e3a0edbf744030"),
    ("saturated_n16", ("singular",), 0, "376847a50182640c60f73151f3b41d4a0f2e9c09a5183fa6b1dff7f5b27ef85f"),
    ("saturated_n12", ("singular", "--certificate"), 0, "de60d076d333e23bfc5bba3807b9092b12e39fcb524c7cb426f4c9e8a981b7e0"),
    ("saturated_n12", ("render",), 0, "119f5b8ef2e258bab39c879bc2dba4d65054904d2dce002f9b2f56638db2f28a"),
    ("saturated_n16", ("singular", "--certificate"), 0, "8c60757e32a90a990c68442bbed9dc72ab338e004c391adf11c6c18f9ad94baa"),
    ("saturated_n16", ("render",), 0, "2692695f386155c4a07c58f76f4a72fc009a1b4f2bf4fbf2235f508b5d15ceb2"),
    ("saturated_n12_shifted", ("subdivide",), 0, "829841aa386bbc720aeeb31d9bb34641626e54bfccdfd58fa6736c98ec84be2d"),
    ("saturated_n12_shifted", ("surface",), 0, "cfed39df591053f6c13224293be5e52bfa2f701d7eac29ad2527179f75557cee"),
    ("saturated_n12_shifted", ("singular", "--certificate"), 0, "a891db61c0de95bd83bf75e5ef265a1b40358fe393d037a84b5f2e5065048543"),
    ("saturated_n12_shifted", ("render",), 0, "3b2b37425a86520026ee4e3e0e434a259e2864687c69c1baf7228fe4199ba054"),
    ("saturated_n12_flat", ("subdivide",), 0, "5e6ddb3f8c8da4b9e23c5fb76fd2a02e7dc8c2ad9b1a59920d4c069bb4c52712"),
    ("saturated_n12_flat", ("surface",), 0, "5265be80d1063ed101cfdba2dfce697e2a3c2235bdaabf0275138381d2822743"),
    ("saturated_n12_flat", ("render",), 0, "4aa2862ffeacb07758221a97b5d7359a03dc477549773f1eb3d1374082085aaa"),
    ("tetra5_sheared", ("singular", "--certificate"), 0, "939b088411ea66819b10d047380b36a6aefa62225b1d5322512e8c01f46a6a22"),
]


def golden_id(entry: tuple) -> str:
    """``<input>-<subcommand>``; a second entry for the same pair adds its flags."""
    name, command = entry[0], entry[1]
    short = f"{name}-{command[0]}"
    first = next(g for g in GOLDEN if g[0] == name and g[1][0] == command[0])
    return short if first is entry else "-".join([short, *(a.lstrip("-") for a in command[1:])])


def golden_input(name: str) -> str:
    local = INPUTS / f"{name}.json"
    return str(local if local.exists() else DATA / f"{name}.json")


@pytest.mark.parametrize(
    "name, command, code, digest", GOLDEN, ids=[golden_id(g) for g in GOLDEN]
)
def test_golden_stdout(capsys, name, command, code, digest):
    got, out, _ = run(capsys, command[0], golden_input(name), *command[1:])
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_golden_stdout_without_asserts():
    # `python -O` strips the self-checks of the exact kernel: outputs must
    # not depend on them
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, command, code, digest in GOLDEN:
        argv = [sys.executable, "-O", "-m", "tropsurf.cli", command[0], golden_input(name), *command[1:]]
        proc = subprocess.run(argv, capture_output=True, env=env, timeout=120)
        assert proc.returncode == code, (name, command, proc.stderr)
        assert hashlib.sha256(proc.stdout).hexdigest() == digest, (name, command)
