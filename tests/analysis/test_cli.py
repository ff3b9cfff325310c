"""The python -m repro.analysis CLI."""

import json
from pathlib import Path

import pytest

from repro.analysis.__main__ import main

REPRO_SRC = str(Path(__file__).resolve().parents[2] / "src" / "repro")


def test_verify_default_kernel_is_clean(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "CLEAN" in out
    assert "V7" in out


def test_verify_self_check_writes_artifact(tmp_path, capsys):
    artifact = tmp_path / "report.json"
    assert main(["verify", "--self-check", "--json", str(artifact)]) == 0
    payload = json.loads(artifact.read_text())
    assert payload["kernel"]["ok"] is True
    names = {a["name"] for a in payload["attacks"]}
    assert "rogue-gate-icall" in names
    assert all(a["rejected_as_expected"] for a in payload["attacks"])
    assert all(a["byte_scan_as_expected"] for a in payload["attacks"])


def test_verify_rejects_attack_image_file(tmp_path, capsys):
    from repro.analysis.attacks import rogue_gate_icall
    path = tmp_path / "evil.self"
    path.write_bytes(rogue_gate_icall().image.serialize())
    assert main(["verify", "--image", str(path)]) == 1
    assert "REJECTED" in capsys.readouterr().out


def test_lint_tree_exits_zero(capsys):
    assert main(["lint", REPRO_SRC]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_lint_flags_bad_file(tmp_path, capsys):
    bad = tmp_path / "repro" / "bad.py"
    bad.parent.mkdir()
    bad.write_text("import time\nt = time.time()\n")
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "D1" in out


def test_report_bundle(tmp_path):
    out = tmp_path / "bundle.json"
    assert main(["report", REPRO_SRC, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["kernel"]["ok"] is True
    assert payload["lint"]["findings"] == []
    assert payload["attacks"]


def test_dataflow_default_kernel_is_proven(capsys):
    assert main(["dataflow"]) == 0
    out = capsys.readouterr().out
    assert "PROVEN" in out and "budget:" in out


def test_dataflow_self_check_writes_artifact(tmp_path, capsys):
    artifact = tmp_path / "dataflow.json"
    assert main(["dataflow", "--self-check", "--json",
                 str(artifact)]) == 0
    payload = json.loads(artifact.read_text())
    assert payload["kernel"]["ok"]
    assert len(payload["attacks"]) == 3
    assert all(a["rejected_as_expected"] and a["passes_v0_v7"]
               for a in payload["attacks"])


def test_dataflow_rejects_attack_image_file(tmp_path, capsys):
    from repro.analysis.attacks import tainted_gate_argument
    path = tmp_path / "attack.self"
    path.write_bytes(tainted_gate_argument().image.serialize())
    assert main(["dataflow", "--image", str(path)]) == 1
    assert "V8" in capsys.readouterr().out


@pytest.mark.parametrize("cmd", ["verify", "dataflow"])
@pytest.mark.parametrize("contents", [None, b"not a self image"],
                         ids=["missing", "malformed"])
def test_unreadable_image_file_is_an_error(tmp_path, capsys, cmd, contents):
    path = tmp_path / "kernel.self"
    if contents is not None:
        path.write_bytes(contents)
    assert main([cmd, "--image", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
