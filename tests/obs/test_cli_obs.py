"""The ``python -m repro.obs`` CLI (the CI smoke job runs the same path)."""

import json

import pytest

from repro.obs.__main__ import main
from repro.obs.schema import check_chrome_trace, check_export


def test_cli_json_export_validates(tmp_path, capsys):
    out = tmp_path / "obs.json"
    rc = main(["--workload", "helloworld", "--scale", "1.0",
               "--export", "json", "--out", str(out)])
    assert rc == 0
    bundle = json.loads(out.read_text())
    check_export(bundle)
    assert bundle["meta"]["workload"] == "helloworld"
    assert bundle["meta"]["setting"] == "erebor"
    assert bundle["profile"]["total_cycles"] == bundle["meta"]["cycles"]
    assert "-> " in capsys.readouterr().err


def test_cli_chrome_export_validates(tmp_path):
    out = tmp_path / "trace.json"
    rc = main(["--workload", "helloworld", "--scale", "1.0",
               "--export", "chrome", "-o", str(out)])
    assert rc == 0
    check_chrome_trace(json.loads(out.read_text()))


def test_cli_list_workloads(capsys):
    assert main(["--list"]) == 0
    names = capsys.readouterr().out.split()
    assert "helloworld" in names and "llama.cpp" in names


def test_cli_rejects_unknown_workload(capsys):
    with pytest.raises(SystemExit):
        main(["--workload", "nope"])


def test_cli_rejects_nonpositive_capacity(capsys):
    with pytest.raises(SystemExit):
        main(["--workload", "helloworld", "--capacity", "0"])
    assert "--capacity must be positive" in capsys.readouterr().err


def test_cli_prometheus_to_stdout(capsys):
    rc = main(["--workload", "helloworld", "--scale", "1.0",
               "--export", "prometheus"])
    assert rc == 0
    assert "# TYPE erebor_emc_total counter" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["chrome", "prometheus"])
def test_cli_hostprof_rejects_formats_it_cannot_write(tmp_path, capsys, fmt):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc_info:
        main(["hostprof", "--workload", "helloworld", "--export", fmt,
              "-o", str(out)])
    assert exc_info.value.code == 2
    assert f"hostprof mode cannot export {fmt!r}" in capsys.readouterr().err
    assert not out.exists()
