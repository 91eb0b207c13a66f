"""The benchmark's own tests: a wrong answer fails the run, and the
command refuses to run without the program's source.

Run: ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import phases  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.engine.table import Table  # noqa: E402


def _in_process(phase, args, deadline):  # noqa: ARG001
    result = phases.untraced(args.workload, args.seed, args.seconds)
    result["steal"] = (0, 0)
    return result


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    listed = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in listed["workloads"]]
    assert names == [n for n in run.WORKLOAD_NAMES if n in names]
    for key, metrics in (("end_to_end", run.END_TO_END),
                         ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in listed[key]] == list(metrics)


def test_correct_run_passes(capsys):
    argv = ["--workload", "summary_read", "--seed", "3", "--seconds", "0.3"]
    assert run.main(argv, spawn=_in_process) == 0
    result = _last_json(capsys.readouterr().out)
    assert result["correct"] is True
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}


def test_corrupted_expected_answer_fails_the_run(monkeypatch, capsys):
    real = workloads._expected_answer

    def corrupted(run_, db_key, sql, first):
        table = real(run_, db_key, sql, first)
        rows = [tuple(row) for row in table.rows]
        rows[0] = (rows[0][0], *[("x" if isinstance(v, str) else -1)
                                 for v in rows[0][1:]])
        return Table(table.columns, rows)

    monkeypatch.setattr(workloads, "_expected_answer", corrupted)
    argv = ["--workload", "summary_read", "--seed", "3", "--seconds", "0.3"]
    assert run.main(argv, spawn=_in_process) == 1
    out = capsys.readouterr().out
    assert "WRONG" in out
    assert _last_json(out)["correct"] is False


def test_refuses_to_run_without_program_source(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "phases.py", "workloads.py", "layers.py"):
        shutil.copy(HERE / name, tmp_path / "perfbench" / name)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "base_scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
