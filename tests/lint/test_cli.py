"""The ``python -m repro.lint`` front end and the clean-tree gate."""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

BAD_SOURCE = "def collect(samples=[]):\n    return samples\n"


def run_cli(*argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *argv],
        cwd=cwd or REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_clean_tree_exits_zero():
    # the acceptance gate: the shipped source passes its own analyzer
    proc = run_cli("src")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_whole_tree_is_clean_including_tests_and_benchmarks():
    # the CI gate lints the full tree — src, tests, benchmarks — with
    # the project pass on; it must hold without pragmas in src/repro
    proc = run_cli("src", "tests", "benchmarks")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_findings_exit_one_with_text_report(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SOURCE)
    proc = run_cli(str(bad))
    assert proc.returncode == 1
    assert "no-mutable-default" in proc.stdout
    assert f"{bad}:1:" in proc.stdout


def test_github_format_emits_error_workflow_commands(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SOURCE)
    proc = run_cli("--format=github", str(bad))
    assert proc.returncode == 1
    line = proc.stdout.strip().splitlines()[0]
    assert line.startswith("::error file=")
    assert ",line=1," in line
    assert "title=no-mutable-default" in line
    # workflow commands put the message after the :: separator
    assert "::" in line.split("title=no-mutable-default", 1)[1]


def test_github_format_escapes_property_delimiters(tmp_path):
    # a path containing a comma must not split the file property
    subdir = tmp_path / "odd,dir"
    subdir.mkdir()
    bad = subdir / "bad.py"
    bad.write_text(BAD_SOURCE)
    proc = run_cli("--format=github", str(bad))
    assert proc.returncode == 1
    line = proc.stdout.strip().splitlines()[0]
    assert "odd%2Cdir" in line


def test_stats_go_to_stderr_and_compose_with_formats(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SOURCE)
    proc = run_cli("--stats", "--format=github", str(bad))
    assert proc.returncode == 1
    # stdout carries only the workflow commands
    lines = proc.stdout.splitlines()
    assert lines and all(line.startswith("::error file=") for line in lines)
    assert "stats: 1 files" in proc.stderr
    assert "project pass" in proc.stderr
    assert "stats: no-mutable-default: 1" in proc.stderr


def test_stats_on_a_clean_run_reports_zero_findings(tmp_path):
    good = tmp_path / "good.py"
    good.write_text("def f(x=None):\n    return x\n")
    proc = run_cli("--stats", str(good))
    assert proc.returncode == 0
    assert "0 findings" in proc.stderr


def test_list_rules_prints_catalogue():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    for rule in (
        "no-wallclock",
        "no-unseeded-random",
        "frozen-config",
        "cache-key-completeness",
        "model-imports",
        "no-mutable-default",
        "no-dict-order-dependence",
    ):
        assert rule in proc.stdout
