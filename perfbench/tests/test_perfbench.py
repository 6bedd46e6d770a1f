"""Tests of the benchmark's input generators and self-time arithmetic.

The run directories are built at the desk scale (20 iterations x 200
expansions), through the same CLI entry and traced runner the benchmark uses.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import SpanRecorder, SpanTable, self_times  # noqa: E402

SEED = 7


# ============================================================================
# Self-time arithmetic
# ============================================================================


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    # parent [0, 10]; children [1, 3] and [2, 4] overlap, [8, 12] overruns
    start = [0.0, 1.0, 2.0, 8.0, 2.5]
    end = [10.0, 3.0, 4.0, 12.0, 2.75]
    parent = [-1, 0, 0, 0, 2]  # the last span is a grandchild
    got = self_times(start, end, parent)
    assert got[0] == pytest.approx(10.0 - (3.0 + 2.0))
    assert got[1] == pytest.approx(2.0)
    assert got[2] == pytest.approx(2.0 - 0.25)
    assert got[3] == pytest.approx(4.0)
    assert got[4] == pytest.approx(0.25)


def test_self_by_name_sums_only_spans_nested_in_the_root():
    table = SpanTable(
        ["explorer.explore", "kernel.apply_action", "explorer.write_jsonl"],
        name_id=[0, 1, 1, 2],
        start=[0.0, 1.0, 5.0, 20.0],
        end=[10.0, 2.0, 7.0, 21.0],
        parent=[-1, 0, 0, -1],
    )
    split = table.self_by_name("explorer.explore")
    assert split == pytest.approx({"explorer.explore": 7.0, "kernel.apply_action": 3.0})
    assert table.calls("kernel.apply_action") == 2
    assert table.total("explorer.write_jsonl") == pytest.approx(1.0)


def test_recorder_nests_wrapped_calls(tmp_path):
    recorder = SpanRecorder()
    inner = recorder.wrap(lambda x: x + 1, "kernel.inner")
    outer = recorder.wrap(lambda x: inner(inner(x)), "explorer.outer")
    assert outer(1) == 3
    recorder.save(tmp_path / "spans.npz", {"n": 1})
    table = SpanTable.load(tmp_path / "spans.npz")
    assert table.parent == [-1, 0, 0]
    assert table.calls("kernel.inner") == 2
    assert table.counts == {"n": 1}
    assert table.self_total("explorer.outer") == pytest.approx(
        table.total("explorer.outer") - table.total("kernel.inner")
    )


# ============================================================================
# Input generators
# ============================================================================


def test_statutory_ruleset_drops_only_the_reductions():
    from loophound import corpus_path
    from loophound.dsl import parse_ruleset

    table1 = parse_ruleset(corpus_path("table1.lhl").read_text(encoding="utf-8"))
    text = wl.statutory_ruleset(corpus_path("table1.lhl").read_text(encoding="utf-8"))
    statutory = parse_ruleset(text)
    assert statutory.ok, [str(d) for d in statutory.diagnostics]
    assert len(table1.document.reduction_rules) == 8
    assert statutory.document.reduction_rules == ()
    assert statutory.document.action_rules == table1.document.action_rules
    assert statutory.document.rates() == table1.document.rates()


def test_write_inputs_checks_the_recorded_statutory_hash(tmp_path):
    ruleset, scenario = wl.write_inputs(run.CORPUS, "statutory", tmp_path)
    assert wl.sha256_file(ruleset) == wl.STATUTORY_RULESET_SHA256
    assert scenario.read_text() == (run.CORPUS / "scenario.lhl").read_text()


def test_stage_args_pass_the_seed_and_shape_to_explore(tmp_path):
    inputs = (tmp_path / "r.lhl", tmp_path / "s.lhl")
    args = wl.stage_args("explore", tmp_path, inputs, "desk", 11)
    assert args[args.index("--seed") + 1] == "11"
    assert args[args.index("--iterations") + 1] == "20"
    assert args[args.index("--expansions") + 1] == "200"
    assert args[args.index("--threads") + 1] == "1"
    induce = wl.stage_args("induce", tmp_path, inputs, "desk", 11, u_plus=905.99)
    assert induce[-4:] == ["--u-plus", "905.99", "--beam-width", "16"]


def test_explore_check_flags_a_truncated_file_and_a_pinned_mismatch(tmp_path):
    header = {"format": 1, "kind": "trajectory-set", "trajectory_count": 2}
    lines = [header, {"id": 0, "complete": True}]
    (tmp_path / "trajectories.jsonl").write_text(
        "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8"
    )
    facts, problems = wl.check_stage("explore", tmp_path, {"complete": 2})
    assert facts["trajectories"] == 1 and facts["complete"] == 1
    assert len(problems) == 2
    (tmp_path / "profile.csv").write_text("index,utility,trajectory_id,segment_id\n")
    _, problems = wl.check_stage("profile", tmp_path, {}, complete=1)
    assert problems == ["profile has 0 rows for 1 complete plans"]


# ============================================================================
# Desk-scale runs
# ============================================================================


def _stage(args: list[str], traced: Path | None = None) -> None:
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    if traced is None:
        cmd = [sys.executable, "-c", run.ENTRY, *args]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "traced_stage.py"), str(traced), *args]
    subprocess.run(cmd, check=True, env=env, cwd=ROOT, capture_output=True, timeout=300)


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """An untraced explore + profile and a traced explore, same desk inputs."""
    base = tmp_path_factory.mktemp("desk")
    inputs = wl.write_inputs(run.CORPUS, "table1", base / "inputs")
    plain, traced = base / "plain", base / "traced"
    _stage(wl.stage_args("explore", plain, inputs, "desk", SEED))
    _stage(wl.stage_args("profile", plain, inputs, "desk", SEED))
    _stage(wl.stage_args("explore", traced, inputs, "desk", SEED), base / "spans.npz")
    return plain, traced, SpanTable.load(base / "spans.npz")


def test_broad_threshold_is_the_75th_percentile_of_complete_utilities(desk):
    plain, _, _ = desk
    with open(plain / "trajectories.jsonl", encoding="utf-8") as handle:
        handle.readline()
        utilities = [r["utility"] for r in map(json.loads, handle) if r["complete"]]
    u_plus = wl.broad_threshold(plain)
    assert u_plus == float(np.percentile(utilities, 75))
    above = sum(1 for u in utilities if u > u_plus)
    assert 0 < above <= len(utilities) // 4 + 1


def test_tracing_leaves_the_trajectories_byte_identical(desk):
    plain, traced, _ = desk
    assert wl.sha256_file(traced / "trajectories.jsonl") == wl.sha256_file(
        plain / "trajectories.jsonl"
    )
    facts, problems = wl.check_stage("explore", traced, {})
    assert problems == []
    assert facts["complete"] > 0


def test_traced_explore_self_times_add_up(desk):
    _, _, table = desk
    explore = table.total("explorer.explore")
    split = table.self_by_name("explorer.explore")
    assert sum(split.values()) == pytest.approx(explore, rel=1e-9)
    assessed = table.total("taxation.evaluate_state") - table.total(
        "economy.settle"
    ) - table.total("taxation.applicability")
    assert table.self_total("taxation.evaluate_state") == pytest.approx(assessed, rel=1e-6)
    assert table.calls("taxation.evaluate_state") == table.calls("economy.settle")
    assert table.calls("kernel.apply_action") >= table.counts["distinct_successors"] > 0
    assert table.total("cli.import") > 0
