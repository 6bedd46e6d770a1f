"""End-to-end command-line tests.

Runs the real pipeline in-process against the bundled corpus at desk scale,
then pins exit codes for stage-order violations, validation failures and IO
failures.  One subprocess test covers the installed console script.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import time

import pytest

from loophound import __version__, corpus_path
from loophound.cli import main
from loophound.explorer import read_jsonl

from conftest import TOY_RULESET, TOY_SCENARIO, read_policy_report


@pytest.fixture(scope="session")
def toy_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy_docs")
    ruleset = root / "toy_rules.lhl"
    scenario = root / "toy_scenario.lhl"
    ruleset.write_text(TOY_RULESET, encoding="utf-8")
    scenario.write_text(TOY_SCENARIO, encoding="utf-8")
    return ruleset, scenario


@pytest.fixture(scope="session")
def toy_run_dir(tmp_path_factory, toy_files):
    """A run directory holding only the explore output for the toy world."""
    ruleset, scenario = toy_files
    out = tmp_path_factory.mktemp("toy_run")
    code = main(
        [
            "explore",
            "--ruleset", str(ruleset),
            "--scenario", str(scenario),
            "--seed", "3",
            "--iterations", "10",
            "--expansions", "80",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="session")
def pipeline_dir(tmp_path_factory):
    """All six stages over the bundled corpus at desk scale."""
    out = tmp_path_factory.mktemp("pipeline")
    stages = [
        ["explore", "--seed", "7", "--iterations", "20", "--expansions", "200",
         "--out", str(out)],
        ["profile", "--min-distance", "5", "--out", str(out)],
        ["stats", "--out", str(out)],
        ["induce", "--out", str(out)],
        ["policy", "--out", str(out)],
        ["graph", "--out", str(out)],
    ]
    for argv in stages:
        assert main(argv) == 0, f"stage failed: {argv[0]}"
    return out


class TestPipeline:
    def test_all_outputs_written(self, pipeline_dir):
        for name in [
            "trajectories.jsonl",
            "profile.csv",
            "stats.csv",
            "hypothesis.json",
            "hypothesis.txt",
            "policy_report.json",
            "scheme.dot",
            "scheme_edges.csv",
            "manifest.json",
        ]:
            assert (pipeline_dir / name).exists(), name

    def test_single_manifest_records_every_stage(self, pipeline_dir):
        manifest = json.loads((pipeline_dir / "manifest.json").read_text())
        assert manifest["tool"] == "loophound"
        assert manifest["version"] == __version__
        assert set(manifest["stages"]) == {
            "explore", "profile", "stats", "induce", "policy", "graph",
        }
        assert len(manifest["ruleset_sha256"]) == 64
        assert len(manifest["scenario_sha256"]) == 64
        for record in manifest["stages"].values():
            assert "completed_at" in record

    def test_stats_columns_match_segment_count(self, pipeline_dir):
        manifest = json.loads((pipeline_dir / "manifest.json").read_text())
        segments = manifest["stages"]["profile"]["segments"]
        assert segments >= 2
        with open(pipeline_dir / "stats.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["ref", "type"] + [
            f"segment_{i}" for i in range(segments)
        ]

    def test_policy_report_is_consistent_with_trajectories(self, pipeline_dir):
        tset = read_jsonl(pipeline_dir / "trajectories.jsonl")
        complete = sum(1 for t in tset.trajectories if t.complete)
        payload = read_policy_report(pipeline_dir / "policy_report.json")
        assert payload["omega"]["size"] == complete
        assert payload["verdict"] in (
            "operationally_inefficient",
            "operationally_efficient",
            "undefined",
        )

    def test_graph_outputs_are_dot_and_csv(self, pipeline_dir):
        dot = (pipeline_dir / "scheme.dot").read_text()
        assert dot.startswith("digraph")
        assert "->" in dot
        with open(pipeline_dir / "scheme_edges.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["source", "target", "label", "weight"]
        assert len(rows) > 1

    def test_hypothesis_text_is_readable(self, pipeline_dir):
        text = (pipeline_dir / "hypothesis.txt").read_text()
        assert "taxScheme(A, B, C, D) :-" in text


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path, toy_files):
        ruleset, scenario = toy_files
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            argv = [
                "explore",
                "--ruleset", str(ruleset),
                "--scenario", str(scenario),
                "--seed", "11",
                "--iterations", "8",
                "--expansions", "60",
                "--out", str(out),
            ]
            started = time.monotonic()
            assert main(argv) == 0
            assert time.monotonic() - started < 10.0
            outputs.append((out / "trajectories.jsonl").read_bytes())
        assert outputs[0] == outputs[1]


class TestStageOrder:
    def test_graph_before_induce(self, tmp_path, capsys):
        assert main(["graph", "--out", str(tmp_path)]) == 3
        assert "run the induce stage first" in capsys.readouterr().err

    def test_profile_before_explore(self, tmp_path, capsys):
        assert main(["profile", "--out", str(tmp_path)]) == 3
        assert "run the explore stage first" in capsys.readouterr().err

    def test_stats_needs_profile(self, toy_run_dir, capsys):
        assert main(["stats", "--out", str(toy_run_dir)]) == 3
        assert "run the profile stage first" in capsys.readouterr().err

    def test_induce_without_u_plus_needs_profile(self, toy_run_dir, capsys):
        assert main(["induce", "--out", str(toy_run_dir)]) == 3
        assert "run the profile stage first" in capsys.readouterr().err

    def test_policy_needs_hypothesis(self, toy_run_dir, capsys):
        assert main(["policy", "--out", str(toy_run_dir)]) == 3
        assert "run the induce stage first" in capsys.readouterr().err


class TestRunDirectoryIntegrity:
    def test_truncated_trajectory_file_rejected(self, pipeline_dir, tmp_path, capsys):
        lines = (pipeline_dir / "trajectories.jsonl").read_text().splitlines(True)
        rows = len(lines) - 1
        (tmp_path / "trajectories.jsonl").write_text("".join(lines[: 1 + rows // 2]))
        assert main(["profile", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "corrupt trajectory file" in err
        assert f"announces {rows} trajectories, file holds {rows // 2}" in err

    @pytest.mark.parametrize(
        "bad_row,message",
        [
            (["ownsIP", "c9", "ip1"], "'ip1' has more than one owner"),
            ([], "index out of range"),
        ],
        ids=["second-ip-owner", "empty-fact-row"],
    )
    def test_invalid_final_state_rejected(
        self, toy_run_dir, tmp_path, capsys, bad_row, message
    ):
        header, first, *rest = (
            (toy_run_dir / "trajectories.jsonl").read_text().splitlines(True)
        )
        row = json.loads(first)
        row["final_state"].append(bad_row)
        (tmp_path / "trajectories.jsonl").write_text(
            "".join([header, json.dumps(row) + "\n", *rest])
        )
        assert main(["profile", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "corrupt trajectory file" in err
        assert f"final state of trajectory {row['id']}: " in err
        assert message in err

    @pytest.mark.parametrize(
        "manifest_text",
        ["[]\n", '{"stages": []}\n', '{"stages": [\n'],
        ids=["not-an-object", "stages-not-an-object", "invalid-json"],
    )
    def test_corrupt_manifest_rejected_and_kept(
        self, toy_files, tmp_path, capsys, manifest_text
    ):
        ruleset, scenario = toy_files
        manifest = tmp_path / "manifest.json"
        manifest.write_text(manifest_text)
        argv = ["explore", "--ruleset", str(ruleset), "--scenario", str(scenario),
                "--iterations", "1", "--expansions", "5", "--out", str(tmp_path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert f"corrupt manifest file {manifest}" in captured.err
        assert manifest.read_text() == manifest_text
        # the manifest is checked before the search runs or writes anything
        assert not (tmp_path / "trajectories.jsonl").exists()
        assert "explored" not in captured.out

    @pytest.mark.parametrize(
        "profile_text",
        [
            "a,b\n1,2\n",
            "index,utility,trajectory_id,segment_id\n0,5.0,3\n",
            "index,utility,trajectory_id,segment_id\n0,five,3,0\n",
        ],
        ids=["wrong-header", "short-row", "non-numeric"],
    )
    def test_malformed_profile_rejected(
        self, toy_run_dir, tmp_path, capsys, profile_text
    ):
        run = tmp_path / "run"
        run.mkdir()
        (run / "trajectories.jsonl").write_bytes(
            (toy_run_dir / "trajectories.jsonl").read_bytes()
        )
        (run / "profile.csv").write_text(profile_text)
        assert main(["stats", "--out", str(run)]) == 1
        assert "corrupt profile file" in capsys.readouterr().err

    def test_stale_profile_is_a_stage_order_violation(self, tmp_path, toy_files, capsys):
        ruleset, scenario = toy_files

        def explore(seed, expansions):
            argv = ["explore", "--ruleset", str(ruleset), "--scenario", str(scenario),
                    "--seed", str(seed), "--iterations", "10",
                    "--expansions", str(expansions), "--out", str(tmp_path)]
            assert main(argv) == 0
            return read_jsonl(tmp_path / "trajectories.jsonl")

        first = explore(3, 80)
        assert main(["profile", "--out", str(tmp_path)]) == 0
        second = explore(5, 5)
        stale = {t.id for t in first.trajectories if t.complete}
        assert stale - {t.id for t in second.trajectories}
        assert main(["stats", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "run the profile stage again" in err


class TestValidationErrors:
    def test_zero_iterations(self, tmp_path, capsys):
        code = main(["explore", "--iterations", "0", "--out", str(tmp_path)])
        assert code == 1
        assert "iterations" in capsys.readouterr().err

    def test_min_distance_below_one(self, tmp_path, capsys):
        assert main(["profile", "--min-distance", "0", "--out", str(tmp_path)]) == 1
        assert "--min-distance" in capsys.readouterr().err

    def test_non_positive_peak_height(self, tmp_path, capsys):
        code = main(
            ["profile", "--peak-height", "0", "--out", str(tmp_path)]
        )
        assert code == 1
        assert "--peak-height" in capsys.readouterr().err

    def test_graph_top_k_below_one(self, tmp_path, capsys):
        assert main(["graph", "--top-k", "0", "--out", str(tmp_path)]) == 1
        assert "--top-k" in capsys.readouterr().err

    def test_rate_outside_unit_interval(self, tmp_path, capsys):
        bad = tmp_path / "bad.lhl"
        bad.write_text("rate usa 1.5.\n", encoding="utf-8")
        scenario = tmp_path / "s.lhl"
        scenario.write_text(TOY_SCENARIO, encoding="utf-8")
        assert main(["check", str(bad), str(scenario)]) == 1
        err = capsys.readouterr().err
        assert "1:6: error: rate for 'usa' outside [0, 1]: 1.5" in err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_welfare_kind(self, tmp_path, capsys):
        assert main(["policy", "--welfare", "gdp", "--out", str(tmp_path)]) == 1
        assert "invalid choice" in capsys.readouterr().err


class TestIoErrors:
    def test_missing_input_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.lhl"
        code = main(["check", str(missing), str(missing)])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err


class TestCheck:
    def test_corpus_documents_validate(self, capsys):
        code = main(
            ["check", str(corpus_path("table1.lhl")), str(corpus_path("scenario.lhl"))]
        )
        assert code == 0
        assert "ok: ruleset and state parse and validate" in capsys.readouterr().out

    def test_unknown_transaction_kind_rejected(self, tmp_path, capsys):
        ruleset = tmp_path / "typo.lhl"
        ruleset.write_text(
            "rate usa 0.35.\n"
            'reduction "x" kind deductible {\n'
            "  when: transaction(royalti, Self, R);\n"
            "  new_base: 0.5 * Base;\n"
            "}\n",
            encoding="utf-8",
        )
        assert main(["check", str(ruleset), str(corpus_path("scenario.lhl"))]) == 1
        err = capsys.readouterr().err
        assert "2:1: error: reduction: deductible/x: transaction kind must be one of" in err
        assert "transaction(royalti, Self, R)" in err


class TestConsoleScript:
    def test_version_via_installed_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "loophound.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"loophound {__version__}"

    def test_import_leaves_scipy_unloaded(self):
        # scipy is a test-only dependency and takes about a second to import
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, loophound.cli; print('scipy' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_profile_stage_leaves_scipy_unloaded(self, pipeline_dir, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(pipeline_dir, run)
        script = (
            "import sys; from loophound.cli import main; "
            f"code = main(['profile', '--min-distance', '5', '--out', {str(run)!r}]); "
            "print(code, 'scipy' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"
        # the stage segmented the profile again, to the same bytes
        want = (pipeline_dir / "profile.csv").read_bytes()
        assert (run / "profile.csv").read_bytes() == want
