"""End-to-end command-line tests.

Runs the real pipeline in-process against the bundled corpus at desk scale,
then pins exit codes for stage-order violations, validation failures and IO
failures.  One subprocess test covers the installed console script.
"""

from __future__ import annotations

import ast
import csv
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from loophound import __version__, cli, corpus_path
from loophound.cli import main
from loophound.policy import WELFARE_KINDS
from loophound.runfiles import read_jsonl

from conftest import TOY_RULESET, TOY_SCENARIO, read_policy_report


def _replaced(doc, path, value):
    """``doc`` with the item at the key ``path`` set to ``value``, or to
    ``value(item)`` when ``value`` is a function."""
    if not path:
        return value(doc) if callable(value) else value
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value(target[path[-1]]) if callable(value) else value
    return doc


def _sale_edited(edit):
    """A defect of ``[header, *rows]``: ``edit`` applied to the transactions
    of the first record whose path sells the IP."""

    def defect(lines):
        row = next(
            r for r in lines[1:] if any(a["name"] == "transferIP" for a in r["actions"])
        )
        row["transactions"] = edit(row["transactions"])
        return lines

    return defect


# a string of a defect's value that the file holds bare: "1e999", a number
# too large for a float, which json reads as infinity, and "[nested]",
# arrays nested deeper than json reads
_BARE = {'"1e999"': "1e999", '"[nested]"': "[" * 100_000 + "]" * 100_000}


def _bare(text):
    """``text`` with each string of _BARE written bare."""
    for string, bare in _BARE.items():
        text = text.replace(string, bare)
    return text


DESK_PARAMS = {"seed": 7, "iterations": 20, "expansions": 200, "beta": 0.01,
               "tau0": 5.0, "max_steps": 12, "cost_coefficient": 1.0}

# defect -> (key path into [header, *rows], new value, part of the message)
TRAJECTORY_DEFECTS = {
    "five-element-transaction": (
        (1, "transactions"), [[0, 1, "commercial", "germany", "c1"]], "'amount'"
    ),
    "row-not-an-object": ((1,), [], "trajectory 0: TypeError"),
    "header-not-an-object": ((0,), [], "not a format-1 trajectory set"),
    "actions-not-a-list": ((1, "actions"), 5, "trajectory 0: TypeError"),
    "utility-not-a-number": ((1, "utility"), "x", "utility is 'x'"),
    "utility-nan": ((1, "utility"), math.nan, "NaN is not a finite number"),
    "transaction-amount-infinite": (
        (1, "transactions", 0, 5), -math.inf, "-Infinity is not a finite number"
    ),
    "params-beta-infinite": (
        (0, "params"), {**DESK_PARAMS, "beta": math.inf}, "header: Infinity"
    ),
    "length-not-a-number": ((1, "length"), "x", "length 'x'"),
    "binding-not-a-constant": (
        (1, "actions", 0, "args"), {"Parent": "Zed"}, "binds Parent to 'Zed'"
    ),
    "transaction-amount-not-a-number": (
        (1, "transactions", 0, 5), True, "amount is True"
    ),
    # "1e999" is written bare (see _write_defect): a number too large for a
    # float, which json reads as infinity
    "utility-too-large": ((1, "utility"), "1e999", "utility is inf, not a finite"),
    "transaction-amount-too-large": (
        (1, "transactions", 0, 5), "1e999", "amount is inf, not a finite"
    ),
    "assessment-tax-due-too-large": (
        (1, "assessments", 0, "tax_due"), "1e999", "tax_due is inf, not a finite"
    ),
    "p-int-too-large": ((1, "p"), 10**400, "int too large to convert to float"),
    "assessment-tax-due-not-a-number": (
        (1, "assessments", 0, "tax_due"), "x", "tax_due is 'x'"
    ),
    "params-missing-a-field": (
        (0, "params"),
        {k: v for k, v in DESK_PARAMS.items() if k != "cost_coefficient"},
        "params must be exactly",
    ),
    "params-unknown-field": (
        (0, "params"), {**DESK_PARAMS, "threads": 1}, "params must be exactly"
    ),
    # each header field holds what SearchParams and TrajectorySet declare
    "params-iterations-too-large": (
        (0, "params", "iterations"), "1e999", "header: iterations is inf"
    ),
    "params-seed-a-string": ((0, "params", "seed"), "7", "header: seed is '7'"),
    "params-max-steps-not-an-int": (
        (0, "params", "max_steps"), 12.5, "header: max_steps is 12.5"
    ),
    "params-expansions-a-boolean": (
        (0, "params", "expansions"), True, "header: expansions is True"
    ),
    "warnings-a-string": ((0, "warnings"), "abc", "header: warnings is 'abc'"),
    "ruleset-hash-a-number": (
        (0, "ruleset_sha256"), 123, "header: ruleset_sha256 is 123"
    ),
    # a transaction is [id, time, kind, sender, receiver, amount]
    "transfer-payment-removed": (
        (),
        _sale_edited(lambda txs: [tx for tx in txs if tx[2] != "transfer"]),
        "transfer payments [], transferIP at steps",
    ),
    "transfer-payment-moved": (
        (),
        _sale_edited(
            lambda txs: [
                [tx[0], tx[1] + 1, *tx[2:]] if tx[2] == "transfer" else tx for tx in txs
            ]
        ),
        "transferIP at steps",
    ),
    "transfer-payment-from-a-non-party": (
        (),
        _sale_edited(
            lambda txs: [
                [*tx[:3], "nobody", *tx[4:]] if tx[2] == "transfer" else tx for tx in txs
            ]
        ),
        "buyer='nobody'",
    ),
    # a trajectory's id is its record's position, counting from 0
    "id-repeated": ((2, "id"), 0, "trajectory 1: ValueError: id 0 is not its position 1"),
    "id-out-of-order": (
        (),
        lambda lines: [lines[0], lines[2], lines[1], *lines[3:]],
        "trajectory 0: ValueError: id 1 is not its position 0",
    ),
    # the cost explore charged per action, a positive finite number
    "params-cost-zero": (
        (0, "params", "cost_coefficient"), 0.0, "header: cost_coefficient is 0.0"
    ),
    "params-cost-negative": (
        (0, "params", "cost_coefficient"), -1.0, "header: cost_coefficient is -1.0"
    ),
    "params-cost-nan": ((0, "params", "cost_coefficient"), math.nan, "header: NaN"),
    "params-cost-infinite": (
        (0, "params", "cost_coefficient"), math.inf, "header: Infinity"
    ),
    # phi and utility are explore's arithmetic on the header's cost_coefficient
    "phi-not-cost-times-length": (
        (1, "phi"), lambda phi: phi + 1.0, "phi is not cost_coefficient * length"
    ),
    "utility-not-p-minus-phi": (
        (1, "utility"), lambda utility: utility + 5000.0, "utility is not p - phi"
    ),
    # the header's constants hold their own type, not one equal to it
    "format-true": ((0, "format"), True, "header: format is True, not 1"),
    "format-a-float": ((0, "format"), 1.0, "header: format is 1.0, not 1"),
    "length-a-float": ((1, "length"), float, ".0 but "),
    # the message names the utility the record should hold
    "p-off-by-a-half": (
        (1,), lambda row: {**row, "p": row["phi"] + 0.5}, "utility is not p - phi, 0.5"
    ),
    "header-nested": ((0,), "[nested]", "header: maximum recursion depth exceeded"),
    "row-nested": ((1,), "[nested]", "trajectory 0: RecursionError"),
}


def _write_defect(pipeline_dir, out, defect):
    """Write ``out/trajectories.jsonl``: the pipeline's file with ``defect``
    of TRAJECTORY_DEFECTS applied, the strings of _BARE written bare.
    Returns the part of the message."""
    path, value, message = TRAJECTORY_DEFECTS[defect]
    text = (pipeline_dir / "trajectories.jsonl").read_text()
    lines = _replaced([json.loads(line) for line in text.splitlines()], path, value)
    (out / "trajectories.jsonl").write_text(
        "".join(_bare(json.dumps(line)) + "\n" for line in lines)
    )
    return message


# analysis stage -> the files it writes; the pipeline fixture's flags
ANALYSIS_OUTPUTS = {
    "profile": ["profile.csv"],
    "stats": ["stats.csv"],
    "induce": ["hypothesis.json", "hypothesis.txt"],
    "policy": ["policy_report.json"],
    "graph": ["scheme.dot", "scheme_edges.csv"],
}
ANALYSIS_FLAGS = {"profile": ["--min-distance", "5"]}


def _run_in_subprocess(argv, module, stderr=None):
    """(exit code, whether ``module`` was imported) of ``main(argv)`` run in
    a fresh interpreter; the run's standard error is appended to the list
    ``stderr`` when one is given."""
    script = (
        "import sys; from loophound.cli import main; "
        f"code = main({argv!r}); print(code, {module!r} in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    if stderr is not None:
        stderr.append(proc.stderr)
    code, loaded = proc.stdout.splitlines()[-1].split()
    return int(code), loaded == "True"


def _loaded_modules(argv, modules):
    """(exit code, the ones of ``modules`` imported) of ``main(argv)`` run in
    a fresh interpreter."""
    script = (
        f"import sys; from loophound.cli import main; code = main({argv!r}); "
        f"print(code, *[m for m in {modules!r} if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.splitlines()[-1].split()
    return int(code), set(loaded)


# stage -> the modules its process must not import; only explore hashes,
# so only its process loads OpenSSL (_hashlib)
STAGE_UNLOADED = {
    "check": ("loophound.explorer", "loophound.analytics", "loophound.induction",
              "loophound.policy", "numpy", "_hashlib"),
    "explore": ("numpy.ma", "loophound.analytics", "loophound.induction",
                "loophound.policy"),
    "profile": ("loophound.dsl", "loophound.join", "loophound.induction",
                "loophound.policy", "numpy", "_hashlib"),
    "stats": ("loophound.dsl", "loophound.join", "loophound.induction",
              "loophound.policy", "numpy", "_hashlib"),
    "induce": ("loophound.dsl", "loophound.join", "_hashlib"),
    "policy": ("loophound.dsl", "loophound.join", "_hashlib"),
    "graph": ("loophound.dsl", "loophound.join", "loophound.policy", "_hashlib"),
}


def _traced_cli_names():
    """The names perfbench/traced_stage.py wraps on ``loophound.cli``, read
    from its TRACED table without importing it."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / "traced_stage.py"
    for node in ast.parse(source.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            traced = ast.literal_eval(node.value)
            return sorted({name for module, name, _ in traced if module == "loophound.cli"})
    raise AssertionError(f"no TRACED table in {source}")


TRACED_CLI_NAMES = _traced_cli_names()

# traced name -> the stage that calls it
TRACED_STAGES = {
    "parse_ruleset": "check",
    "parse_scenario": "check",
    "explore": "explore",
    "write_jsonl": "explore",
    "read_jsonl": "profile",
    "utility_profile": "profile",
    "detect_segments": "profile",
    "frequency_table": "stats",
    "build_background": "induce",
    "induce": "induce",
    "evaluate": "induce",
    "delta_restriction": "policy",
}


def _stage_argv(stage, run):
    """A command line of ``stage`` in the run directory ``run``: ``check``
    reads the bundled corpus, ``explore`` makes a two-iteration search."""
    if stage == "check":
        return ["check", str(corpus_path("table1.lhl")), str(corpus_path("scenario.lhl"))]
    if stage == "explore":
        return ["explore", "--seed", "7", "--iterations", "2", "--expansions", "5",
                "--out", str(run)]
    return [stage, *ANALYSIS_FLAGS.get(stage, []), "--out", str(run)]


# defect -> (key path into hypothesis.json, new value)
HYPOTHESIS_DEFECTS = {
    "not-an-object": ((), []),
    "clauses-not-a-list": (("clauses",), 5),
    "args-not-a-list": (("clauses", 0, "body", 0, "args"), 5),
    "f1-not-a-number": (("clauses", 0, "metrics", "f1"), "x"),
    "body-item-not-an-object": (("clauses", 0, "body", 0), 5),
    "unknown-predicate": (("clauses", 0, "body", 0, "predicate"), "ownsIp"),
    "wrong-arity": (("clauses", 0, "body", 0, "args"), ["A"]),
    "u_plus-null": (("u_plus",), None),
    "u_plus-nan": (("u_plus",), float("nan")),
    "u_plus-too-large": (("u_plus",), "1e999"),
    "f1-too-large": (("clauses", 0, "metrics", "f1"), "1e999"),
    "format-2": (("format",), 2),
    "format-missing": ((), lambda doc: {k: v for k, v in doc.items() if k != "format"}),
    "warnings-a-string": (("warnings",), "abc"),
    "positives-not-a-count": (("positives",), "many"),
    "negatives-negative": (("negatives",), -1),
    "argument-empty": (("clauses", 0, "body", 0, "args", 0), ""),
    "argument-not-a-name": (("clauses", 0, "body", 0, "args", 0), "x y"),
    "clauses-nested": (("clauses",), "[nested]"),
}


PROFILE_HEADER = "index,utility,trajectory_id,segment_id\n"

# defect -> the text of a malformed profile.csv
PROFILE_DEFECTS = {
    "wrong-header": "a,b\n1,2\n",
    "short-row": PROFILE_HEADER + "0,5.0,3\n",
    "non-numeric": PROFILE_HEADER + "0,five,3,0\n",
    "utility-nan": PROFILE_HEADER + "0,5.0,3,0\n1,nan,4,1\n",
    "utility-too-large": PROFILE_HEADER + "0,1e999,3,0\n1,2.0,4,1\n",
    "index-out-of-sequence": PROFILE_HEADER + "0,5.0,3,0\n2,2.0,4,1\n",
    "first-segment-not-0": PROFILE_HEADER + "0,5.0,3,1\n1,2.0,4,2\n",
    "segment-id-skips": PROFILE_HEADER + "0,5.0,3,0\n1,2.0,4,7\n",
    "utility-ascending": PROFILE_HEADER + "0,2.0,3,0\n1,5.0,4,1\n",
    "trajectory-id-repeated": PROFILE_HEADER + "0,5.0,3,0\n1,2.0,3,1\n",
}


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
        # and no temporary file of a write is left behind
        assert sorted(p.name for p in pipeline_dir.iterdir()) == sorted([
            "trajectories.jsonl",
            "profile.csv",
            "stats.csv",
            "hypothesis.json",
            "hypothesis.txt",
            "policy_report.json",
            "scheme.dot",
            "scheme_edges.csv",
            "manifest.json",
        ])

    def test_single_manifest_records_every_stage(self, pipeline_dir):
        manifest = json.loads((pipeline_dir / "manifest.json").read_text())
        assert manifest["tool"] == "loophound"
        assert manifest["version"] == __version__
        assert set(manifest["stages"]) == {
            "explore", "profile", "stats", "induce", "policy", "graph",
        }
        assert len(manifest["ruleset_sha256"]) == 64
        assert len(manifest["scenario_sha256"]) == 64
        explore = manifest["stages"]["explore"]
        assert (explore["seed"], explore["cost_coefficient"]) == (7, 1.0)
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

    def test_stage_lines_report_the_outputs(self, pipeline_dir, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(pipeline_dir, run)
        hypothesis = json.loads((run / "hypothesis.json").read_text(encoding="utf-8"))
        overall = hypothesis["overall_metrics"]
        assert main(["induce", "--out", str(run)]) == 0
        assert capsys.readouterr().out == (
            f"{len(hypothesis['clauses'])} clause(s), accuracy {overall['accuracy']:.4f}, "
            f"f1 {overall['f1']:.4f} -> {run / 'hypothesis.json'}\n"
        )
        report = read_policy_report(run / "policy_report.json")
        assert main(["policy", "--out", str(run)]) == 0
        assert capsys.readouterr().out == (
            f"welfare mean_tax_collected: Delta(H) = {report['Delta_H']:.6f}, "
            f"verdict {report['verdict']} -> {run / 'policy_report.json'}\n"
        )
        # --top-k 1, the least the option accepts, keeps the best edge
        assert main(["graph", "--top-k", "1", "--out", str(run)]) == 0
        assert capsys.readouterr().out == (
            f"1 edge(s) -> {run / 'scheme.dot'}, {run / 'scheme_edges.csv'}\n"
        )

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

    def test_induce_rejects_a_non_finite_u_plus(self, toy_run_dir, capsys):
        for value in ("nan", "inf"):
            assert main(["induce", "--u-plus", value, "--out", str(toy_run_dir)]) == 1
            assert "u_plus must be a finite number" in capsys.readouterr().err

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
            (["exists", "Zed"], "fact argument must be a ground constant: 'Zed'"),
        ],
        ids=["second-ip-owner", "empty-fact-row", "variable-argument"],
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

    def test_a_sale_of_a_constant_ip_reads_back(self, tmp_path, toy_files):
        # the sale's two parties are all that its transferIP binds
        _, scenario = toy_files
        ruleset = tmp_path / "rules.lhl"
        ruleset.write_text(
            TOY_RULESET.split("action transferIP")[0]
            + 'action transferIP(From, To) ref "transfer" {\n'
            "  pre: ownsIP(From, ip1), exists(To), From != To,\n"
            "       not rentsIP(From, _, ip1), not rentsIP(_, To, ip1);\n"
            "  eff: not ownsIP(From, ip1), ownsIP(To, ip1);\n}\n",
            encoding="utf-8",
        )
        out = tmp_path / "run"
        argv = ["explore", "--ruleset", str(ruleset), "--scenario", str(scenario),
                "--seed", "3", "--iterations", "4", "--expansions", "20", "--out", str(out)]
        assert main(argv) == 0
        sales = [
            t.final_state.transfer
            for t in read_jsonl(out / "trajectories.jsonl").trajectories
            if t.final_state.transfer is not None
        ]
        assert sales and all(sale.seller == "p" for sale in sales)

    @pytest.mark.parametrize("defect", sorted(TRAJECTORY_DEFECTS))
    def test_malformed_trajectory_file_rejected(
        self, pipeline_dir, tmp_path, capsys, defect
    ):
        message = _write_defect(pipeline_dir, tmp_path, defect)
        assert main(["profile", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "corrupt trajectory file" in err
        assert message in err

    @pytest.mark.parametrize("stage", ["stats", "induce", "policy"])
    def test_every_loader_rejects_a_mistyped_record_field(
        self, pipeline_dir, tmp_path, capsys, stage
    ):
        """A mistyped field, a repeated id, and a transfer payment that is not
        the record's sale, from which the final state's sale is read."""
        run = tmp_path / "run"
        shutil.copytree(pipeline_dir, run)
        for defect in (
            "assessment-tax-due-not-a-number",
            "id-repeated",
            "transfer-payment-removed",
            "transfer-payment-moved",
            "transfer-payment-from-a-non-party",
        ):
            message = _write_defect(pipeline_dir, run, defect)
            assert main([stage, "--out", str(run)]) == 1, defect
            err = capsys.readouterr().err
            assert "corrupt trajectory file" in err
            assert message in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("defect", sorted(HYPOTHESIS_DEFECTS))
    @pytest.mark.parametrize("stage", ["graph", "policy"])
    def test_malformed_hypothesis_file_rejected(
        self, pipeline_dir, tmp_path, capsys, defect, stage
    ):
        path, value = HYPOTHESIS_DEFECTS[defect]
        doc = json.loads((pipeline_dir / "hypothesis.json").read_text())
        text = _bare(json.dumps(_replaced(doc, path, value)))
        (tmp_path / "hypothesis.json").write_text(text)
        shutil.copy(pipeline_dir / "trajectories.jsonl", tmp_path)
        assert main([stage, "--out", str(tmp_path)]) == 1
        assert "corrupt hypothesis file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "manifest_text",
        [
            "[]\n",
            '{"stages": []}\n',
            '{"stages": [\n',
            '{"format": 2}\n',
            '{"format": 1, "stages": {}}\n',
            '{"format": 1, "tool": "loophound", "version": "0", "stages": {"explore": 5}}\n',
            '{"format": 1, "tool": "loophound", "version": "0", "stages": {}, "x": NaN}\n',
            '{"format": 1, "tool": "loophound", "version": "0", "stages": {}, "x": 1e999}\n',
            _bare('{"stages": "[nested]"}\n'),
        ],
        ids=[
            "not-an-object", "stages-not-an-object", "invalid-json", "format-2",
            "tool-missing", "stage-not-an-object", "nan", "number-too-large", "nested",
        ],
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

    def write_profile(self, toy_run_dir, tmp_path, defect):
        """A run directory holding the toy run's trajectories and the
        ``defect`` profile of PROFILE_DEFECTS."""
        run = tmp_path / "run"
        run.mkdir()
        (run / "trajectories.jsonl").write_bytes(
            (toy_run_dir / "trajectories.jsonl").read_bytes()
        )
        (run / "profile.csv").write_text(PROFILE_DEFECTS[defect])
        return run

    @pytest.mark.parametrize("defect", sorted(PROFILE_DEFECTS))
    def test_malformed_profile_rejected(self, toy_run_dir, tmp_path, capsys, defect):
        run = self.write_profile(toy_run_dir, tmp_path, defect)
        assert main(["stats", "--out", str(run)]) == 1
        assert "corrupt profile file" in capsys.readouterr().err

    @pytest.mark.parametrize("defect", sorted(PROFILE_DEFECTS))
    def test_induce_rejects_a_malformed_profile(
        self, toy_run_dir, tmp_path, capsys, defect
    ):
        # without --u-plus, induce reads its threshold off the profile
        run = self.write_profile(toy_run_dir, tmp_path, defect)
        assert main(["induce", "--out", str(run)]) == 1
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


class TestAtomicWrites:
    # writer that fails -> profile's --min-distance: 5 writes the run's own
    # profile.csv again, 1 a profile of more segments than the run recorded
    @pytest.mark.parametrize("writer, min_distance", [
        pytest.param("write_profile_csv", "5", id="write_profile_csv"),
        pytest.param("write_json", "5", id="write_json"),
        pytest.param("write_json", "1", id="write_json-new-profile"),
    ])
    def test_failed_write_leaves_the_previous_file(
        self, pipeline_dir, tmp_path, monkeypatch, capsys, writer, min_distance
    ):
        run = tmp_path / "run"
        shutil.copytree(pipeline_dir, run)
        before = {p.name: p.read_bytes() for p in run.iterdir()}

        def torn_write(*args):
            args[-1].write_text("index,utility,traj")
            raise OSError(28, "No space left on device")

        # the stage writes profile.csv, then manifest.json
        monkeypatch.setattr(cli, writer, torn_write)
        assert main(["profile", "--min-distance", min_distance, "--out", str(run)]) == 2
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before
        out, err = capsys.readouterr()
        assert "No space left on device" in err
        # nor does it print its success line
        assert out == ""


class TestTracedNames:
    """perfbench/traced_stage.py traces a stage by setting a wrapper in
    place of a function on ``loophound.cli``; the commands must call it."""

    def test_every_name_resolves_in_a_fresh_interpreter(self):
        script = (
            "import loophound.cli as cli; "
            f"print(*[callable(getattr(cli, name)) for name in {TRACED_CLI_NAMES!r}])"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True"] * len(TRACED_CLI_NAMES)

    @pytest.mark.parametrize("name", TRACED_CLI_NAMES)
    def test_a_wrapper_set_on_the_module_is_called(
        self, pipeline_dir, tmp_path, monkeypatch, name
    ):
        run = tmp_path / "run"
        shutil.copytree(pipeline_dir, run)
        wrapped = getattr(cli, name)
        calls = []

        def spy(*args, **kwargs):
            calls.append(name)
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
        assert main(_stage_argv(TRACED_STAGES[name], run)) == 0
        assert calls


class TestMissingCorpus:
    """A bundled document that cannot be found fails only the stage that
    reads it: explore's defaults are looked up when it runs."""

    @pytest.fixture
    def no_corpus(self, monkeypatch):
        def missing(name):
            raise FileNotFoundError(f"no bundled corpus file named {name!r}")

        monkeypatch.setattr(cli, "corpus_path", missing)

    def test_graph_still_runs(self, no_corpus, pipeline_dir, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(pipeline_dir, run)
        assert main(["graph", "--out", str(run)]) == 0
        assert (run / "scheme.dot").read_bytes() == (pipeline_dir / "scheme.dot").read_bytes()

    def test_explore_without_paths_exits_2(self, no_corpus, tmp_path, capsys):
        assert main(["explore", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: no bundled corpus file named 'table1.lhl'"]
        assert not (tmp_path / "trajectories.jsonl").exists()

    def test_help_names_the_bundled_documents(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["explore", "--help"])
        assert exit_info.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "(default: the bundled table1.lhl)" in out
        assert "(default: the bundled scenario.lhl)" in out


class TestValidationErrors:
    def test_zero_iterations(self, tmp_path, capsys):
        code = main(["explore", "--iterations", "0", "--out", str(tmp_path)])
        assert code == 1
        assert "iterations" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value,field", [("--beta", "inf", "beta"), ("--tau0", "nan", "tau0")]
    )
    def test_non_finite_search_parameter(self, tmp_path, capsys, flag, value, field):
        code = main(["explore", flag, value, "--out", str(tmp_path)])
        assert code == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "trajectories.jsonl").exists()

    def _explore_toy(self, tmp_path, toy_files, action_cost):
        """``explore`` over the toy world with its ``set action_cost``
        statement replaced; returns the exit code."""
        ruleset, _ = toy_files
        scenario = tmp_path / "scenario.lhl"
        scenario.write_text(
            TOY_SCENARIO.replace("set action_cost 1.", f"set action_cost {action_cost}."),
            encoding="utf-8",
        )
        return main(
            ["explore", "--ruleset", str(ruleset), "--scenario", str(scenario),
             "--seed", "3", "--iterations", "4", "--expansions", "20",
             "--out", str(tmp_path / "run")]
        )

    def test_non_positive_action_cost(self, tmp_path, capsys, toy_files):
        # the search's cost per action comes from the scenario, not a flag
        assert self._explore_toy(tmp_path, toy_files, "0") == 1
        err = capsys.readouterr().err
        assert "9:5: error: action_cost outside (0, inf): 0.0" in err
        assert not (tmp_path / "run" / "trajectories.jsonl").exists()

    def test_action_cost_is_charged_per_action(self, tmp_path, toy_files):
        assert self._explore_toy(tmp_path, toy_files, "2") == 0
        tset = read_jsonl(tmp_path / "run" / "trajectories.jsonl")
        assert tset.cost_coefficient == 2.0
        assert tset.trajectories
        for t in tset.trajectories:
            assert t.phi == 2 * t.length
            assert t.utility == t.p - t.phi

    def test_profile_without_complete_trajectories(self, tmp_path, capsys, toy_files):
        # the toy world needs two actions before both markets earn
        ruleset, scenario = toy_files
        out = tmp_path / "run"
        argv = ["explore", "--ruleset", str(ruleset), "--scenario", str(scenario),
                "--seed", "3", "--iterations", "4", "--expansions", "20",
                "--max-steps", "1", "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["profile", "--out", str(out)]) == 1
        assert "no complete trajectories" in capsys.readouterr().err
        assert not (out / "profile.csv").exists()

    def test_min_distance_below_one(self, tmp_path, capsys):
        assert main(["profile", "--min-distance", "0", "--out", str(tmp_path)]) == 1
        assert "--min-distance" in capsys.readouterr().err

    def test_non_positive_peak_height(self, tmp_path, capsys):
        for height in ("0", "nan", "inf"):
            code = main(
                ["profile", "--peak-height", height, "--out", str(tmp_path)]
            )
            assert code == 1
            assert "--peak-height" in capsys.readouterr().err

    def test_induce_needs_two_segments_for_its_default_u_plus(
        self, pipeline_dir, tmp_path, capsys
    ):
        run = tmp_path / "run"
        shutil.copytree(pipeline_dir, run)
        # a peak height above every drop cuts nowhere: one segment
        assert main(["profile", "--peak-height", "1e9", "--out", str(run)]) == 0
        assert main(["induce", "--out", str(run)]) == 1
        assert "single segment; supply --u-plus" in capsys.readouterr().err
        # one cut: the threshold is the top utility of the second segment
        assert main(["profile", "--min-distance", "1000", "--out", str(run)]) == 0
        with open(run / "profile.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert {row["segment_id"] for row in rows} == {"0", "1"}
        assert main(["induce", "--out", str(run)]) == 0
        top = next(float(row["utility"]) for row in rows if row["segment_id"] == "1")
        manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["stages"]["induce"]["u_plus"] == top

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

    @pytest.mark.parametrize("kind", ["mean_tax", "total_tax"])
    def test_a_welfare_kind_has_one_spelling(self, tmp_path, capsys, kind):
        # its policy.WELFARE_KINDS name
        assert main(["policy", "--welfare", kind, "--out", str(tmp_path)]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_welfare_help_names_every_kind(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["policy", "--help"])
        assert exited.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"one of {', '.join(WELFARE_KINDS)} (default: mean_tax_collected)" in help_text

    @pytest.mark.parametrize("kind", WELFARE_KINDS)
    def test_each_welfare_kind_scores_the_hypothesis(self, pipeline_dir, tmp_path, kind):
        for name in ("manifest.json", "trajectories.jsonl", "hypothesis.json"):
            shutil.copy(pipeline_dir / name, tmp_path / name)
        assert main(["policy", "--welfare", kind, "--out", str(tmp_path)]) == 0
        assert read_policy_report(tmp_path / "policy_report.json")["welfare"]["kind"] == kind


# corpus edit -> (document, text removed, text appended, part of the message);
# each edited pair of documents used to pass ``check`` and crash ``explore``
DOCUMENT_DEFECTS = {
    "missing-rate": (
        "table1.lhl", "rate bermuda 0.0.\n", "",
        "no statutory rate for scenario country 'bermuda'",
    ),
    "company-resident-nowhere": (
        "scenario.lhl", "", "company q.\n", "company 'q' is resident nowhere",
    ),
    "two-countries-of-incorporation": (
        "scenario.lhl", "", "fact based(p, germany).\n",
        "company 'p' is based in multiple countries",
    ),
    "effect-variable-not-a-parameter": (
        "table1.lhl", "",
        'action rentIP(Licensor, Renter, Ip) ref "upstream" {\n'
        "  pre: rentsIP(X, Licensor, Ip), exists(Renter), Licensor != Renter,\n"
        "       X != Renter, not rentsIP(_, Renter, Ip), not ownsIP(Renter, Ip);\n"
        "  eff: rentsIP(X, Renter, Ip);\n"
        "}\n",
        "effect variable 'X' in rentsIP(X, Renter, Ip) is not bound",
    ),
    # the seller and buyer of a sale are read off its ownsIP effects
    "transfer-without-a-seller": (
        "table1.lhl", "",
        'action transferIP(From, To, Ip) ref "gift" {\n'
        "  pre: ownsIP(From, Ip), exists(To), From != To;\n"
        "  eff: ownsIP(To, Ip);\n"
        "}\n",
        "transferIP must delete one ownsIP(Seller, Ip) and add one ownsIP(Buyer, Ip)",
    ),
    # a state holds only constants: an entity name is reported where it
    # stands, not when the search world is built
    "pool-id-not-a-constant": (
        "scenario.lhl", "pool c1 c2 c3.\n", "pool c1 c2 C3.\n",
        "company id 'C3' is not a constant",
    ),
    "country-not-a-constant": (
        "scenario.lhl", "", "country Atlantis haven.\n",
        "country id 'Atlantis' is not a constant",
    ),
    "ip-not-a-constant": (
        "scenario.lhl", "", "ip Patent.\n", "ip id 'Patent' is not a constant",
    ),
    # a company is taxed where it is resident
    "added-company-resident-nowhere": (
        "table1.lhl", "",
        'action addChild(P, fresh C) ref "x" {\n  pre: exists(P);\n  eff: exists(C);\n}\n',
        "exists(C) is added without a based or managed fact of 'C'",
    ),
    "effect-country-undeclared": (
        "table1.lhl", "",
        'action addChild(P, fresh C) ref "x" {\n'
        "  pre: exists(P);\n  eff: exists(C), based(C, narnia);\n}\n",
        "effect based(C, narnia) names country 'narnia', which the scenario does not declare",
    ),
}


class TestDocumentDefects:
    @pytest.mark.parametrize("command", ["check", "explore"])
    @pytest.mark.parametrize(
        "document,removed,appended,message",
        DOCUMENT_DEFECTS.values(),
        ids=DOCUMENT_DEFECTS.keys(),
    )
    def test_rejected_by_both_commands(
        self, tmp_path, command, document, removed, appended, message
    ):
        paths = {}
        for name in ("table1.lhl", "scenario.lhl"):
            text = corpus_path(name).read_text(encoding="utf-8")
            if name == document:
                assert removed in text
                text = text.replace(removed, "") + appended
            paths[name] = tmp_path / name
            paths[name].write_text(text, encoding="utf-8")
        ruleset, scenario = str(paths["table1.lhl"]), str(paths["scenario.lhl"])
        out = tmp_path / "run"
        argv = {
            "check": ["check", ruleset, scenario],
            "explore": ["explore", "--ruleset", ruleset, "--scenario", scenario,
                        "--iterations", "2", "--expansions", "5", "--out", str(out)],
        }[command]
        stderr = []
        assert _run_in_subprocess(argv, "numpy", stderr) == (1, False)
        (err,) = stderr
        assert "Traceback" not in err
        assert sum(message in line for line in err.splitlines()) == 1
        assert not (out / "trajectories.jsonl").exists()


# an action that, with the toy scenario, ``check`` accepted and ``explore``
# raised a library error on -> the line ``explore`` prints for it now
LIBRARY_ERRORS = {
    "added-company-resident-nowhere": (
        "exists(C)", "error: input documents failed validation"
    ),
    "effect-country-undeclared": (
        "exists(C), based(C, narnia)", "which the scenario does not declare"
    ),
    "parent-based-twice": (
        "exists(C), based(C, K), based(P, K)",
        "error: company 'p' is based in multiple countries",
    ),
}


class TestLibraryErrors:
    def _ruleset(self, tmp_path, effects):
        ruleset = tmp_path / "rules.lhl"
        params = "P, fresh C, K" if "K" in effects else "P, fresh C"
        ruleset.write_text(
            "rate usa 0.35.\nrate ireland 0.125.\n"
            f'action addChild({params}) ref "x" {{ pre: exists(P); eff: {effects}; }}\n',
            encoding="utf-8",
        )
        return str(ruleset)

    @pytest.mark.parametrize(
        "effects,line", LIBRARY_ERRORS.values(), ids=LIBRARY_ERRORS.keys()
    )
    def test_explore_exits_1_with_one_error_line(
        self, tmp_path, toy_files, capsys, effects, line
    ):
        _, scenario = toy_files
        argv = ["explore", "--ruleset", self._ruleset(tmp_path, effects),
                "--scenario", str(scenario), "--iterations", "3", "--expansions", "10",
                "--out", str(tmp_path / "run")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (error,) = [row for row in err.splitlines() if row.startswith("error: ")]
        assert line in error
        assert not (tmp_path / "run" / "trajectories.jsonl").exists()

    @pytest.mark.parametrize(
        "effects,diagnostic",
        [
            (
                "exists(C)",
                "3:1: error: action: addChild/x: exists(C) is added without "
                "a based or managed fact of 'C'",
            ),
            (
                "exists(C), based(C, narnia)",
                ": 3:1: action: addChild/x: effect based(C, narnia) names country "
                "'narnia', which the scenario does not declare",
            ),
        ],
    )
    def test_check_reports_the_rule(self, tmp_path, toy_files, capsys, effects, diagnostic):
        _, scenario = toy_files
        assert main(["check", self._ruleset(tmp_path, effects), str(scenario)]) == 1
        assert diagnostic in capsys.readouterr().err

    def test_an_error_of_another_package_raises(self, tmp_path, monkeypatch):
        def fail(*args):
            raise RuntimeError("a fault, not a refused input")

        monkeypatch.setattr(cli, "explore", fail)
        with pytest.raises(RuntimeError, match="a fault"):
            main(["explore", "--iterations", "2", "--out", str(tmp_path)])


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
        argv = ["profile", "--min-distance", "5", "--out", str(run)]
        assert _run_in_subprocess(argv, "scipy") == (0, False)
        # the stage segmented the profile again, to the same bytes
        want = (pipeline_dir / "profile.csv").read_bytes()
        assert (run / "profile.csv").read_bytes() == want

    def test_import_leaves_numpy_unloaded(self):
        # numpy takes longer to import than the whole package; only the
        # search's frontier sampling needs it
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, loophound.cli; print('numpy' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_check_leaves_numpy_unloaded(self):
        argv = ["check", str(corpus_path("table1.lhl")), str(corpus_path("scenario.lhl"))]
        assert _run_in_subprocess(argv, "numpy") == (0, False)

    @pytest.mark.parametrize("stage", sorted(ANALYSIS_OUTPUTS))
    def test_analysis_stage_leaves_numpy_unloaded(self, pipeline_dir, tmp_path, stage):
        run = tmp_path / "run"
        shutil.copytree(pipeline_dir, run)
        argv = [stage, *ANALYSIS_FLAGS.get(stage, []), "--out", str(run)]
        assert _run_in_subprocess(argv, "numpy") == (0, False)
        for name in ANALYSIS_OUTPUTS[stage]:
            assert (run / name).read_bytes() == (pipeline_dir / name).read_bytes()

    @pytest.mark.parametrize("stage", sorted(STAGE_UNLOADED))
    def test_stage_loads_only_its_layers(self, pipeline_dir, tmp_path, stage):
        run = tmp_path / "run"
        shutil.copytree(pipeline_dir, run)
        unloaded = STAGE_UNLOADED[stage]
        code, loaded = _loaded_modules(_stage_argv(stage, run), (*unloaded, "numpy"))
        assert code == 0
        assert loaded & set(unloaded) == set()
        assert ("numpy" in loaded) == (stage == "explore")

    def test_explore_loads_numpy(self, tmp_path):
        argv = ["explore", "--seed", "7", "--iterations", "2", "--expansions", "5",
                "--out", str(tmp_path)]
        assert _run_in_subprocess(argv, "numpy") == (0, True)
