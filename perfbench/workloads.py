"""Workloads of the pipeline benchmark: their inputs, stage flags and output checks.

Every workload runs ``loophound`` stages over one run directory.  The
benchmark seed is the ``explore --seed``; everything else a workload needs
(the ruleset, the induction threshold) is derived from the bundled corpus
and from earlier stages' outputs, so the same seed gives the same inputs.
Why each workload exists is written down in README.md beside this file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

STAGES = ("explore", "profile", "stats", "induce", "policy", "graph")
ANALYSIS = STAGES[1:]

# Search shapes (iterations x expansions).  ``reference`` is the paper's
# scale and the CLI default; ``bench`` keeps its 50 iterations, and so its
# breadth-to-exploitation schedule, at a fraction of the expansions, so one
# run fits the benchmark's time budget; ``desk`` is the quick-check scale.
SHAPES = {
    "reference": (50, 1000),
    "bench": (50, 60),
    "desk": (20, 200),
}

# A run explores several search seeds derived from the benchmark seed, the
# first being the benchmark seed itself; their spacing keeps the seeds of
# nearby benchmark seeds apart.
SEED_STRIDE = 1_000_003


def search_seeds(seed: int, count: int) -> list[int]:
    return [seed + i * SEED_STRIDE for i in range(count)]


# ``table1.lhl`` with its eight reduction blocks removed.
STATUTORY_RULESET_SHA256 = "d5ac1933c99420b62e1d16ea9be830b433775b5de3131c862bed2517adf5eb88"


@dataclass(frozen=True)
class Workload:
    name: str
    ruleset: str  # "table1" or "statutory"
    setup: tuple[str, ...]  # stages that build the run directory in set-up
    timed: tuple[str, ...]  # stages the pipeline times
    seeds: int = 3  # search seeds per run, each set up once
    broad: bool = False  # induce at the 75th-percentile threshold, beam 16


WORKLOADS = {
    w.name: w
    for w in (
        Workload("reference", "table1", (), STAGES),
        Workload("statutory", "statutory", (), ("explore",)),
        # Runs by hand, usually with --shape reference; BENCHMARK.json leaves
        # it out (README.md says why).
        Workload(
            "broad_induction",
            "table1",
            ("explore", "profile"),
            ("induce", "policy", "graph"),
            seeds=2,
            broad=True,
        ),
    )
}


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ============================================================================
# Input generators
# ============================================================================

_REDUCTION_BLOCK = re.compile(
    r"(?:^#[^\n]*\n)*^reduction\b[^{]*\{.*?^\}\n", re.MULTILINE | re.DOTALL
)


def statutory_ruleset(table1_text: str) -> str:
    """The ruleset with every ``reduction`` block (and the comment lines
    directly above it) removed; rates and actions are kept verbatim."""
    return _REDUCTION_BLOCK.sub("", table1_text)


def write_inputs(corpus_dir: Path, ruleset: str, inputs_dir: Path) -> tuple[Path, Path]:
    """Write the workload's ruleset and scenario documents into ``inputs_dir``."""
    inputs_dir.mkdir(parents=True, exist_ok=True)
    text = (corpus_dir / "table1.lhl").read_text(encoding="utf-8")
    if ruleset == "statutory":
        text = statutory_ruleset(text)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != STATUTORY_RULESET_SHA256:
            raise ValueError(
                f"derived statutory ruleset has sha256 {digest}, "
                f"expected {STATUTORY_RULESET_SHA256}"
            )
    ruleset_path = inputs_dir / "ruleset.lhl"
    scenario_path = inputs_dir / "scenario.lhl"
    ruleset_path.write_text(text, encoding="utf-8")
    scenario_path.write_text(
        (corpus_dir / "scenario.lhl").read_text(encoding="utf-8"), encoding="utf-8"
    )
    return ruleset_path, scenario_path


def broad_threshold(run_dir: Path) -> float:
    """75th percentile of the complete-plan utilities in profile.csv."""
    import numpy as np

    utilities = [float(row["utility"]) for row in _rows(run_dir / "profile.csv")]
    return float(np.percentile(utilities, 75))


def stage_args(
    stage: str,
    run_dir: Path,
    inputs: tuple[Path, Path],
    shape: str,
    seed: int,
    u_plus: float | None = None,
) -> list[str]:
    """Command-line arguments of one ``loophound`` stage."""
    if stage == "check":
        return ["check", str(inputs[0]), str(inputs[1])]
    args = [stage, "--out", str(run_dir)]
    if stage == "explore":
        iterations, expansions = SHAPES[shape]
        args += [
            "--ruleset", str(inputs[0]),
            "--scenario", str(inputs[1]),
            "--seed", str(seed),
            "--iterations", str(iterations),
            "--expansions", str(expansions),
            "--threads", "1",
        ]
    elif stage == "induce" and u_plus is not None:
        args += ["--u-plus", repr(u_plus), "--beam-width", "16"]
    return args


# ============================================================================
# Output checks
# ============================================================================

# Values pinned for (workload, shape, seed).  The reference-shape values are
# the paper-scale numbers; the bench-shape ones were recorded when the
# benchmark was defined.
EXPECTED = {
    ("reference", "bench", 7): {
        "sha256": "8ee107848c1002341472ae68acce842312184cfbfa86e2349c065b166df84417",
        "trajectories": 168,
        "complete": 26,
        "clauses": [
            "managed(A, netherlands)",
            "managed(A, bermuda), rentsIP(A, B, Ip0), rentsIP(B, D, Ip0)",
        ],
        "delta_h": 22.784373,
    },
    ("statutory", "bench", 7): {
        "sha256": "e4f5e96427cde9dd2b65275f9dcd77f72fffbf604981a3831bbbc5ed6d828832",
        "trajectories": 153,
        "complete": 35,
    },
    ("reference", "reference", 7): {
        "sha256": "c3f49707f531da42fbf7ecfe4c2a89188d499479ff1263d4059f4c8a114a03f7",
        "trajectories": 11003,
        "complete": 1521,
        "clauses": [
            "managed(A, bermuda), ownsIP(A, Ip0), rentsIP(A, B, Ip0), rentsIP(B, D, Ip0)"
        ],
        "delta_h": 1.281573,
    },
    ("statutory", "reference", 7): {
        "sha256": "99c33885c6a9f58b70f02754f3ecc867265ef577882545637f61756544a73cfc",
        "trajectories": 9846,
        "complete": 1614,
    },
    ("broad_induction", "reference", 7): {
        "trajectories": 11003,
        "complete": 1521,
        "clause_count": 5,
        "f1": 0.8539,
        "delta_h": 45.627463,
    },
}


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def check_stage(
    stage: str, run_dir: Path, expected: dict, complete: int | None = None
) -> tuple[dict, list[str]]:
    """Facts read from one stage's outputs, and what is wrong with them.

    ``expected`` holds pinned values; ``complete`` is the number of complete
    trajectories the explore check counted in this run directory.
    """
    facts: dict = {}
    problems: list[str] = []
    if stage == "explore":
        path = run_dir / "trajectories.jsonl"
        # one record at a time: this process must stay small (see
        # run.SearchRun.traced_pass)
        with open(path, encoding="utf-8") as handle:
            header = json.loads(handle.readline())
            completes = [json.loads(line)["complete"] for line in handle if line.strip()]
        facts["sha256"] = sha256_file(path)
        facts["bytes"] = path.stat().st_size
        facts["trajectories"] = len(completes)
        facts["complete"] = sum(completes)
        if header.get("trajectory_count") != len(completes):
            problems.append(
                f"header counts {header.get('trajectory_count')} trajectories, "
                f"file holds {len(completes)}"
            )
        if facts["complete"] == 0:
            problems.append("no complete trajectory")
        for key in ("sha256", "trajectories", "complete"):
            if key in expected and facts[key] != expected[key]:
                problems.append(f"{key} {facts[key]} != expected {expected[key]}")
    elif stage == "profile":
        rows = len(_rows(run_dir / "profile.csv"))
        if rows != complete:
            problems.append(f"profile has {rows} rows for {complete} complete plans")
    elif stage == "stats":
        if not _rows(run_dir / "stats.csv"):
            problems.append("stats.csv has no rows")
    elif stage == "induce":
        hypothesis = json.loads((run_dir / "hypothesis.json").read_text(encoding="utf-8"))
        clauses = [
            ", ".join(
                f"{lit['predicate']}({', '.join(lit['args'])})" for lit in clause["body"]
            )
            for clause in hypothesis["clauses"]
        ]
        facts["clauses"] = clauses
        facts["f1"] = hypothesis["overall_metrics"]["f1"]
        if not clauses:
            problems.append("empty hypothesis")
        if "clauses" in expected and clauses != expected["clauses"]:
            problems.append(f"clauses {clauses} != expected {expected['clauses']}")
        if "clause_count" in expected and len(clauses) != expected["clause_count"]:
            problems.append(f"{len(clauses)} clauses, expected {expected['clause_count']}")
        if "f1" in expected and round(facts["f1"], 4) != expected["f1"]:
            problems.append(f"f1 {facts['f1']:.4f} != expected {expected['f1']}")
    elif stage == "policy":
        report = json.loads((run_dir / "policy_report.json").read_text(encoding="utf-8"))
        delta = report.get("Delta_H")
        facts["delta_h"] = delta
        if not isinstance(delta, (int, float)) or not math.isfinite(delta):
            problems.append(f"Delta_H is {delta!r}")
        elif "delta_h" in expected and round(delta, 6) != expected["delta_h"]:
            problems.append(f"Delta_H {delta:.6f} != expected {expected['delta_h']}")
    elif stage == "graph":
        if not _rows(run_dir / "scheme_edges.csv"):
            problems.append("scheme graph has no edges")
    return facts, problems
