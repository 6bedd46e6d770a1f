"""Pipeline benchmark: runs a workload's ``loophound`` stages as a user does.

    python3 perfbench/run.py --workload reference --seed 7 --seconds 40 --trace 0

Each stage runs in a fresh process (``--threads 1``), one after another,
over a run directory under ``.perfbench/`` at the repository root, with the
package imported from ``src/``.  Wall time comes from this process's clock
and peak RSS from the stage's own rusage (``os.wait4``).

``--trace 0`` sets up each of the workload's search seeds (the benchmark
seed and seeds derived from it), runs the timed stages once per seed, then
round robin while another pass fits in ``--seconds``.  ``explore_s`` is the
median of every explore in the run; the other end-to-end metrics are each
seed's median, averaged over the seeds.  ``--trace 1`` sets up the
benchmark seed alone, runs its timed stages once untraced, then all six
stages traced (``traced_stage.py``), and reports the per-layer metrics.
Every stage's outputs are checked.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--shape reference`` runs at the paper's scale, without the per-run time
limit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import workloads as wl
from spans import SpanTable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CORPUS = SRC / "loophound" / "corpus"
ENTRY = "import sys; from loophound.cli import main; sys.exit(main())"
RUN_LIMIT_S = 170.0  # stages still running this long after start are killed


class StageFailed(Exception):
    pass


class Runner:
    """Runs stages in fresh processes and keeps the attempted/failed tally."""

    def __init__(self, work: Path, deadline: float | None) -> None:
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.log = work / "stages.log"

    def _spawn(self, cmd: list[str]) -> tuple[float, float, int]:
        """Wall seconds, peak RSS in MB and exit code of one child process."""
        with open(self.log, "ab") as log:
            log.write(("$ " + " ".join(cmd) + "\n").encode())
            log.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT
            )
            timer = None
            if self.deadline is not None:
                timer = threading.Timer(max(0.0, self.deadline - start), proc.kill)
                timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                if timer is not None:
                    timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def fail(self, what: str, problems: list[str]):
        """Count one failed stage and stop the run."""
        self.failed += 1
        self.problems += [f"{what}: {p}" for p in problems]
        raise StageFailed(what)

    def stage(self, args: list[str], check, spans: Path | None = None) -> dict:
        """Run one stage, then ``check()`` its outputs; raise StageFailed on
        a non-zero exit or a failed check."""
        self.attempted += 1
        if spans is None:
            cmd = [sys.executable, "-c", ENTRY, *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced_stage.py"), str(spans), *args]
        wall, rss, code = self._spawn(cmd)
        problems = [f"exit code {code}"] if code != 0 else []
        facts: dict = {}
        if not problems:
            try:
                facts, problems = check()
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.fail(args[0], problems)
        return {"stage": args[0], "wall_s": wall, "rss_mb": rss, **facts}


class SearchRun:
    """One search seed of a workload: its set-up, then passes over its run
    directory."""

    def __init__(
        self, runner: Runner, spec: wl.Workload, shape: str, seed: int, base: Path
    ) -> None:
        self.runner = runner
        self.spec = spec
        self.shape = shape
        self.seed = seed
        self.base = base
        self.expected = wl.EXPECTED.get((spec.name, shape, seed), {})
        self.inputs: tuple[Path, Path] | None = None
        self.u_plus: float | None = None
        self.explore_facts: dict = {}
        self.setup_explore_s: float | None = None

    def _stage(self, stage: str, run_dir: Path, spans: Path | None = None) -> dict:
        args = wl.stage_args(stage, run_dir, self.inputs, self.shape, self.seed, self.u_plus)
        complete = self.explore_facts.get("complete")
        result = self.runner.stage(
            args,
            lambda: wl.check_stage(stage, run_dir, self.expected, complete),
            spans,
        )
        if stage == "explore":
            if self.explore_facts and result["sha256"] != self.explore_facts["sha256"]:
                self.runner.fail(
                    "explore", [f"seed {self.seed} wrote different trajectories.jsonl bytes"]
                )
            self.explore_facts = {k: result[k] for k in ("sha256", "complete")}
        return result

    def setup(self) -> float:
        """Generate the inputs (and, where the workload says so, build the
        run directory); returns the seconds it took."""
        start = time.perf_counter()
        try:
            self.inputs = wl.write_inputs(CORPUS, self.spec.ruleset, self.base / "inputs")
        except ValueError as exc:
            self.runner.attempted += 1
            self.runner.fail("inputs", [str(exc)])
        args = wl.stage_args("check", self.base, self.inputs, self.shape, self.seed)
        self.runner.stage(args, lambda: ({}, []))
        for stage in self.spec.setup:
            result = self._stage(stage, self.base / "run")
            if stage == "explore":
                self.setup_explore_s = result["wall_s"]
        if self.spec.broad:
            self.u_plus = wl.broad_threshold(self.base / "run")
        return time.perf_counter() - start

    def timed_pass(self) -> list[dict]:
        return [self._stage(stage, self.base / "run") for stage in self.spec.timed]

    def traced_pass(self) -> list[dict]:
        """All six stages traced, in a run directory of their own.

        A child's peak RSS includes what this process had resident when it
        spawned the child, so the span tables are loaded only after the
        last stage has ended.
        """
        results = [
            self._stage(stage, self.base / "traced", self.base / f"spans-{stage}.npz")
            for stage in wl.STAGES
        ]
        for result in results:
            result["spans"] = SpanTable.load(self.base / f"spans-{result['stage']}.npz")
        return results


# ============================================================================
# Metrics
# ============================================================================


def end_to_end(setup_times: list[float], passes: list[list[list[dict]]]) -> dict:
    """Medians over each seed's passes, averaged over the run's seeds.

    ``explore_s`` is the median over every pass of every seed instead: an
    explore does nearly the same work on each seed (apply_action calls vary
    about 2%), so one slow pass should not pull the run's value.
    """

    def per_seed(value) -> float:
        return statistics.fmean(statistics.median(map(value, p)) for p in passes)

    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pipeline_s": (per_seed(lambda p: sum(s["wall_s"] for s in p)), "s"),
        "peak_rss_mb": (per_seed(lambda p: max(s["rss_mb"] for s in p)), "MB"),
    }
    if passes[0][0][0]["stage"] == "explore":
        explores = [p[0]["wall_s"] for seed_passes in passes for p in seed_passes]
        metrics["explore_s"] = (statistics.median(explores), "s")
    return metrics


def per_layer(traced: list[dict], split: dict[str, float], untraced_explore_s: float) -> dict:
    """Per-layer metrics of a traced pass; ``split`` is ``explore_split(traced)``."""
    by_stage = {s["stage"]: s for s in traced}
    tables = [s["spans"] for s in traced]
    ex = by_stage["explore"]["spans"]
    induce = by_stage["induce"]["spans"]
    analysis = [by_stage[name] for name in wl.ANALYSIS]

    def summed(method: str, name: str) -> float:
        return sum(getattr(t, method)(name) for t in tables)

    m: dict = {"cli.import_s": (statistics.median(t.total("cli.import") for t in tables), "s")}
    for stage in wl.STAGES:
        m[f"cli.{stage}_s"] = (by_stage[stage]["wall_s"], "s")
        m[f"cli.{stage}_rss_mb"] = (by_stage[stage]["rss_mb"], "MB")
    m["cli.analysis_s"] = (sum(s["wall_s"] for s in analysis), "s")
    m["cli.analysis_peak_rss_mb"] = (max(s["rss_mb"] for s in analysis), "MB")
    m["dsl.parse_s"] = (ex.total("dsl.parse"), "s")
    apply_calls = ex.calls("kernel.apply_action")
    m.update({
        "explorer.explore_s": (ex.total("explorer.explore"), "s"),
        "explorer.self_s": (
            sum(v for k, v in split.items() if k.startswith("explorer.")), "s"
        ),
        "explorer.selection_s": (ex.total("explorer.selection"), "s"),
        "explorer.write_jsonl_s": (ex.total("explorer.write_jsonl"), "s"),
        "explorer.trajectories_mb": (by_stage["explore"]["bytes"] / 1e6, "MB"),
        "explorer.read_jsonl_s": (summed("total", "explorer.read_jsonl"), "s"),
        "explorer.read_jsonl.calls": (summed("calls", "explorer.read_jsonl"), "count"),
        "explorer.new_state_ratio": (ex.counts["distinct_successors"] / apply_calls, "ratio"),
        "explorer.trajectories": (by_stage["explore"]["trajectories"], "count"),
        "explorer.complete": (by_stage["explore"]["complete"], "count"),
        "kernel.applicable_actions_s": (ex.total("kernel.applicable_actions"), "s"),
        "kernel.applicable_actions.calls": (ex.calls("kernel.applicable_actions"), "count"),
        "kernel.apply_action_s": (ex.total("kernel.apply_action"), "s"),
        "kernel.apply_action.calls": (apply_calls, "count"),
        "economy.settle_s": (ex.total("economy.settle"), "s"),
        "economy.settle.calls": (ex.calls("economy.settle"), "count"),
        "economy.complete_check_s": (ex.total("economy.complete_check"), "s"),
        "taxation.evaluate_state_s": (ex.total("taxation.evaluate_state"), "s"),
        "taxation.evaluate_state.calls": (ex.calls("taxation.evaluate_state"), "count"),
        "taxation.applicability_s": (ex.total("taxation.applicability"), "s"),
        "taxation.assess_self_s": (ex.self_total("taxation.evaluate_state"), "s"),
        "analytics.profile_s": (summed("total", "analytics.profile"), "s"),
        "analytics.frequency_table_s": (summed("total", "analytics.frequency_table"), "s"),
        "induction.build_background_s": (summed("total", "induction.build_background"), "s"),
        "induction.induce_s": (induce.total("induction.induce"), "s"),
        "induction.clause_covers.calls": (summed("calls", "induction.clause_covers"), "count"),
        "induction.evaluate_s": (induce.total("induction.evaluate"), "s"),
        "policy.delta_restriction_s": (summed("total", "policy.delta_restriction"), "s"),
        "trace.overhead_ratio": (by_stage["explore"]["wall_s"] / untraced_explore_s - 1.0, "ratio"),
    })
    return m


def explore_split(traced: list[dict]) -> dict[str, float]:
    """Self seconds per span name inside ``explore``, largest first."""
    ex = next(s for s in traced if s["stage"] == "explore")["spans"]
    split = ex.self_by_name("explorer.explore")
    return dict(sorted(split.items(), key=lambda kv: -kv[1]))


def environment() -> dict:
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "loadavg": list(os.getloadavg()),
    }


# ============================================================================
# Entry point
# ============================================================================


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shape", choices=sorted(wl.SHAPES), default="bench")
    return parser.parse_args(argv)


def measure(runner: Runner, spec: wl.Workload, args: argparse.Namespace) -> dict:
    seeds = wl.search_seeds(args.seed, 1 if args.trace else spec.seeds)
    runs = [
        SearchRun(runner, spec, args.shape, seed, runner.work / f"seed{i}")
        for i, seed in enumerate(seeds)
    ]
    setup_times = [run.setup() for run in runs]

    if args.trace:
        run = runs[0]
        untraced = run.timed_pass()
        traced = run.traced_pass()
        explore_s = [s["wall_s"] for s in untraced if s["stage"] == "explore"]
        split = explore_split(traced)
        total = sum(split.values())
        print(f"{spec.name}: self time inside explore", file=sys.stderr)
        for name, secs in split.items():
            print(f"  {name:28s} {secs:8.3f} s {100 * secs / total:5.1f}%", file=sys.stderr)
        return per_layer(traced, split, explore_s[0] if explore_s else run.setup_explore_s)

    # every seed once, then round robin while another pass fits in the time
    passes: list[list[list[dict]]] = [[] for _ in runs]
    start = time.perf_counter()
    done = 0
    while True:
        passes[done % len(runs)].append(runs[done % len(runs)].timed_pass())
        done += 1
        elapsed = time.perf_counter() - start
        if done >= len(runs) and elapsed * (done + 1) / done > args.seconds:
            break
    for run, seed_passes in zip(runs, passes):
        for p in seed_passes:
            stages = ", ".join(f"{s['stage']} {s['wall_s']:.2f} s" for s in p)
            print(f"{spec.name} seed {run.seed}: {stages}", file=sys.stderr)
    return end_to_end(setup_times, passes)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "loophound" / "cli.py").is_file():
        print(f"error: no loophound sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    work = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = None if args.shape == "reference" else started + RUN_LIMIT_S
    runner = Runner(work, deadline)
    print("environment: " + json.dumps(environment()))
    metrics: dict = {}
    try:
        metrics = measure(runner, wl.WORKLOADS[args.workload], args)
    except StageFailed:
        log = runner.log.read_text(encoding="utf-8", errors="replace").splitlines()
        print("\n".join(log[-40:]), file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"benchmark process peak RSS {own_mb:.1f} MB", file=sys.stderr)
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
