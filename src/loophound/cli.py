"""Command-line pipeline: check, explore, profile, stats, induce, policy, graph.

Each pipeline stage reads and writes files in a run directory (``--out``):

* explore  -> trajectories.jsonl
* profile  -> profile.csv           (requires trajectories.jsonl)
* stats    -> stats.csv             (requires trajectories.jsonl, profile.csv)
* induce   -> hypothesis.json/.txt  (requires trajectories.jsonl, and profile.csv
                                     unless --u-plus is given)
* policy   -> policy_report.json    (requires trajectories.jsonl, hypothesis.json)
* graph    -> scheme.dot, scheme_edges.csv (requires hypothesis.json)

Every stage records itself in the single manifest.json of the run directory.
The files' names, formats, readers and writers live in
:mod:`~loophound.runfiles`.  One function (:func:`_run_stage`) runs every
stage: a command checks its arguments, then hands it its inputs and its
compute function.  It reads the manifest and each input through one loader
(:func:`_load`) and calls the compute function.  It writes every
output, and then the manifest, to a temporary sibling, and moves them into
place only when all are written.  Exit codes: 0 success, 1 validation or
usage error (a malformed input file included, and an error of a class the
``loophound`` package defines, raised in any stage), 2 IO error, 3
stage-order violation (a prerequisite stage's output is missing).

A stage imports only the layers it runs, when it runs:

* check    -> :mod:`~loophound.dsl` (with the kernel, economy, taxation and
  the join plan its rules are checked with; no code is generated)
* explore  -> that, :mod:`~loophound.runfiles`, :mod:`~loophound.explorer`
  and numpy
* profile, stats -> :mod:`~loophound.runfiles` and
  :mod:`~loophound.analytics` (with :mod:`~loophound.explorer`, whose
  percentile it takes)
* induce, graph  -> :mod:`~loophound.runfiles` and
  :mod:`~loophound.induction` (induce reads profile.csv with
  :mod:`~loophound.analytics` too)
* policy   -> those and :mod:`~loophound.policy`

The functions, classes and names the commands use are attributes of this
module, imported and bound on their first lookup (the module
``__getattr__``), and the commands look them up on the module: a function
set here in place of one, as ``perfbench/traced_stage.py`` sets its tracing
wrappers, is what runs.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

from . import __version__, corpus_path

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_STAGE_ORDER = 3

# the stage functions, classes and names the commands use, by the module
# that defines them; the commands look each up through _cli, this module
_LAZY = {
    "dsl": ("parse_ruleset", "parse_scenario", "rate_problem"),
    "explorer": ("explore",),
    "runfiles": (
        # the files of a run directory, and the search parameters it records
        "TRAJECTORIES_FILE", "PROFILE_FILE", "STATS_FILE", "HYPOTHESIS_JSON",
        "HYPOTHESIS_TEXT", "POLICY_FILE", "DOT_FILE", "EDGES_FILE", "MANIFEST_FILE",
        "INPUTS", "SearchParams",
        # their readers and writers
        "read_jsonl", "write_jsonl", "read_profile_csv", "write_profile_csv",
        "write_stats_csv", "read_hypothesis_json", "write_hypothesis_json",
        "write_hypothesis_text", "write_policy_report", "write_dot", "write_edges_csv",
        "read_manifest", "write_json",
    ),
    "analytics": (
        "UnknownTrajectoryError",
        "detect_segments",
        "frequency_table",
        "utility_profile",
    ),
    "induction": (
        "InductionConfig",
        "build_background",
        "evaluate",
        "induce",
        "label",
        "scheme_graph",
    ),
    "policy": ("WELFARE_KINDS", "WelfareConfig", "delta_restriction"),
}
_HOMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    """The stage function, class or name ``name``, imported with its module
    and bound into this module on the first lookup."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __package__), name)
    globals()[name] = value
    return value


_cli = sys.modules[__name__]


class _WelfareKinds:
    """The choices of ``policy --welfare``, ``policy.WELFARE_KINDS``, read
    only when the option is checked or its help printed: building the
    parser imports no stage's layer."""

    def __iter__(self):
        return iter(_cli.WELFARE_KINDS)

    def __contains__(self, kind: object) -> bool:
        return kind in _cli.WELFARE_KINDS


class CliError(Exception):
    def __init__(self, message: str, exit_code: int) -> None:
        super().__init__(message)
        self.exit_code = exit_code


class _ArgumentParser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this tool reserves 2 for IO."""

    def error(self, message: str):  # noqa: A003 - argparse API
        raise CliError(f"{self.prog}: {message}", EXIT_VALIDATION)


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO) from exc


def _parse_documents(ruleset_path: Path, scenario_path: Path):
    ruleset_result = _cli.parse_ruleset(_read_text(ruleset_path))
    scenario_result = _cli.parse_scenario(_read_text(scenario_path))
    diagnostics = list(ruleset_result.diagnostics) + list(scenario_result.diagnostics)
    for diagnostic in diagnostics:
        print(str(diagnostic), file=sys.stderr)
    if not ruleset_result.ok or not scenario_result.ok:
        raise CliError("input documents failed validation", EXIT_VALIDATION)
    ruleset, scenario = ruleset_result.document, scenario_result.document
    problem = _cli.rate_problem(ruleset, scenario)
    if problem is not None:
        raise CliError(f"{ruleset_path}: {problem}", EXIT_VALIDATION)
    return ruleset, scenario


def _load(out_dir: Path, name: str):
    """The content of the stage input ``name``, read by its reader (see
    ``runfiles.INPUTS``): exit 3 when a stage's output is missing, 2 when
    the file cannot be read, and 1 when its content is malformed."""
    kind, producer, reader = _cli.INPUTS[name]
    path = out_dir / name
    if producer is not None and not path.exists():
        raise CliError(
            f"{path} not found; run the {producer} stage first", EXIT_STAGE_ORDER
        )
    try:
        return getattr(_cli, reader)(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO) from exc
    # ValueError: malformed content (runfiles.RunFileError), or bytes that
    # are not UTF-8 text
    except ValueError as exc:
        raise CliError(f"corrupt {kind} file {path}: {exc}", EXIT_VALIDATION) from exc


def _warn(warnings) -> None:
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _run_stage(args: argparse.Namespace, inputs: Sequence[str], compute) -> int:
    """Run the stage ``args.command`` in the run directory ``args.out``.

    ``compute(manifest, *loaded)`` takes the manifest (explore sets the
    document hashes in it) and the stage's ``inputs``, each read by
    :func:`_load`, in order, and returns the outputs as
    ``(file name, writer name, writer args)``, the stage's manifest record
    beside ``command``, its message line and its warnings.  Every output,
    then the manifest, is written by ``writer(*args, tmp)`` to a temporary
    sibling ``tmp``; only when all are written are they moved into place.
    A write that fails leaves every previous file as it was, and no
    temporary file behind.
    """
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create output directory {out_dir}: {exc}", EXIT_IO) from exc
    manifest = _load(out_dir, _cli.MANIFEST_FILE)
    outputs, record, message, warnings = compute(
        manifest, *[_load(out_dir, name) for name in inputs]
    )
    completed_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    manifest["stages"][args.command] = {
        "command": args.command, **record, "completed_at": completed_at
    }
    outputs = [*outputs, (_cli.MANIFEST_FILE, "write_json", (manifest,))]
    moves = []
    try:
        for name, writer, writer_args in outputs:
            path = out_dir / name
            tmp = path.with_name(f".{name}.{os.getpid()}.tmp")
            moves.append((tmp, path))
            getattr(_cli, writer)(*writer_args, tmp)
        for tmp, path in moves:
            os.replace(tmp, path)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_IO) from exc
    finally:
        for tmp, _path in moves:
            tmp.unlink(missing_ok=True)
    _warn(warnings)
    print(message)
    return EXIT_OK


# ============================================================================
# Commands
# ============================================================================


def cmd_check(args: argparse.Namespace) -> int:
    _parse_documents(Path(args.ruleset), Path(args.state))
    print("ok: ruleset and state parse and validate")
    return EXIT_OK


def cmd_explore(args: argparse.Namespace) -> int:
    # the bundled documents, when no path is given, are looked up here, so
    # that a missing one fails this stage alone
    ruleset_path = Path(
        corpus_path("table1.lhl") if args.ruleset is None else args.ruleset
    )
    scenario_path = Path(
        corpus_path("scenario.lhl") if args.scenario is None else args.scenario
    )
    ruleset, scenario = _parse_documents(ruleset_path, scenario_path)
    try:
        params = _cli.SearchParams(
            seed=args.seed,
            iterations=args.iterations,
            expansions=args.expansions,
            beta=args.beta,
            tau0=args.tau0,
            max_steps=args.max_steps,
        )
    except ValueError as exc:
        raise CliError(str(exc), EXIT_VALIDATION) from exc

    def compute(manifest):
        tset = _cli.explore(ruleset, scenario, params)
        manifest.update(ruleset_sha256=tset.ruleset_sha256, scenario_sha256=tset.scenario_sha256)
        complete = sum(1 for t in tset.trajectories if t.complete)
        record = {
            "config_paths": {"ruleset": str(ruleset_path), "scenario": str(scenario_path)},
            **asdict(params),
            "cost_coefficient": tset.cost_coefficient,
        }
        message = (
            f"explored {len(tset.trajectories)} trajectories ({complete} complete) "
            f"-> {Path(args.out, _cli.TRAJECTORIES_FILE)}"
        )
        return [(_cli.TRAJECTORIES_FILE, "write_jsonl", (tset,))], record, message, tset.warnings

    return _run_stage(args, [], compute)


def cmd_profile(args: argparse.Namespace) -> int:
    if args.min_distance < 1:
        raise CliError("--min-distance must be at least 1", EXIT_VALIDATION)
    height = args.peak_height
    if height is not None and not (math.isfinite(height) and height > 0):
        raise CliError("--peak-height must be positive and finite", EXIT_VALIDATION)

    def compute(_manifest, tset):
        profile = _cli.utility_profile(tset)
        if len(profile.values) == 0:
            raise CliError("no complete trajectories; cannot build a profile", EXIT_VALIDATION)
        segments = _cli.detect_segments(profile, height, args.min_distance)
        record = {"peak_height": height, "min_distance": args.min_distance,
                  "segments": len(segments)}
        message = (
            f"profile over {len(profile.values)} complete trajectories, "
            f"{len(segments)} segment(s) -> {Path(args.out, _cli.PROFILE_FILE)}"
        )
        return [(_cli.PROFILE_FILE, "write_profile_csv", (profile, segments))], record, message, ()

    return _run_stage(args, [_cli.TRAJECTORIES_FILE], compute)


def cmd_stats(args: argparse.Namespace) -> int:
    def compute(_manifest, tset, loaded_profile):
        try:
            table = _cli.frequency_table(tset, *loaded_profile)
        except _cli.UnknownTrajectoryError as exc:
            raise CliError(
                f"{exc}; {_cli.PROFILE_FILE} is older than {_cli.TRAJECTORIES_FILE}, "
                "run the profile stage again",
                EXIT_STAGE_ORDER,
            ) from exc
        message = (
            f"legal-reference frequencies for {table.segment_count} segment(s) "
            f"-> {Path(args.out, _cli.STATS_FILE)}"
        )
        outputs = [(_cli.STATS_FILE, "write_stats_csv", (table,))]
        return outputs, {"rows": len(table.rows)}, message, ()

    return _run_stage(args, [_cli.TRAJECTORIES_FILE, _cli.PROFILE_FILE], compute)


def cmd_induce(args: argparse.Namespace) -> int:
    def compute(_manifest, tset, loaded_profile=None):
        u_plus = args.u_plus
        if loaded_profile is not None:
            profile, segments = loaded_profile
            if len(segments) < 2:
                raise CliError(
                    "profile has a single segment; supply --u-plus explicitly", EXIT_VALIDATION
                )
            u_plus = profile.values[segments[0].stop]
        config = _cli.InductionConfig(
            u_plus=u_plus, max_literals=args.max_literals, beam_width=args.beam_width,
            max_clauses=args.max_clauses,
        )
        examples = _cli.label(tset, u_plus)
        background = _cli.build_background(tset, config)
        # printed before the search, which may refuse what they warn of
        _warn(list(examples.warnings) + list(background.warnings))
        hypothesis = _cli.induce(examples, background, config)
        overall = _cli.evaluate(hypothesis, examples, background)
        outputs = [
            (_cli.HYPOTHESIS_JSON, "write_hypothesis_json", (hypothesis, examples, overall)),
            (_cli.HYPOTHESIS_TEXT, "write_hypothesis_text", (hypothesis, overall)),
        ]
        record = {"u_plus": u_plus, "max_literals": args.max_literals,
                  "beam_width": args.beam_width, "max_clauses": args.max_clauses,
                  "clauses": len(hypothesis.clauses)}
        accuracy = "undefined" if overall.accuracy is None else f"{overall.accuracy:.4f}"
        f1 = "undefined" if overall.f1 is None else f"{overall.f1:.4f}"
        message = (
            f"{len(hypothesis.clauses)} clause(s), accuracy {accuracy}, f1 {f1} "
            f"-> {Path(args.out, _cli.HYPOTHESIS_JSON)}"
        )
        return outputs, record, message, hypothesis.warnings

    # profile.csv gives the default --u-plus, and is read only for it
    if args.u_plus is None:
        return _run_stage(args, [_cli.TRAJECTORIES_FILE, _cli.PROFILE_FILE], compute)
    return _run_stage(args, [_cli.TRAJECTORIES_FILE], compute)


def cmd_policy(args: argparse.Namespace) -> int:
    def compute(_manifest, tset, loaded_hypothesis):
        hypothesis, u_plus, _overall = loaded_hypothesis
        config = _cli.WelfareConfig(welfare_kind=args.welfare)
        examples = _cli.label(tset, u_plus)
        background = _cli.build_background(tset, _cli.InductionConfig(u_plus=u_plus))
        report = _cli.delta_restriction(tset, hypothesis, examples, background, config)
        delta = "undefined" if report.delta_h is None else f"{report.delta_h:.6f}"
        message = (
            f"welfare {report.welfare_kind}: Delta(H) = {delta}, verdict {report.verdict} "
            f"-> {Path(args.out, _cli.POLICY_FILE)}"
        )
        record = {"welfare": config.welfare_kind, "verdict": report.verdict}
        return [(_cli.POLICY_FILE, "write_policy_report", (report,))], record, message, ()

    return _run_stage(args, [_cli.TRAJECTORIES_FILE, _cli.HYPOTHESIS_JSON], compute)


def cmd_graph(args: argparse.Namespace) -> int:
    if args.top_k < 1:
        raise CliError("--top-k must be at least 1", EXIT_VALIDATION)

    def compute(_manifest, loaded_hypothesis):
        graph = _cli.scheme_graph(loaded_hypothesis[0], args.top_k)
        outputs = [(_cli.DOT_FILE, "write_dot", (graph,)),
                   (_cli.EDGES_FILE, "write_edges_csv", (graph,))]
        message = (
            f"{len(graph.edges)} edge(s) -> "
            f"{Path(args.out, _cli.DOT_FILE)}, {Path(args.out, _cli.EDGES_FILE)}"
        )
        return outputs, {"top_k": args.top_k, "edges": len(graph.edges)}, message, ()

    return _run_stage(args, [_cli.HYPOTHESIS_JSON], compute)


# ============================================================================
# Parser
# ============================================================================


def _add_out_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out", default=".", metavar="DIR", help="run directory (default: current)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="loophound",
        description="Explore incorporation trajectories, surface loopholes, "
        "learn scheme hypotheses, and score policy restrictions.",
    )
    parser.add_argument("--version", action="version", version=f"loophound {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="validate a ruleset and a state document")
    check.add_argument("ruleset", help="path to a .lhl ruleset document")
    check.add_argument("state", help="path to a .lhl scenario document")
    check.set_defaults(func=cmd_check)

    explore_cmd = commands.add_parser("explore", help="run the randomized trajectory search")
    explore_cmd.add_argument(
        "--ruleset", help="ruleset document path (default: the bundled table1.lhl)"
    )
    explore_cmd.add_argument(
        "--scenario", help="scenario document path (default: the bundled scenario.lhl)"
    )
    explore_cmd.add_argument("--seed", type=int, default=7)
    explore_cmd.add_argument("--iterations", type=int, default=50)
    explore_cmd.add_argument("--expansions", type=int, default=1000)
    explore_cmd.add_argument("--beta", type=float, default=0.01)
    explore_cmd.add_argument("--tau0", type=float, default=5.0)
    explore_cmd.add_argument("--max-steps", type=int, default=12)
    # the search runs in one thread; the flag is accepted and ignored so that
    # existing command lines keep working (perfbench/workloads.py passes it)
    explore_cmd.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    _add_out_flag(explore_cmd)
    explore_cmd.set_defaults(func=cmd_explore)

    profile_cmd = commands.add_parser("profile", help="utility profile and segmentation")
    profile_cmd.add_argument("--peak-height", type=float, default=None)
    profile_cmd.add_argument("--min-distance", type=int, default=100)
    _add_out_flag(profile_cmd)
    profile_cmd.set_defaults(func=cmd_profile)

    stats_cmd = commands.add_parser("stats", help="per-segment legal-reference frequencies")
    _add_out_flag(stats_cmd)
    stats_cmd.set_defaults(func=cmd_stats)

    induce_cmd = commands.add_parser("induce", help="learn a scheme hypothesis")
    induce_cmd.add_argument("--u-plus", type=float, default=None)
    induce_cmd.add_argument("--max-literals", type=int, default=7)
    induce_cmd.add_argument("--beam-width", type=int, default=64)
    induce_cmd.add_argument("--max-clauses", type=int, default=8)
    _add_out_flag(induce_cmd)
    induce_cmd.set_defaults(func=cmd_induce)

    policy_cmd = commands.add_parser("policy", help="welfare effect of restricting H")
    policy_cmd.add_argument(
        "--welfare",
        default="mean_tax_collected",
        choices=_WelfareKinds(),
        metavar="KIND",
        help="welfare evaluator: one of %(choices)s (default: %(default)s)",
    )
    _add_out_flag(policy_cmd)
    policy_cmd.set_defaults(func=cmd_policy)

    graph_cmd = commands.add_parser("graph", help="export the weighted scheme graph")
    graph_cmd.add_argument("--top-k", type=int, default=10)
    _add_out_flag(graph_cmd)
    graph_cmd.set_defaults(func=cmd_graph)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        # an error of a class this package defines is the library refusing
        # its input; any other is a fault, and raises
        if not type(exc).__module__.startswith(f"{__package__}."):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
