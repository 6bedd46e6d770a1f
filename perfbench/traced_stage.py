"""Run one ``loophound`` CLI stage with its layers traced from outside.

Usage: python3 traced_stage.py SPANS.npz STAGE [STAGE ARGS...]

The import of ``loophound.cli`` and the stage itself become spans; each
function in ``TRACED`` is replaced, on the module whose namespace its caller
looks it up in, by a wrapper that records a span per call.  The program's
own code is not changed.  Spans stay in memory and are written to SPANS.npz
when the stage returns.  The exit code is the stage's.
"""

from __future__ import annotations

import importlib
import sys

from spans import SpanRecorder

# (module, attribute, span name)
TRACED = (
    ("loophound.cli", "parse_ruleset", "dsl.parse"),
    ("loophound.cli", "parse_scenario", "dsl.parse"),
    ("loophound.cli", "explore", "explorer.explore"),
    ("loophound.cli", "write_jsonl", "explorer.write_jsonl"),
    ("loophound.cli", "read_jsonl", "explorer.read_jsonl"),
    ("loophound.explorer", "selection_distribution", "explorer.selection"),
    ("loophound.explorer", "applicable_actions", "kernel.applicable_actions"),
    ("loophound.explorer", "apply_action", "kernel.apply_action"),
    ("loophound.explorer", "evaluate_state", "taxation.evaluate_state"),
    ("loophound.explorer", "is_multinationally_complete", "economy.complete_check"),
    ("loophound.economy", "settle", "economy.settle"),
    ("loophound.taxation", "applicability_map", "taxation.applicability"),
    ("loophound.cli", "utility_profile", "analytics.profile"),
    ("loophound.cli", "detect_segments", "analytics.profile"),
    ("loophound.cli", "frequency_table", "analytics.frequency_table"),
    ("loophound.cli", "build_background", "induction.build_background"),
    ("loophound.cli", "induce", "induction.induce"),
    ("loophound.cli", "evaluate", "induction.evaluate"),
    ("loophound.induction", "clause_covers", "induction.clause_covers"),
    ("loophound.cli", "delta_restriction", "policy.delta_restriction"),
)


def main(argv: list[str]) -> int:
    spans_path, stage_args = argv[0], argv[1:]
    recorder = SpanRecorder()

    span = recorder.open("cli.import")
    cli = importlib.import_module("loophound.cli")
    recorder.close(span)

    for module_name, attribute, span_name in TRACED:
        module = importlib.import_module(module_name)
        setattr(module, attribute, recorder.wrap(getattr(module, attribute), span_name))

    # distinct successor states over apply_action calls: the search keeps
    # one node per fact set, so these are the states it evaluates anew
    explorer = sys.modules["loophound.explorer"]
    apply_traced = explorer.apply_action
    successors: set = set()

    def apply_counted(*args, **kwargs):
        child = apply_traced(*args, **kwargs)
        successors.add(child.key())
        return child

    explorer.apply_action = apply_counted

    span = recorder.open("cli." + stage_args[0])
    try:
        code = cli.main(stage_args)
    finally:
        recorder.close(span)
        recorder.save(spans_path, {"distinct_successors": len(successors)})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
