"""The run directory: the name of each file in it, and its one reader and
writer.

The pipeline's stages share their files through one run directory (see
:mod:`loophound.cli`).  Each file's format is declared here once, and its
writer and reader both follow the declaration: the writer takes its JSON
keys or CSV columns from it, and the reader its checks.  A declaration maps
each key, in order, to the *spec* of its decoded value:

* a tuple of types: the value is exactly of one of them, so JSON ``true``
  is not a number.  ``_NUMBER`` holds a finite number, ``_COUNT`` a
  non-negative int, and a float is finite wherever it stands (see
  :func:`_checked`);
* a one-item list ``[spec]``: a list of values of that spec;
* a dict: an object holding exactly its keys, each of its spec;
* any other value: that constant, as a document's ``format`` and ``kind``.

A record type's fields take their specs from its type hints
(:func:`_json_types`).  A reader raises :class:`RunFileError` on malformed
content, a non-finite number included.  The file formats are documented in
``docs/trajectories.md``.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, get_type_hints

from . import __version__
from .economy import TRANSFER, Transaction
from .kernel import (
    PREDICATES,
    Fact,
    GroundedAction,
    KernelError,
    State,
    Transfer,
    is_constant,
    is_variable,
)
from .taxation import TaxAssessment

if TYPE_CHECKING:
    from .analytics import FrequencyTable, Segment, UtilityProfile
    from .induction import Hypothesis, LabeledExamples, Metrics, SchemeGraph
    from .policy import RestrictionReport

TRAJECTORIES_FILE = "trajectories.jsonl"
PROFILE_FILE = "profile.csv"
STATS_FILE = "stats.csv"
HYPOTHESIS_JSON = "hypothesis.json"
HYPOTHESIS_TEXT = "hypothesis.txt"
POLICY_FILE = "policy_report.json"
DOT_FILE = "scheme.dot"
EDGES_FILE = "scheme_edges.csv"
MANIFEST_FILE = "manifest.json"

# per stage input: what it holds, as named in "corrupt <kind> file" errors;
# the stage that writes it, None for the manifest, which every stage reads
# and a run directory starts without; and the name of its reader, which the
# stages look up on loophound.cli, where tracing can wrap it
INPUTS = {
    TRAJECTORIES_FILE: ("trajectory", "explore", "read_jsonl"),
    PROFILE_FILE: ("profile", "profile", "read_profile_csv"),
    HYPOTHESIS_JSON: ("hypothesis", "induce", "read_hypothesis_json"),
    MANIFEST_FILE: ("manifest", None, "read_manifest"),
}

FORMAT_VERSION = 1


class RunFileError(ValueError):
    """A run-directory file whose content is malformed."""


# ============================================================================
# Declarations
# ============================================================================

_NUMBER = (int, float)  # a finite number
_COUNT = (int,)  # a non-negative int
_SPECS = (tuple, list, dict)  # the types of a spec; any other value is a constant

# the spec of each type hint a record field declared in a file may have
_HINT_SPECS = {
    float: _NUMBER,
    int: _COUNT,
    bool: (bool,),
    str: (str,),
    Optional[str]: (str, type(None)),
    Optional[float]: (float, type(None)),
    tuple[str, ...]: [(str,)],
}


def _json_types(record_type) -> dict:
    """The specs of ``record_type``'s fields, in order, from their type
    hints: a float field takes a finite number, an int field a count, a
    ``tuple[str, ...]`` field a list of strings and an Optional field null
    too.  A field of another type is left out: its reader builds it."""
    return {
        name: _HINT_SPECS[hint]
        for name, hint in get_type_hints(record_type).items()
        if hint in _HINT_SPECS
    }


def _checked(key: str, value, spec: tuple[type, ...]):
    """``value``, which must be exactly of one of the types of ``spec``.  A
    number must also be finite: JSON reads ``1e999`` as infinity, and an int
    too large for a float raises OverflowError.  A count must be
    non-negative."""
    if type(value) not in spec:
        raise TypeError(f"{key} is {value!r}")
    if (spec is _NUMBER or type(value) is float) and not math.isfinite(value):
        raise ValueError(f"{key} is {value!r}, not a finite number")
    if spec is _COUNT and value < 0:
        raise ValueError(f"{key} is {value!r}, not a count")
    return value


def _record(record, types: tuple[tuple[type, ...], ...]):
    """``record``, each of whose fields :func:`_checked` accepts for its
    ``types``.  Records are most of a trajectory file, so the checks are
    inlined, and :func:`_checked` runs only to raise.  The records read
    here hold no optional number, so a float stands only in a number
    field."""
    for key, value, spec in zip(record._fields, record, types):
        if (
            type(value) not in spec
            or spec is _NUMBER and not math.isfinite(value)
            or spec is _COUNT and value < 0
        ):
            _checked(key, value, spec)
    return record


def _matched(key: str, value, spec):
    """``value``, which must match ``spec`` (see the module docstring)."""
    if type(spec) is tuple:
        return _checked(key, value, spec)
    if type(spec) is list:
        for n, item in enumerate(_checked(key, value, (list,))):
            _matched(f"{key}[{n}]", item, spec[0])
    elif type(spec) is dict:
        if type(value) is not dict or value.keys() != spec.keys():
            raise ValueError(f"{key} must be exactly {', '.join(spec)}")
        for name, item_spec in spec.items():
            _matched(name, value[name], item_spec)
    elif type(value) is not type(spec) or value != spec:
        raise ValueError(f"{key} is {value!r}, not {spec!r}")
    return value


def _document(payload, declaration: dict, what: str) -> dict:
    """``payload``, a document of ``declaration``.  One that is not an
    object holding the declaration's constants is not ``what``."""
    constants = {key: spec for key, spec in declaration.items() if type(spec) not in _SPECS}
    if type(payload) is not dict or any(payload.get(k) != v for k, v in constants.items()):
        raise ValueError(f"not a {what}")
    return _matched(what, payload, declaration)


def _filled(declaration: dict, **values) -> dict:
    """The object of ``declaration``: its constants, and ``values`` under
    its other keys."""
    return {key: values.get(key, spec) for key, spec in declaration.items()}


def reject_constant(text: str) -> float:
    """The number JSON ``text`` spells, when it is finite.  The JSON readers
    pass it as ``parse_constant``, so ``NaN``, ``Infinity`` and
    ``-Infinity`` mark a file corrupt; the manifest's reader passes it as
    ``parse_float`` too, since the manifest is written back as it was
    read."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def write_json(payload: dict, path) -> None:
    """``payload`` as JSON, indented, keys sorted: the layout of
    hypothesis.json, policy_report.json and manifest.json."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


# ============================================================================
# trajectories.jsonl
# ============================================================================


@dataclass(frozen=True)
class SearchParams:
    seed: int = 0
    iterations: int = 50
    expansions: int = 1000
    beta: float = 0.01
    tau0: float = 5.0
    max_steps: int = 12

    def __post_init__(self) -> None:
        # each field holds what the header declares: nan slips through the
        # range checks below (every comparison with it is false) and inf
        # passes them, but either breaks the softmax, and a negative seed
        # seeds no generator
        for name, spec in _PARAMS.items():
            _checked(name, getattr(self, name), spec)
        if self.tau0 <= 0:
            raise ValueError("tau0 must be positive")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if min(self.iterations, self.expansions, self.max_steps) < 1:
            raise ValueError("iterations, expansions and max_steps must be at least 1")


@dataclass(frozen=True)
class Trajectory:
    id: int
    actions: tuple[GroundedAction, ...]
    final_state: State
    transactions: tuple[Transaction, ...]
    assessments: tuple[TaxAssessment, ...]
    p: float
    phi: float
    utility: float
    complete: bool
    terminal: bool

    @property
    def length(self) -> int:
        return len(self.actions)

    def action_refs(self) -> list[str]:
        return [a.legal_ref for a in self.actions]

    def applied_reduction_refs(self) -> list[tuple[str, str]]:
        out = []
        for a in self.assessments:
            out.extend(a.applied_refs())
        return out

    def total_tax(self) -> float:
        total = 0.0
        for a in self.assessments:
            total += a.tax_due
        return total


@dataclass(frozen=True)
class TrajectorySet:
    params: SearchParams
    cost_coefficient: float  # the scenario's action_cost, charged per action
    ruleset_sha256: str
    scenario_sha256: str
    trajectories: tuple[Trajectory, ...]
    warnings: tuple[str, ...] = ()

    def complete_trajectories(self) -> list[Trajectory]:
        return [t for t in self.trajectories if t.complete]


# the header line: the search's parameters with the cost it charged, the
# hashes and the warnings of the set, and how many trajectory lines follow
_PARAMS = _json_types(SearchParams)
_SET = _json_types(TrajectorySet)
_HEADER = {
    "format": FORMAT_VERSION,
    "kind": "trajectory-set",
    "params": {**_PARAMS, "cost_coefficient": _SET.pop("cost_coefficient")},
    **_SET,
    "trajectory_count": _COUNT,
}
# a trajectory line holds these fields of its Trajectory, its length, and
# the lists its actions, final state and records are built from
_TRAJECTORY = _json_types(Trajectory)
_TRANSACTION_TYPES = tuple(_json_types(Transaction).values())
_ASSESSMENT_TYPES = tuple(_json_types(TaxAssessment).values())


def _trajectory_to_json(t: Trajectory) -> dict:
    return {
        **{key: getattr(t, key) for key in _TRAJECTORY},
        "length": t.length,
        "actions": [
            {"name": a.name, "ref": a.legal_ref, "args": dict(a.binding)}
            for a in t.actions
        ],
        "final_state": [[f.predicate, *f.args] for f in t.final_state.facts()],
        "transactions": [list(tx) for tx in t.transactions],
        "assessments": [a._asdict() for a in t.assessments],
    }


def _action_from_json(a: dict, table: dict) -> GroundedAction:
    """The grounded action of one ``actions`` entry, as ``table``'s object for
    its value.  Each binding value must be a ground constant, checked once,
    when the table first meets the action."""
    action = GroundedAction(
        _checked("name", a["name"], (str,)),
        _checked("ref", a["ref"], (str,)),
        tuple(sorted(a["args"].items())),
    )
    shared = table.get(action)
    if shared is None:
        for variable, value in action.binding:
            if type(value) is not str or not is_constant(value):
                raise ValueError(
                    f"{action.name} binds {variable} to {value!r}, not a constant"
                )
        shared = table[action] = action
    return shared


def _trajectory_from_json(row: dict, table: dict) -> Trajectory:
    """The trajectory of one line, its actions, rows and groups ``table``'s
    objects for their values.  The final state's IP sale is read off the
    one ``transfer`` payment, made the step after the ``transferIP`` action
    by the buyer to the seller, two distinct values the action binds; which
    of them sold is the payment's word, as a record does not name its rule's
    parties.  A malformed row, one whose payments do not match its
    ``transferIP`` actions included, raises KeyError, IndexError,
    TypeError, ValueError, OverflowError or AttributeError; a final state
    that is not a valid state of ground constants raises a
    :class:`RunFileError` naming the trajectory."""
    actions = tuple(_action_from_json(a, table) for a in row["actions"])
    if type(row["length"]) is not int or row["length"] != len(actions):
        raise ValueError(f"length {row['length']!r} but {len(actions)} actions")
    transactions = tuple(
        _record(Transaction(*tx), _TRANSACTION_TYPES) for tx in row["transactions"]
    )
    # the buyer pays the seller the step after the sale, both of them
    # values its transferIP binds
    sales = [
        Transfer(tx.time - 1, tx.receiver, tx.sender)
        for tx in transactions
        if tx.kind == TRANSFER
    ]
    steps = [step for step, a in enumerate(actions) if a.name == "transferIP"]
    if len(sales) > 1 or [sale.step for sale in sales] != steps or any(
        sale.seller == sale.buyer
        or not {sale.seller, sale.buyer} <= {v for _, v in actions[sale.step].binding}
        for sale in sales
    ):
        raise ValueError(f"transfer payments {sales}, transferIP at steps {steps}")
    try:
        final_state = State.from_facts(
            (Fact(r[0], tuple(r[1:])) for r in row["final_state"]),
            step_count=len(actions),
            transfer=sales[0] if sales else None,
            table=table,
        )
    except (KernelError, IndexError, TypeError) as exc:
        raise RunFileError(f"final state of trajectory {row['id']}: {exc}") from exc
    return Trajectory(
        actions=actions,
        final_state=final_state,
        transactions=transactions,
        assessments=tuple(
            _record(TaxAssessment(**a), _ASSESSMENT_TYPES) for a in row["assessments"]
        ),
        **{key: _checked(key, row[key], spec) for key, spec in _TRAJECTORY.items()},
    )


def write_jsonl(tset: TrajectorySet, path) -> None:
    header = _filled(
        _HEADER,
        params={**asdict(tset.params), "cost_coefficient": tset.cost_coefficient},
        ruleset_sha256=tset.ruleset_sha256,
        scenario_sha256=tset.scenario_sha256,
        warnings=list(tset.warnings),
        trajectory_count=len(tset.trajectories),
    )
    dumps = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(header) + "\n")
        for t in tset.trajectories:
            fh.write(dumps(_trajectory_to_json(t)) + "\n")


def read_jsonl(path) -> TrajectorySet:
    """The trajectory set of a file written by :func:`write_jsonl`.  Malformed
    content raises one :class:`RunFileError` naming the header or the
    trajectory at fault: a non-finite number, JSON nested too deep to read,
    a trajectory ``id`` other than its record's position, counting from 0,
    and a ``phi`` or ``utility`` other than ``explore`` computes from the
    header's ``cost_coefficient``, the ``length`` and ``p`` included.

    The file is read one line at a time.  One table for the whole read makes
    equal actions, final-state rows and final-state groups of all its
    trajectories one object each (see :mod:`loophound.kernel`)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = (line for line in fh if line.strip())
        first = next(lines, None)
        if first is None:
            raise RunFileError("empty trajectory file")
        try:
            header = json.loads(first, parse_constant=reject_constant)
            header = _document(header, _HEADER, f"format-{FORMAT_VERSION} trajectory set")
            params = dict(header["params"])
            cost = params.pop("cost_coefficient")
            if cost <= 0:
                raise ValueError(f"cost_coefficient is {cost!r}, not positive")
            params = SearchParams(**params)
        except (TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise RunFileError(f"header: {exc}") from exc
        table: dict = {}
        trajectories = []
        for n, line in enumerate(lines):
            try:
                row = json.loads(line, parse_constant=reject_constant)
                trajectory = _trajectory_from_json(row, table)
                if trajectory.id != n:
                    raise ValueError(f"id {trajectory.id} is not its position {n}")
                # explore's own arithmetic, bit for bit
                phi = cost * trajectory.length
                if trajectory.phi != phi:
                    raise ValueError(f"phi is not cost_coefficient * length, {phi!r}")
                if trajectory.utility != trajectory.p - phi:
                    raise ValueError(f"utility is not p - phi, {trajectory.p - phi!r}")
                trajectories.append(trajectory)
            except (
                AttributeError, KeyError, IndexError, TypeError, ValueError, OverflowError,
                RecursionError,
            ) as exc:
                raise RunFileError(f"trajectory {n}: {type(exc).__name__}: {exc}") from exc
    count = header["trajectory_count"]
    if len(trajectories) != count:
        raise RunFileError(
            f"header announces {count} trajectories, file holds {len(trajectories)}"
        )
    hashes = header["ruleset_sha256"], header["scenario_sha256"]
    return TrajectorySet(
        params, cost, *hashes, tuple(trajectories), tuple(header["warnings"])
    )


# ============================================================================
# profile.csv and stats.csv
# ============================================================================

# one row per profile position, the most profitable first
_PROFILE = {"index": _COUNT, "utility": _NUMBER, "trajectory_id": _COUNT, "segment_id": _COUNT}
_STATS = ("ref", "type")  # then one column per segment


def write_profile_csv(
    profile: UtilityProfile,
    segments: Sequence[Segment],
    path,
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_PROFILE)
        for seg in segments:
            for i in range(seg.start, seg.stop):
                w.writerow([i, profile.values[i], profile.index_map[i], seg.id])


def read_profile_csv(path) -> tuple[UtilityProfile, list[Segment]]:
    """The profile and segments of a file written by :func:`write_profile_csv`.
    A malformed row raises :class:`RunFileError`: one that is not four
    numbers of their columns' specs, an ``index`` other than the row's
    position, counting from 0, a ``utility`` above the one before it, a
    ``trajectory_id`` an earlier row names, or a ``segment_id`` that does
    not start at 0 and step by one where it changes."""
    from .analytics import Segment, UtilityProfile

    values: list[float] = []
    ids: list[int] = []
    seen: set[int] = set()  # the ids, each named once
    starts: list[int] = []  # the first position of each segment
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        if next(rows, None) != list(_PROFILE):
            raise RunFileError("not a profile table")
        for row in rows:
            try:
                index, utility, tid, seg = (
                    _checked(key, (float if spec is _NUMBER else int)(text), spec)
                    for (key, spec), text in zip(_PROFILE.items(), row, strict=True)
                )
                if index != len(values):
                    raise ValueError(f"index {index} out of sequence")
                if values and utility > values[-1]:
                    raise ValueError(f"utility {utility!r} above the row before")
                if tid in seen:
                    raise ValueError(f"trajectory_id {tid} repeated")
                if seg == len(starts):
                    starts.append(index)
                elif seg != len(starts) - 1:
                    raise ValueError(f"segment_id {seg} out of sequence")
            except ValueError as exc:
                raise RunFileError(f"bad row {rows.line_num}: {row!r}: {exc}") from exc
            values.append(utility)
            ids.append(tid)
            seen.add(tid)
    bounds = [*starts, len(values)]
    segments = [
        Segment(n, start, stop, values[start - 1] - values[start] if start else None)
        for n, (start, stop) in enumerate(zip(bounds, bounds[1:]))
    ]
    profile = UtilityProfile(values=tuple(values), index_map=tuple(ids))
    return profile, segments or [Segment(0, 0, 0, None)]


def write_stats_csv(table: FrequencyTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([*_STATS, *(f"segment_{i}" for i in range(table.segment_count))])
        for (ref, kind), values in table.rows.items():
            w.writerow([ref, kind, *values])


# ============================================================================
# hypothesis.json and hypothesis.txt
# ============================================================================


@functools.cache
def _hypothesis_format() -> dict:
    """The declaration of hypothesis.json.  Its records are induction's,
    which a stage imports only when it reads or writes the file."""
    from .induction import ClauseLiteral, Metrics

    metrics = _json_types(Metrics)
    return {
        "format": FORMAT_VERSION,
        "kind": "hypothesis",
        "u_plus": _NUMBER,
        "positives": _COUNT,
        "negatives": _COUNT,
        "clauses": [{"body": [_json_types(ClauseLiteral)], "metrics": metrics}],
        "overall_metrics": metrics,
        "warnings": [(str,)],
    }


def write_hypothesis_json(
    hypothesis: Hypothesis,
    examples: LabeledExamples,
    overall: Metrics,
    path,
) -> None:
    clauses = [
        {"body": [literal._asdict() for literal in clause.body], "metrics": asdict(metrics)}
        for clause, metrics in zip(hypothesis.clauses, hypothesis.clause_metrics)
    ]
    payload = _filled(
        _hypothesis_format(),
        u_plus=examples.u_plus,
        positives=len(examples.positives),
        negatives=len(examples.negatives),
        clauses=clauses,
        overall_metrics=asdict(overall),
        warnings=list(hypothesis.warnings),
    )
    write_json(payload, path)


def read_hypothesis_json(path) -> tuple[Hypothesis, float, Metrics]:
    """Hypothesis, ``u_plus`` and overall metrics of a document written by
    :func:`write_hypothesis_json`.  A document that does not match its
    declaration, JSON nested too deep to read, or a clause body literal of
    an unknown predicate, of another arity or with an argument that is
    neither a variable nor a constant, raises :class:`RunFileError`."""
    from .induction import Clause, ClauseLiteral, Hypothesis, Metrics

    text = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(text, parse_constant=reject_constant)
        payload = _document(payload, _hypothesis_format(), "hypothesis document")
        clauses = []
        for entry in payload["clauses"]:
            body = tuple(
                ClauseLiteral(item["predicate"], tuple(item["args"])) for item in entry["body"]
            )
            for lit in body:
                arity = len(PREDICATES.get(lit.predicate, ()))
                if not arity or len(lit.args) != arity or not all(
                    is_variable(a) or is_constant(a) for a in lit.args
                ):
                    raise ValueError(f"malformed clause body literal {lit}")
            clauses.append(Clause(body=body))
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise RunFileError(f"{type(exc).__name__}: {exc}") from exc
    hypothesis = Hypothesis(
        clauses=tuple(clauses),
        clause_metrics=tuple(Metrics(**entry["metrics"]) for entry in payload["clauses"]),
        warnings=tuple(payload["warnings"]),
    )
    return hypothesis, float(payload["u_plus"]), Metrics(**payload["overall_metrics"])


def write_hypothesis_text(hypothesis: Hypothesis, overall: Metrics, path) -> None:
    lines = []
    for clause, metrics in zip(hypothesis.clauses, hypothesis.clause_metrics):
        f1 = "undefined" if metrics.f1 is None else f"{metrics.f1:.4f}"
        lines.append(f"% clause f1 {f1}")
        lines.append(clause.render())
    if not hypothesis.clauses:
        lines.append("% empty hypothesis")
    f1 = "undefined" if overall.f1 is None else f"{overall.f1:.4f}"
    acc = "undefined" if overall.accuracy is None else f"{overall.accuracy:.4f}"
    lines.append(f"% overall accuracy {acc} f1 {f1}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ============================================================================
# policy_report.json, scheme.dot and scheme_edges.csv
# ============================================================================


def write_policy_report(report: RestrictionReport, path) -> None:
    payload = {
        "format": FORMAT_VERSION,
        "kind": "policy-report",
        "welfare": {
            "kind": report.welfare_kind,
            "description": report.welfare_description,
        },
        "omega": {
            "definition": "complete trajectories of the sampled set",
            "size": report.omega_size,
        },
        "labels": {
            "u_plus": report.u_plus,
            "positives": report.positives,
            "negatives": report.negatives,
        },
        "coverage": {
            "covered_positives": report.covered_positives,
            "covered_negatives": report.covered_negatives,
        },
        "welfare_omega": report.welfare_omega,
        "delta_E": report.delta_e,
        "delta_H_pos": report.delta_h_pos,
        "delta_H_neg": report.delta_h_neg,
        "Delta_H": report.delta_h,
        "verdict": report.verdict,
    }
    payload["undefined_quantities"] = [
        name
        for name in ("welfare_omega", "delta_E", "delta_H_pos", "delta_H_neg", "Delta_H")
        if payload[name] is None
    ]
    write_json(payload, path)


def write_dot(graph: SchemeGraph, path) -> None:
    lines = ["digraph scheme {"]
    for edge in graph.edges:
        lines.append(
            f'  "{edge.source}" -> "{edge.target}" '
            f'[label="{edge.label}", weight={edge.weight!r}];'
        )
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_edges_csv(graph: SchemeGraph, path) -> None:
    """One row per edge, its columns the fields of
    :class:`~loophound.induction.SchemeEdge`."""
    from .induction import SchemeEdge

    columns = [f.name for f in fields(SchemeEdge)]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows([getattr(edge, name) for name in columns] for edge in graph.edges)


# ============================================================================
# manifest.json
# ============================================================================

# the stages run in the directory, each recorded under its name (see
# loophound.cli), and the hashes of the documents explore read
_MANIFEST = {"format": FORMAT_VERSION, "tool": "loophound", "version": (str,), "stages": (dict,)}


def read_manifest(path) -> dict:
    """The manifest at ``path``, a new one when there is none, carrying this
    version's number.  One that is not an object holding the declared keys,
    whose ``stages`` hold an object each, or that holds a number that is not
    finite or JSON nested too deep to read, raises :class:`RunFileError`."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return _filled(_MANIFEST, version=__version__, stages={})
    try:
        manifest = json.loads(text, parse_constant=reject_constant, parse_float=reject_constant)
        _checked("manifest", manifest, (dict,))
        declared = {key: manifest.get(key) for key in _MANIFEST}
        _document(declared, _MANIFEST, f"format-{FORMAT_VERSION} loophound manifest")
        _matched("stages", list(manifest["stages"].values()), [(dict,)])
    except (TypeError, ValueError, RecursionError) as exc:
        raise RunFileError(f"{type(exc).__name__}: {exc}") from exc
    manifest["version"] = __version__
    return manifest
