"""Clause learning over trajectory backgrounds.

Separates high-utility trajectories from ordinary ones by inducing a clause
set with head ``taxScheme(A, B, C, D)``.  The head variables are bound per
trajectory to role companies (by default: the company based in Ireland, the
Netherlands, the USA, and Germany).  Bodies are conjunctions over a restricted
fact vocabulary; a trajectory is covered when some clause body matches its own
background database.  Learning is greedy set cover with a beam search over
linked clauses, scored by F1 on the not-yet-covered positives.

The learned hypothesis is rendered as a weighted scheme graph: every body
literal becomes an edge carrying its clause's F1 score.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .explorer import Trajectory, TrajectorySet
from .kernel import PREDICATES, is_variable

HEAD_PREDICATE = "taxScheme"
HEAD_VARIABLES: tuple[str, ...] = ("A", "B", "C", "D")
DEFAULT_ROLE_BINDING: tuple[tuple[str, str], ...] = (
    ("A", "ireland"),
    ("B", "netherlands"),
    ("C", "usa"),
    ("D", "germany"),
)
DEFAULT_VOCABULARY: tuple[str, ...] = ("ownsIP", "managed", "rentsIP")
ROLE_PREDICATE = "role"

# fresh variables are only introduced in IP argument positions; three are
# enough for any body within the default literal budget
_MAX_FRESH_VARS = 3


class InductionError(Exception):
    """Raised for invalid induction configuration or inputs."""


@dataclass(frozen=True)
class InductionConfig:
    u_plus: float
    max_literals: int = 7
    vocabulary: tuple[str, ...] = DEFAULT_VOCABULARY
    beam_width: int = 64
    max_clauses: int = 8
    role_binding: tuple[tuple[str, str], ...] = DEFAULT_ROLE_BINDING

    def __post_init__(self) -> None:
        if self.max_literals < 1:
            raise InductionError("max_literals must be at least 1")
        if self.beam_width < 1:
            raise InductionError("beam_width must be at least 1")
        if self.max_clauses < 1:
            raise InductionError("max_clauses must be at least 1")
        for predicate in self.vocabulary:
            if predicate not in PREDICATES:
                raise InductionError(f"unknown vocabulary predicate {predicate!r}")
        seen: set[str] = set()
        for variable, country in self.role_binding:
            if not is_variable(variable):
                raise InductionError(f"role variable {variable!r} is not a variable")
            if variable in seen:
                raise InductionError(f"duplicate role variable {variable!r}")
            seen.add(variable)
            if is_variable(country):
                raise InductionError(f"role country {country!r} must be a constant")

    def role_map(self) -> dict[str, str]:
        return dict(self.role_binding)


@dataclass(frozen=True)
class LabeledExamples:
    """Complete-trajectory ids split by the utility threshold u_plus."""

    positives: tuple[int, ...]
    negatives: tuple[int, ...]
    u_plus: float
    warnings: tuple[str, ...] = ()


def label(tset: TrajectorySet, u_plus: float) -> LabeledExamples:
    complete = sorted(tset.complete_trajectories(), key=lambda t: t.id)
    if not complete:
        raise InductionError("trajectory set has no complete trajectories to label")
    positives = tuple(t.id for t in complete if t.utility > u_plus)
    negatives = tuple(t.id for t in complete if t.utility <= u_plus)
    warnings: tuple[str, ...] = ()
    if not positives:
        top = max(t.utility for t in complete)
        warnings = (
            f"threshold {u_plus!r} is at or above the maximum utility {top!r}; "
            "positive set is empty",
        )
    return LabeledExamples(positives=positives, negatives=negatives, u_plus=u_plus, warnings=warnings)


@dataclass(frozen=True)
class ExampleBackground:
    """One trajectory's fact database and head-variable role binding."""

    trajectory_id: int
    facts: tuple[tuple[str, ...], ...]
    roles: tuple[tuple[str, str], ...]
    # the facts grouped by predicate, in fact order
    by_predicate: dict[str, tuple[tuple[str, ...], ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        grouped: dict[str, list[tuple[str, ...]]] = {}
        for atom in self.facts:
            grouped.setdefault(atom[0], []).append(atom)
        object.__setattr__(
            self, "by_predicate", {pred: tuple(atoms) for pred, atoms in grouped.items()}
        )

    def role_map(self) -> dict[str, str]:
        return dict(self.roles)


@dataclass(frozen=True)
class BackgroundDB:
    examples: tuple[ExampleBackground, ...]
    excluded: tuple[int, ...] = ()
    warnings: tuple[str, ...] = ()
    by_id: dict[int, ExampleBackground] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "by_id", {ex.trajectory_id: ex for ex in self.examples})


def build_background(tset: TrajectorySet, config: InductionConfig) -> BackgroundDB:
    """Per-trajectory databases: vocabulary facts plus role atoms.

    Trajectories lacking a company in some role country are excluded with a
    warning; ``based`` facts are read only to resolve roles.
    """
    vocabulary = set(config.vocabulary)
    role_map = config.role_map()
    examples: list[ExampleBackground] = []
    excluded: list[int] = []
    warnings: list[str] = []
    for trajectory in sorted(tset.complete_trajectories(), key=lambda t: t.id):
        state = trajectory.final_state
        based: dict[str, list[str]] = {}
        for fact in state.facts:
            if fact.predicate == "based":
                based.setdefault(fact.args[1], []).append(fact.args[0])
        roles: list[tuple[str, str]] = []
        missing: Optional[str] = None
        for variable, country in sorted(role_map.items()):
            candidates = based.get(country)
            if not candidates:
                missing = country
                break
            # several companies can share a role country; the lowest id wins
            roles.append((variable, min(candidates)))
        if missing is not None:
            excluded.append(trajectory.id)
            warnings.append(
                f"trajectory {trajectory.id} has no company based in {missing}; excluded"
            )
            continue
        atoms = [
            (fact.predicate,) + tuple(fact.args)
            for fact in state.facts
            if fact.predicate in vocabulary
        ]
        atoms.extend((ROLE_PREDICATE, variable, company) for variable, company in roles)
        examples.append(
            ExampleBackground(
                trajectory_id=trajectory.id,
                facts=tuple(sorted(atoms)),
                roles=tuple(roles),
            )
        )
    return BackgroundDB(
        examples=tuple(examples), excluded=tuple(excluded), warnings=tuple(warnings)
    )


@dataclass(frozen=True)
class ClauseLiteral:
    predicate: str
    args: tuple[str, ...]

    def render(self) -> str:
        return f"{self.predicate}({', '.join(self.args)})"


@dataclass(frozen=True)
class Clause:
    """Body of a taxScheme(A, B, C, D) clause; the head is implicit."""

    body: tuple[ClauseLiteral, ...]

    def serialize(self) -> str:
        return ", ".join(lit.render() for lit in self.body)

    def render(self) -> str:
        head = f"{HEAD_PREDICATE}({', '.join(HEAD_VARIABLES)})"
        if not self.body:
            return f"{head}."
        return f"{head} :- {self.serialize()}."

    def variables(self) -> frozenset[str]:
        return frozenset(
            term for lit in self.body for term in lit.args if is_variable(term)
        )


def canonical_clause(body: Iterable[ClauseLiteral]) -> Clause:
    """Sort literals and rename fresh variables by order of first appearance."""
    ordered = sorted(set(body), key=lambda lit: (lit.predicate, lit.args))
    renaming: dict[str, str] = {}
    for lit in ordered:
        for term in lit.args:
            if is_variable(term) and term not in HEAD_VARIABLES and term not in renaming:
                renaming[term] = f"Ip{len(renaming)}"
    renamed = [
        ClauseLiteral(lit.predicate, tuple(renaming.get(t, t) for t in lit.args))
        for lit in ordered
    ]
    return Clause(body=tuple(sorted(set(renamed), key=lambda lit: (lit.predicate, lit.args))))


def clause_covers(clause: Clause, example: ExampleBackground) -> bool:
    """Existential body matching against one trajectory's database."""
    binding: dict[str, str] = example.role_map()
    by_pred = example.by_predicate
    body = clause.body

    def matches(index: int) -> bool:
        if index == len(body):
            return True
        literal = body[index]
        atoms = by_pred.get(literal.predicate, ())
        for atom in atoms:
            if len(atom) - 1 != len(literal.args):
                continue
            added: list[str] = []
            ok = True
            for term, value in zip(literal.args, atom[1:]):
                if is_variable(term):
                    bound = binding.get(term)
                    if bound is None:
                        binding[term] = value
                        added.append(term)
                    elif bound != value:
                        ok = False
                        break
                elif term != value:
                    ok = False
                    break
            if ok and matches(index + 1):
                return True
            for term in added:
                del binding[term]
        return False

    return matches(0)


def covered_ids(clauses: Sequence[Clause], db: BackgroundDB) -> frozenset[int]:
    """Ids of examples entailed by any clause of the set."""
    covered: set[int] = set()
    for example in db.examples:
        if any(clause_covers(clause, example) for clause in clauses):
            covered.add(example.trajectory_id)
    return frozenset(covered)


@dataclass(frozen=True)
class Metrics:
    true_positives: int
    false_positives: int
    true_negatives: int
    false_negatives: int
    accuracy: Optional[float]
    precision: Optional[float]
    specificity: Optional[float]
    sensitivity: Optional[float]
    f1: Optional[float]

    @classmethod
    def from_counts(cls, tp: int, fp: int, tn: int, fn: int) -> "Metrics":
        total = tp + fp + tn + fn
        accuracy = (tp + tn) / total if total else None
        precision = tp / (tp + fp) if tp + fp else None
        sensitivity = tp / (tp + fn) if tp + fn else None
        specificity = tn / (tn + fp) if tn + fp else None
        if precision is None or sensitivity is None or precision + sensitivity == 0:
            f1 = None
        else:
            f1 = 2 * precision * sensitivity / (precision + sensitivity)
        return cls(
            true_positives=tp,
            false_positives=fp,
            true_negatives=tn,
            false_negatives=fn,
            accuracy=accuracy,
            precision=precision,
            specificity=specificity,
            sensitivity=sensitivity,
            f1=f1,
        )


@dataclass(frozen=True)
class Hypothesis:
    clauses: tuple[Clause, ...]
    clause_metrics: tuple[Metrics, ...]
    warnings: tuple[str, ...] = ()

    def render(self) -> str:
        if not self.clauses:
            return "% empty hypothesis"
        return "\n".join(clause.render() for clause in self.clauses)


def evaluate(
    hypothesis: Hypothesis, examples: LabeledExamples, background: BackgroundDB
) -> Metrics:
    """Score clause-set entailment against the labels."""
    return _score_clauses(hypothesis.clauses, examples.positives, examples.negatives, background)


def _score_clauses(
    clauses: Sequence[Clause],
    positives: Sequence[int],
    negatives: Sequence[int],
    background: BackgroundDB,
) -> Metrics:
    by_id = background.by_id
    covered = covered_ids(clauses, background)
    tp = sum(1 for i in positives if i in by_id and i in covered)
    fn = sum(1 for i in positives if i in by_id and i not in covered)
    fp = sum(1 for i in negatives if i in by_id and i in covered)
    tn = sum(1 for i in negatives if i in by_id and i not in covered)
    return Metrics.from_counts(tp, fp, tn, fn)


def _constant_pools(
    examples: Sequence[ExampleBackground], vocabulary: Sequence[str]
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Country and IP constants observed anywhere in the databases."""
    countries: set[str] = set()
    ips: set[str] = set()
    for example in examples:
        for atom in example.facts:
            if atom[0] == "managed" and len(atom) == 3:
                countries.add(atom[2])
            elif atom[0] == "ownsIP" and len(atom) == 3:
                ips.add(atom[2])
            elif atom[0] == "rentsIP" and len(atom) == 4:
                ips.add(atom[3])
    return tuple(sorted(countries)), tuple(sorted(ips))


def _candidate_literals(
    clause: Clause,
    vocabulary: Sequence[str],
    countries: Sequence[str],
    ips: Sequence[str],
) -> Iterator[ClauseLiteral]:
    """One-literal refinements; company positions use head variables only."""
    in_use = sorted(v for v in clause.variables() if v not in HEAD_VARIABLES)
    ip_terms: list[str] = list(in_use)
    if len(in_use) < _MAX_FRESH_VARS:
        ip_terms.append(f"Ip{len(in_use)}")
    ip_terms.extend(ips)
    for predicate in vocabulary:
        if predicate == "managed":
            for company in HEAD_VARIABLES:
                for country in countries:
                    yield ClauseLiteral(predicate, (company, country))
        elif predicate == "ownsIP":
            for company in HEAD_VARIABLES:
                for ip in ip_terms:
                    yield ClauseLiteral(predicate, (company, ip))
        elif predicate == "rentsIP":
            for licensor in HEAD_VARIABLES:
                for renter in HEAD_VARIABLES:
                    if renter == licensor:
                        continue
                    for ip in ip_terms:
                        yield ClauseLiteral(predicate, (licensor, renter, ip))


@dataclass(frozen=True)
class _Candidate:
    clause: Clause
    serial: str
    pos_covered: frozenset[int]
    neg_covered: frozenset[int]
    f1: float

    def key(self) -> tuple:
        return (-self.f1, len(self.clause.body), self.serial)


def _clause_f1(tp: int, fp: int, fn: int) -> float:
    denominator = 2 * tp + fp + fn
    if denominator == 0:
        return 0.0
    return 2 * tp / denominator


def _search_clause(
    uncovered: frozenset[int],
    negatives: frozenset[int],
    background: BackgroundDB,
    config: InductionConfig,
    countries: Sequence[str],
    ips: Sequence[str],
) -> Optional[_Candidate]:
    """Beam search for the linked clause maximizing F1 on uncovered positives."""
    by_id = background.by_id
    total_uncovered = len(uncovered)

    def refine(parent: _Candidate) -> Iterator[_Candidate]:
        for literal in _candidate_literals(parent.clause, config.vocabulary, countries, ips):
            if literal in parent.clause.body:
                continue
            clause = canonical_clause(parent.clause.body + (literal,))
            if len(clause.body) != len(parent.clause.body) + 1:
                continue
            # a refinement can only shrink coverage, so restrict the checks
            pos = frozenset(
                i for i in parent.pos_covered if clause_covers(clause, by_id[i])
            )
            if not pos:
                continue
            neg = frozenset(
                i for i in parent.neg_covered if clause_covers(clause, by_id[i])
            )
            f1 = _clause_f1(len(pos), len(neg), total_uncovered - len(pos))
            yield _Candidate(
                clause=clause,
                serial=clause.serialize(),
                pos_covered=pos,
                neg_covered=neg,
                f1=f1,
            )

    root = _Candidate(
        clause=Clause(body=()),
        serial="",
        pos_covered=uncovered,
        neg_covered=negatives,
        f1=_clause_f1(total_uncovered, len(negatives), 0),
    )
    beam: list[_Candidate] = [root]
    best: Optional[_Candidate] = None
    for _ in range(config.max_literals):
        seen: set[str] = set()
        pool: list[_Candidate] = []
        for parent in beam:
            for candidate in refine(parent):
                if candidate.serial in seen:
                    continue
                seen.add(candidate.serial)
                pool.append(candidate)
        if not pool:
            break
        pool.sort(key=_Candidate.key)
        beam = pool[: config.beam_width]
        front = beam[0]
        if best is None or front.key() < best.key():
            best = front
        if best.f1 == 1.0 and not best.neg_covered:
            break
    if best is None or not best.pos_covered:
        return None
    return best


def induce(
    examples: LabeledExamples, background: BackgroundDB, config: InductionConfig
) -> Hypothesis:
    """Greedy set cover: add the best beam-searched clause until done.

    Stops when every positive is covered, max_clauses is reached, or no
    remaining clause has positive score; the empty hypothesis is reported via
    a warning in the last case.
    """
    if not examples.positives:
        raise InductionError("cannot induce from an empty positive set")
    by_id = background.by_id
    positives = tuple(i for i in examples.positives if i in by_id)
    negatives = tuple(i for i in examples.negatives if i in by_id)
    if not positives:
        raise InductionError("all positive examples were excluded from the background")
    countries, ips = _constant_pools(background.examples, config.vocabulary)
    uncovered = frozenset(positives)
    negative_set = frozenset(negatives)
    clauses: list[Clause] = []
    warnings: list[str] = []
    while uncovered and len(clauses) < config.max_clauses:
        found = _search_clause(uncovered, negative_set, background, config, countries, ips)
        if found is None or found.f1 <= 0.0:
            if not clauses:
                warnings.append("no clause with positive score exists; hypothesis is empty")
            else:
                warnings.append(
                    f"{len(uncovered)} positive example(s) left uncovered; "
                    "no further clause has positive score"
                )
            break
        clauses.append(found.clause)
        uncovered = uncovered - found.pos_covered
    if uncovered and len(clauses) == config.max_clauses:
        warnings.append(
            f"clause budget {config.max_clauses} reached with "
            f"{len(uncovered)} positive example(s) uncovered"
        )
    metrics = tuple(
        _score_clauses((clause,), positives, negatives, background) for clause in clauses
    )
    return Hypothesis(clauses=tuple(clauses), clause_metrics=metrics, warnings=tuple(warnings))


@dataclass(frozen=True)
class SchemeEdge:
    source: str
    target: str
    label: str
    weight: float


@dataclass(frozen=True)
class SchemeGraph:
    edges: tuple[SchemeEdge, ...]


_EDGE_LABELS = {"rentsIP": "rents", "managed": "managed", "ownsIP": "owns"}


def scheme_graph(hypothesis: Hypothesis, top_k: int = 10) -> SchemeGraph:
    """Body literals as weighted edges, deduplicated, best top_k by weight."""
    if top_k < 1:
        raise InductionError("top_k must be at least 1")
    best: dict[tuple[str, str, str], float] = {}
    for clause, metrics in zip(hypothesis.clauses, hypothesis.clause_metrics):
        weight = metrics.f1
        if weight is None:
            continue
        for literal in clause.body:
            label_ = _EDGE_LABELS.get(literal.predicate)
            if label_ is None or len(literal.args) < 2:
                continue
            key = (literal.args[0], literal.args[1], label_)
            if key not in best or weight > best[key]:
                best[key] = weight
    edges = sorted(
        (SchemeEdge(source=s, target=t, label=l, weight=w) for (s, t, l), w in best.items()),
        key=lambda e: (-e.weight, e.source, e.label, e.target),
    )
    return SchemeGraph(edges=tuple(edges[:top_k]))


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
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["source", "target", "label", "weight"])
        for edge in graph.edges:
            writer.writerow([edge.source, edge.target, edge.label, repr(edge.weight)])


def _metrics_to_json(metrics: Metrics) -> dict:
    return {
        "true_positives": metrics.true_positives,
        "false_positives": metrics.false_positives,
        "true_negatives": metrics.true_negatives,
        "false_negatives": metrics.false_negatives,
        "accuracy": metrics.accuracy,
        "precision": metrics.precision,
        "specificity": metrics.specificity,
        "sensitivity": metrics.sensitivity,
        "f1": metrics.f1,
    }


def _metrics_from_json(payload: Mapping) -> Metrics:
    return Metrics(
        true_positives=int(payload["true_positives"]),
        false_positives=int(payload["false_positives"]),
        true_negatives=int(payload["true_negatives"]),
        false_negatives=int(payload["false_negatives"]),
        accuracy=payload["accuracy"],
        precision=payload["precision"],
        specificity=payload["specificity"],
        sensitivity=payload["sensitivity"],
        f1=payload["f1"],
    )


def write_hypothesis_json(
    hypothesis: Hypothesis,
    examples: LabeledExamples,
    overall: Metrics,
    path,
) -> None:
    payload = {
        "format": 1,
        "kind": "hypothesis",
        "u_plus": examples.u_plus,
        "positives": len(examples.positives),
        "negatives": len(examples.negatives),
        "clauses": [
            {"body": [{"predicate": lit.predicate, "args": list(lit.args)} for lit in clause.body],
             "metrics": _metrics_to_json(metrics)}
            for clause, metrics in zip(hypothesis.clauses, hypothesis.clause_metrics)
        ],
        "overall_metrics": _metrics_to_json(overall),
        "warnings": list(hypothesis.warnings),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def read_hypothesis_json(path) -> tuple[Hypothesis, float, Metrics]:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("kind") != "hypothesis":
        raise InductionError(f"{path} does not contain a hypothesis document")
    clauses: list[Clause] = []
    metrics: list[Metrics] = []
    for entry in payload["clauses"]:
        body = tuple(
            ClauseLiteral(predicate=item["predicate"], args=tuple(item["args"]))
            for item in entry["body"]
        )
        clauses.append(Clause(body=body))
        metrics.append(_metrics_from_json(entry["metrics"]))
    hypothesis = Hypothesis(
        clauses=tuple(clauses),
        clause_metrics=tuple(metrics),
        warnings=tuple(payload.get("warnings", [])),
    )
    overall = _metrics_from_json(payload["overall_metrics"])
    return hypothesis, float(payload["u_plus"]), overall


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
