"""Clause learning over trajectory backgrounds.

Separates high-utility trajectories from ordinary ones by inducing a clause
set with head ``taxScheme(A, B, C, D)``.  The head variables are bound per
trajectory to role companies (by default: the company based in Ireland, the
Netherlands, the USA, and Germany).  Bodies are conjunctions over a restricted
fact vocabulary; a trajectory is covered when some clause body matches its own
background database.  Learning is greedy set cover with a beam search over
linked clauses, scored by F1 on the not-yet-covered positives.

Coverage is computed on example bitsets, sharing one table across all
candidate clauses in the manner of the query packs of Blockeel et al. (JAIR
2002).  Example ``k`` of a :class:`BackgroundDB` is bit ``k`` of an int
mask.  The database maps every *lifted* vocabulary fact, one whose company
arguments may each be replaced by the role variable bound to that company, to
the mask of the examples that hold it.  A clause's coverage is then the OR,
over the assignments of its non-role variables, of the AND of its literals'
masks; see :func:`clause_covers`.

The learned hypothesis is rendered as a weighted scheme graph: every body
literal becomes an edge carrying its clause's F1 score.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import asdict, astuple, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .explorer import TrajectorySet, reject_constant
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
        if not math.isfinite(self.u_plus):
            raise InductionError(f"u_plus must be a finite number, not {self.u_plus!r}")
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

    def role_map(self) -> dict[str, str]:
        return dict(self.roles)


@dataclass(frozen=True)
class BackgroundDB:
    """The example backgrounds, indexed once for clause coverage.

    Example ``k`` of ``examples`` is bit ``k`` of every example mask, and
    ``bit_of`` maps trajectory ids to bits.  ``fact_masks`` maps each lifted
    vocabulary fact to the mask of the examples holding it, and
    ``position_values`` holds the values seen at each (predicate, argument
    position) of a vocabulary fact.  Every example binds the same role
    variables, ``role_variables``.
    """

    examples: tuple[ExampleBackground, ...]
    excluded: tuple[int, ...] = ()
    warnings: tuple[str, ...] = ()
    bit_of: dict[int, int] = field(init=False, repr=False, compare=False)
    role_variables: frozenset[str] = field(init=False, repr=False, compare=False)
    fact_masks: dict[tuple[str, ...], int] = field(init=False, repr=False, compare=False)
    position_values: dict[tuple[str, int], frozenset[str]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        role_variables = frozenset(
            variable for variable, _ in (self.examples[0].roles if self.examples else ())
        )
        bit_of: dict[int, int] = {}
        fact_masks: dict[tuple[str, ...], int] = {}
        values: dict[tuple[str, int], set[str]] = {}
        for bit, example in enumerate(self.examples):
            if example.trajectory_id in bit_of:
                raise InductionError(f"duplicate example id {example.trajectory_id}")
            if frozenset(variable for variable, _ in example.roles) != role_variables:
                raise InductionError(
                    f"example {example.trajectory_id} binds other role variables "
                    "than the first example"
                )
            bit_of[example.trajectory_id] = bit
            lifts: dict[str, list[str]] = {}
            for variable, company in example.roles:
                lifts.setdefault(company, []).append(variable)
            for atom in example.facts:
                if atom[0] == ROLE_PREDICATE:
                    continue
                for position, value in enumerate(atom[1:]):
                    values.setdefault((atom[0], position), set()).add(value)
                for args in itertools.product(
                    *([value, *lifts.get(value, ())] for value in atom[1:])
                ):
                    key = (atom[0], *args)
                    fact_masks[key] = fact_masks.get(key, 0) | 1 << bit
        object.__setattr__(self, "bit_of", bit_of)
        object.__setattr__(self, "role_variables", role_variables)
        object.__setattr__(self, "fact_masks", fact_masks)
        object.__setattr__(
            self, "position_values", {key: frozenset(v) for key, v in values.items()}
        )

    def mask(self, ids: Iterable[int]) -> int:
        """The mask of the examples with these trajectory ids; others are ignored."""
        mask = 0
        for trajectory_id in ids:
            bit = self.bit_of.get(trajectory_id)
            if bit is not None:
                mask |= 1 << bit
        return mask

    def ids(self, mask: int) -> frozenset[int]:
        """The trajectory ids of the examples in ``mask``."""
        return frozenset(
            example.trajectory_id
            for bit, example in enumerate(self.examples)
            if mask >> bit & 1
        )


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
        for company, country in state.rows("based"):
            based.setdefault(country, []).append(company)
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
            (predicate, *args)
            for predicate in vocabulary
            for args in state.rows(predicate)
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


class ClauseLiteral(NamedTuple):
    """One body literal; literals order by predicate, then by arguments."""

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
    ordered = sorted(set(body))
    renaming: dict[str, str] = {}
    for lit in ordered:
        for term in lit.args:
            if term not in renaming and term not in HEAD_VARIABLES and is_variable(term):
                renaming[term] = f"Ip{len(renaming)}"
    if all(old == new for old, new in renaming.items()):
        return Clause(body=tuple(ordered))
    renamed = [
        ClauseLiteral(lit.predicate, tuple(renaming.get(t, t) for t in lit.args))
        for lit in ordered
    ]
    return Clause(body=tuple(sorted(set(renamed))))


def clause_covers(clause: Clause, db: BackgroundDB) -> int:
    """The mask of the examples in ``db`` whose background entails the body.

    Role variables stay in the literals, as in the lifted facts.  Every other
    variable ranges over the values seen at all of its positions, which is
    exact because a literal holds only on a value seen at its position.  The
    mask is the OR, over those assignments, of the AND of the literals'
    masks; an empty body covers every example.
    """
    role_variables = db.role_variables
    position_values = db.position_values
    fact_masks = db.fact_masks
    covered = (1 << len(db.examples)) - 1
    # free variables in order of first appearance, with their domains; each
    # literal is looked up once the last of its free variables is bound, and
    # the literals without one are looked up at once
    free: dict[str, int] = {}
    domains: list[frozenset[str]] = []
    stages: list[list[ClauseLiteral]] = [[]]
    for literal in clause.body:
        stage = 0
        for position, term in enumerate(literal.args):
            if term in role_variables or not is_variable(term):
                continue
            seen = position_values.get((literal.predicate, position), frozenset())
            level = free.get(term)
            if level is None:
                level = free[term] = len(domains)
                domains.append(seen)
                stages.append([])
            else:
                domains[level] &= seen
            stage = max(stage, level + 1)
        if stage:
            stages[stage].append(literal)
        else:
            covered &= fact_masks.get((literal.predicate, *literal.args), 0)
    if not free or not covered:
        return covered
    return _extend_cover(0, covered, list(free), domains, stages, fact_masks, {})


def _extend_cover(
    level: int,
    mask: int,
    variables: list[str],
    domains: list[frozenset[str]],
    stages: list[list[ClauseLiteral]],
    fact_masks: dict[tuple[str, ...], int],
    binding: dict[str, str],
) -> int:
    """The part of ``mask`` covered once ``variables[level:]`` are bound too,
    each over its domain, the literals of each stage narrowing the mask as
    their last free variable is bound.  A module function, not a closure: a
    recursive closure would form a reference cycle on every call."""
    if level == len(variables) or not mask:
        return mask
    variable = variables[level]
    union = 0
    for value in domains[level]:
        binding[variable] = value
        narrowed = mask
        for literal in stages[level + 1]:
            narrowed &= fact_masks.get(
                (literal.predicate, *[binding.get(t, t) for t in literal.args]), 0
            )
        union |= _extend_cover(
            level + 1, narrowed, variables, domains, stages, fact_masks, binding
        )
        if union == mask:
            break
    return union


def _union_mask(clauses: Iterable[Clause], db: BackgroundDB) -> int:
    covered = 0
    for clause in clauses:
        covered |= clause_covers(clause, db)
    return covered


def covered_ids(clauses: Sequence[Clause], db: BackgroundDB) -> frozenset[int]:
    """Ids of examples entailed by any clause of the set."""
    return db.ids(_union_mask(clauses, db))


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

    def __post_init__(self) -> None:
        values = astuple(self)
        if not (
            all(type(v) is int and v >= 0 for v in values[:4])
            and all(v is None or type(v) is float for v in values[4:])
        ):
            raise InductionError(f"malformed metrics: {self}")

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
    return _score_clauses(
        hypothesis.clauses,
        background.mask(examples.positives),
        background.mask(examples.negatives),
        background,
    )


def _score_clauses(
    clauses: Sequence[Clause], positive: int, negative: int, background: BackgroundDB
) -> Metrics:
    """Counts of the positive and negative example masks the clauses cover."""
    covered = _union_mask(clauses, background)
    tp = (covered & positive).bit_count()
    fp = (covered & negative).bit_count()
    return Metrics.from_counts(
        tp, fp, negative.bit_count() - fp, positive.bit_count() - tp
    )


def _constant_pools(background: BackgroundDB) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Country and IP constants observed anywhere in the databases."""
    values = background.position_values
    empty: frozenset[str] = frozenset()
    countries = values.get(("managed", 1), empty)
    ips = values.get(("ownsIP", 1), empty) | values.get(("rentsIP", 2), empty)
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
    pos_covered: int  # example masks
    neg_covered: int
    f1: float

    def key(self) -> tuple:
        return (-self.f1, len(self.clause.body), self.serial)


def _clause_f1(tp: int, fp: int, fn: int) -> float:
    denominator = 2 * tp + fp + fn
    if denominator == 0:
        return 0.0
    return 2 * tp / denominator


def _search_clause(
    uncovered: int,
    negatives: int,
    background: BackgroundDB,
    config: InductionConfig,
    countries: Sequence[str],
    ips: Sequence[str],
) -> Optional[_Candidate]:
    """Beam search for the linked clause maximizing F1 on uncovered positives.

    ``uncovered`` and ``negatives`` are example masks.  A refinement reached
    from several parents is scored once per level, since its coverage does
    not depend on the parent it came from.
    """
    total_uncovered = uncovered.bit_count()
    root = _Candidate(
        clause=Clause(body=()),
        serial="",
        pos_covered=uncovered,
        neg_covered=negatives,
        f1=_clause_f1(total_uncovered, negatives.bit_count(), 0),
    )
    beam: list[_Candidate] = [root]
    best: Optional[_Candidate] = None
    for _ in range(config.max_literals):
        seen: set[tuple[ClauseLiteral, ...]] = set()
        pool: list[_Candidate] = []
        for parent in beam:
            body = parent.clause.body
            for literal in _candidate_literals(parent.clause, config.vocabulary, countries, ips):
                if literal in body:
                    continue
                clause = canonical_clause(body + (literal,))
                if len(clause.body) != len(body) + 1 or clause.body in seen:
                    continue
                seen.add(clause.body)
                covered = clause_covers(clause, background)
                pos = covered & uncovered
                if not pos:
                    continue
                neg = covered & negatives
                tp = pos.bit_count()
                pool.append(
                    _Candidate(
                        clause=clause,
                        serial=clause.serialize(),
                        pos_covered=pos,
                        neg_covered=neg,
                        f1=_clause_f1(tp, neg.bit_count(), total_uncovered - tp),
                    )
                )
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
    positives = background.mask(examples.positives)
    negatives = background.mask(examples.negatives)
    if not positives:
        raise InductionError("all positive examples were excluded from the background")
    countries, ips = _constant_pools(background)
    uncovered = positives
    clauses: list[Clause] = []
    warnings: list[str] = []
    while uncovered and len(clauses) < config.max_clauses:
        found = _search_clause(uncovered, negatives, background, config, countries, ips)
        if found is None or found.f1 <= 0.0:
            if not clauses:
                warnings.append("no clause with positive score exists; hypothesis is empty")
            else:
                warnings.append(
                    f"{uncovered.bit_count()} positive example(s) left uncovered; "
                    "no further clause has positive score"
                )
            break
        clauses.append(found.clause)
        uncovered &= ~found.pos_covered
    if uncovered and len(clauses) == config.max_clauses:
        warnings.append(
            f"clause budget {config.max_clauses} reached with "
            f"{uncovered.bit_count()} positive example(s) uncovered"
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
             "metrics": asdict(metrics)}
            for clause, metrics in zip(hypothesis.clauses, hypothesis.clause_metrics)
        ],
        "overall_metrics": asdict(overall),
        "warnings": list(hypothesis.warnings),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def read_hypothesis_json(path) -> tuple[Hypothesis, float, Metrics]:
    """Hypothesis, ``u_plus`` and overall metrics of a document written by
    :func:`write_hypothesis_json`; a malformed document, a non-finite number
    included, raises :class:`InductionError`."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(text, parse_constant=reject_constant)
        if not isinstance(payload, dict) or payload.get("kind") != "hypothesis":
            raise InductionError("not a hypothesis document")
        clauses, metrics = [], []
        for entry in payload["clauses"]:
            body = tuple(
                ClauseLiteral(item["predicate"], tuple(item["args"]))
                for item in entry["body"]
            )
            for lit in body:
                arity = len(PREDICATES.get(lit.predicate, ()))
                if not arity or len(lit.args) != arity or any(
                    type(a) is not str for a in lit.args
                ):
                    raise InductionError(f"malformed clause body literal {lit}")
            clauses.append(Clause(body=body))
            metrics.append(Metrics(**entry["metrics"]))
        hypothesis = Hypothesis(
            clauses=tuple(clauses),
            clause_metrics=tuple(metrics),
            warnings=tuple(payload.get("warnings", [])),
        )
        overall = Metrics(**payload["overall_metrics"])
        return hypothesis, float(payload["u_plus"]), overall
    except (KeyError, TypeError, ValueError) as exc:
        raise InductionError(f"{type(exc).__name__}: {exc}") from exc


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
