"""Clause learning over trajectory backgrounds.

Separates high-utility trajectories from ordinary ones by inducing a clause
set with head ``taxScheme(A, B, C, D)``.  The head variables are bound per
trajectory to role companies (by default: the company based in Ireland, the
Netherlands, the USA, and Germany).  Bodies are conjunctions over a restricted
fact vocabulary; a trajectory is covered when some clause body matches its own
background database.  Learning is greedy set cover with a beam search over
linked clauses, scored by F1 on the not-yet-covered positives.

A refinement adds one literal of a vocabulary predicate, each argument filled
by the entity type :data:`~loophound.kernel.PREDICATES` declares for its
position, as mode declarations type the refinements of Progol (Muggleton,
1995): a company by a head variable, distinct within the literal; a country
by a country the background holds at some country position; an ip by one of
the clause's IP variables, one fresh variable (at most ``_MAX_FRESH_VARS``
per clause), or an IP the background holds.  So any vocabulary of
predicates, and any binding of the head variables to role countries, is
searched by the same rule.

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

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from .kernel import PREDICATES, is_variable
from .runfiles import TrajectorySet

HEAD_PREDICATE = "taxScheme"
HEAD_VARIABLES: tuple[str, ...] = ("A", "B", "C", "D")
DEFAULT_ROLE_BINDING: tuple[tuple[str, str], ...] = (
    ("A", "ireland"),
    ("B", "netherlands"),
    ("C", "usa"),
    ("D", "germany"),
)
DEFAULT_VOCABULARY: tuple[str, ...] = ("ownsIP", "managed", "rentsIP")

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
            if variable not in HEAD_VARIABLES:
                raise InductionError(f"role variable {variable!r} is not a head variable")
            if variable in seen:
                raise InductionError(f"duplicate role variable {variable!r}")
            seen.add(variable)
            if is_variable(country):
                raise InductionError(f"role country {country!r} must be a constant")


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


class BackgroundDB:
    """The example backgrounds, indexed once, when built, for clause coverage.

    Example ``k`` of ``examples`` is bit ``k`` of every example mask, and
    ``bit_of`` maps trajectory ids to bits.  ``fact_masks`` maps each lifted
    vocabulary fact to the mask of the examples holding it, and
    ``position_values`` holds the values seen at each (predicate, argument
    position) of a vocabulary fact.  Every example binds the same role
    variables, ``role_variables``.
    """

    def __init__(
        self,
        examples: tuple[ExampleBackground, ...],
        excluded: tuple[int, ...] = (),
        warnings: tuple[str, ...] = (),
    ) -> None:
        role_variables = frozenset(
            variable for variable, _ in (examples[0].roles if examples else ())
        )
        bit_of: dict[int, int] = {}
        fact_masks: dict[tuple[str, ...], int] = {}
        values: dict[tuple[str, int], set[str]] = {}
        for bit, example in enumerate(examples):
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
                for position, value in enumerate(atom[1:]):
                    values.setdefault((atom[0], position), set()).add(value)
                for args in itertools.product(
                    *([value, *lifts.get(value, ())] for value in atom[1:])
                ):
                    key = (atom[0], *args)
                    fact_masks[key] = fact_masks.get(key, 0) | 1 << bit
        self.examples, self.excluded, self.warnings = examples, excluded, warnings
        self.bit_of, self.role_variables, self.fact_masks = bit_of, role_variables, fact_masks
        self.position_values = {key: frozenset(v) for key, v in values.items()}

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
    """Per-trajectory databases: the vocabulary facts and the role binding.

    Trajectories lacking a company in some role country are excluded with a
    warning; ``based`` facts are read only to resolve roles.
    """
    vocabulary = set(config.vocabulary)
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
        for variable, country in sorted(config.role_binding):
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


def _constant_pools(background: BackgroundDB) -> dict[str, tuple[str, ...]]:
    """Per entity type, the constants the background holds at any argument
    position of that type, sorted."""
    pools: dict[str, set[str]] = {}
    for (predicate, position), values in background.position_values.items():
        pools.setdefault(PREDICATES[predicate][position], set()).update(values)
    return {kind: tuple(sorted(values)) for kind, values in pools.items()}


def _candidate_literals(
    ip_count: int, vocabulary: Sequence[str], pools: dict[str, tuple[str, ...]]
) -> tuple[ClauseLiteral, ...]:
    """The one-literal refinements of a clause with ``ip_count`` IP variables,
    named ``Ip0``, ``Ip1``, ... as :func:`canonical_clause` names them, each
    argument filled by its entity type: a company by a head variable,
    distinct within the literal; a country by a pooled country; an ip by one
    of the clause's IP variables, one fresh variable while fewer than
    ``_MAX_FRESH_VARS`` are in use, or a pooled IP."""
    ip_variables = [f"Ip{k}" for k in range(min(ip_count + 1, _MAX_FRESH_VARS))]
    ips = (*ip_variables, *pools.get("ip", ()))
    terms = {"company": HEAD_VARIABLES, "country": pools.get("country", ()), "ip": ips}
    literals = []
    for predicate in vocabulary:
        for args in itertools.product(*(terms[kind] for kind in PREDICATES[predicate])):
            heads = [term for term in args if term in HEAD_VARIABLES]
            if len(set(heads)) == len(heads):
                literals.append(ClauseLiteral(predicate, args))
    return tuple(literals)


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
    refinements: Sequence[tuple[ClauseLiteral, ...]],
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
            ip_count = len(parent.clause.variables().difference(HEAD_VARIABLES))
            for literal in refinements[ip_count]:
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
    # a clause's refinements depend only on how many IP variables it has
    pools = _constant_pools(background)
    refinements = [
        _candidate_literals(n, config.vocabulary, pools) for n in range(_MAX_FRESH_VARS + 1)
    ]
    uncovered = positives
    clauses: list[Clause] = []
    warnings: list[str] = []
    while uncovered and len(clauses) < config.max_clauses:
        found = _search_clause(uncovered, negatives, background, config, refinements)
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
            if len(literal.args) < 2:
                continue
            label_ = _EDGE_LABELS.get(literal.predicate, literal.predicate)
            key = (literal.args[0], literal.args[1], label_)
            if key not in best or weight > best[key]:
                best[key] = weight
    edges = sorted(
        (SchemeEdge(source=s, target=t, label=l, weight=w) for (s, t, l), w in best.items()),
        key=lambda e: (-e.weight, e.source, e.label, e.target),
    )
    return SchemeGraph(edges=tuple(edges[:top_k]))
