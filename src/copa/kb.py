"""Knowledge base of recurring debate arguments.

A *motion* is an (action, topic) pair such as (ban, smoking), read as
"we should ban smoking".  A *CoPA* (class of principled arguments) is a
named recurring theme carrying exactly two opposing claims plus the set
of motions the theme applies to.  A :class:`Dataset` bundles the closed
set of actions (an id -> :class:`Action` dict), the motions, the CoPAs and
the binary match relation, and is loaded from a single JSON file.

Datasets are treated as immutable after loading; all operations here are
pure and safe for concurrent reads.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .textsim import DomainError, name_key, read_json

TOPIC_TOKEN = "[TOPIC]"

#: CoPA names treated as "general" (applicable to almost any motion)
#: when the dataset file does not list general CoPAs explicitly.
DEFAULT_GENERAL_NAMES = ("Conservatism", "Fixable", "Framework")


class ParseError(DomainError):
    """The dataset file is structurally malformed (not UTF-8, bad JSON,
    missing or mistyped fields)."""


class ValidationError(DomainError):
    """The dataset file parses but violates a domain invariant (dangling
    id, unknown action, claims that do not form an opposing pair, ...)."""


class Stance(enum.Enum):
    PRO = "pro"
    CON = "con"

    @classmethod
    def parse(cls, value: str) -> "Stance":
        try:
            return cls(str(value).strip().lower())
        except ValueError:
            raise ParseError(f"invalid stance {value!r} (expected 'pro' or 'con')") from None


@dataclass(frozen=True)
class Action:
    """One allowed action, keyed by ``id`` in ``Dataset.actions``.

    ``surface`` is the human phrasing used in claim text and feature
    sets (e.g. ``further_exploit`` -> "further exploit").  ``conclusion``
    optionally overrides the default syllogism conclusion body; it may
    contain the ``[TOPIC]`` token.
    """

    id: str
    surface: str
    conclusion: str | None = None


@dataclass(frozen=True)
class Motion:
    """An (action, topic) pair; the unit being classified."""

    id: str
    action: str
    topic: str


@dataclass(frozen=True)
class Claim:
    """One claim template; ``[TOPIC]`` is substituted at instantiation
    time.  Stance is relative to the CoPA's theme, not to any motion."""

    template: str
    stance: Stance


@dataclass(frozen=True)
class CoPA:
    """A recurring argumentative theme with exactly two opposing claims.

    ``manual_titles`` is the hand-curated list of Wikipedia titles
    related to the theme; it may be empty only for CoPAs not flagged as
    topic related.  ``motion_ids`` is derived from the dataset's label
    relation.
    """

    id: str
    name: str
    topic_related: bool
    manual_titles: tuple[str, ...]
    claims: tuple[Claim, Claim]
    motion_ids: frozenset[str] = frozenset()

    def claim(self, stance: Stance) -> Claim:
        for c in self.claims:
            if c.stance is stance:
                return c
        raise ValidationError(f"CoPA {self.id!r} has no {stance.value} claim")


@dataclass
class Dataset:
    """Motions, CoPAs and the match relation between them.

    ``actions`` maps each allowed action id to its :class:`Action`.
    ``labels`` holds (motion_id, copa_id) pairs and always equals the
    union of the CoPAs' ``motion_ids``.  ``label_flags`` carries the
    optional per-label stance marker from the file; it is ignored by
    every classifier.  ``motion_ids`` and ``copa_ids`` are the ids of
    ``motions`` and ``copas``, in order.
    """

    actions: dict[str, Action]
    motions: tuple[Motion, ...]
    copas: tuple[CoPA, ...]
    labels: frozenset[tuple[str, str]]
    general_copa_ids: frozenset[str]
    label_flags: dict[tuple[str, str], bool] = field(default_factory=dict)

    def __post_init__(self):
        self.motion_ids = tuple(m.id for m in self.motions)
        self.copa_ids = tuple(c.id for c in self.copas)
        self._motion_by_id = {m.id: m for m in self.motions}
        self._copa_by_id = {c.id: c for c in self.copas}

    def motion(self, motion_id: str) -> Motion:
        return self._motion_by_id[motion_id]

    def copa(self, copa_id: str) -> CoPA:
        return self._copa_by_id[copa_id]

    def included_copa_ids(self, exclude_general: bool) -> tuple[str, ...]:
        if not exclude_general:
            return self.copa_ids
        return tuple(c.id for c in self.copas if c.id not in self.general_copa_ids)

    @functools.cached_property
    def label_counts(self) -> "LabelCounts":
        """The label relation of every motion as integer counts, built once."""
        return LabelCounts.of(self)


@dataclass(frozen=True, eq=False)
class LabelCounts:
    """The label relation as integer counts, read by BA, both blacklists,
    the count features and the statistics.  Per motion (row ``rows[id]``):
    its action's ``actions`` column and its CoPA rows (``member``).  Over the
    motions counted: their number, per action, the members of each CoPA
    and those with each action.  ``without_motion(id)`` subtracts one."""

    copa_ids: tuple[str, ...]
    actions: dict[str, int]
    rows: dict[str, int]
    action: np.ndarray
    member: np.ndarray
    n_motions: int
    action_size: np.ndarray
    copa_size: np.ndarray
    copa_action: np.ndarray

    @classmethod
    def of(cls, ds: Dataset) -> "LabelCounts":
        actions = {a: j for j, a in enumerate(ds.actions)}
        rows = {m.id: i for i, m in enumerate(ds.motions)}
        action = np.array([actions[m.action] for m in ds.motions], dtype=np.intp)
        member = np.zeros((len(ds.motions), len(ds.copas)), dtype=bool)
        for j, c in enumerate(ds.copas):
            member[np.array([rows[mid] for mid in c.motion_ids], dtype=np.intp), j] = True
        one_hot = np.eye(len(actions), dtype=np.int64)[action]
        return cls(ds.copa_ids, actions, rows, action, member, len(ds.motions),
                   one_hot.sum(axis=0), member.sum(axis=0), member.T.astype(np.int64) @ one_hot)

    def without_motion(self, motion_id: str) -> "LabelCounts":
        """The counts less motion ``motion_id``, which must be counted here."""
        i = self.rows[motion_id]
        a, copas = self.action[i], self.member[i]
        action_size, copa_action = self.action_size.copy(), self.copa_action.copy()
        action_size[a] -= 1
        copa_action[copas, a] -= 1
        return replace(self, n_motions=self.n_motions - 1, action_size=action_size,
                       copa_size=self.copa_size - copas, copa_action=copa_action)

    def with_action(self, action: str) -> tuple[int, np.ndarray]:
        """The counted motions with ``action``, and per CoPA its counted
        members with it; 0 for an action outside the dataset's actions."""
        col = self.actions.get(action)
        if col is None:
            return 0, np.zeros(len(self.copa_ids), dtype=np.int64)
        return int(self.action_size[col]), self.copa_action[:, col]

    def blacklisted(self, action: str) -> np.ndarray:
        """Per CoPA, whether no counted member has the dataset action
        ``action``: the W2V and NB blacklists force the score there to 0."""
        return (self.with_action(action)[1] == 0) & (action in self.actions)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def _require(record: dict, key: str, kind, where: str):
    if not isinstance(record, dict) or key not in record:
        raise ParseError(f"{where}: missing field {key!r}")
    value = record[key]
    if kind is str and not isinstance(value, str):
        raise ParseError(f"{where}: field {key!r} must be a string")
    if kind is bool and not isinstance(value, bool):
        raise ParseError(f"{where}: field {key!r} must be a boolean")
    if kind is list and not isinstance(value, list):
        raise ParseError(f"{where}: field {key!r} must be a list")
    return value


def dataset_from_dict(doc: dict, source: str = "<dict>") -> Dataset:
    """Build and validate a Dataset from an already-parsed JSON document."""
    if not isinstance(doc, dict):
        raise ParseError(f"{source}: top level must be an object")
    for key in ("actions", "copas", "motions", "labels"):
        _require(doc, key, list, source)

    parsed_actions = []
    for rec in doc["actions"]:
        aid = _require(rec, "id", str, f"{source} action")
        surface = _require(rec, "surface", str, f"{source} action {aid!r}")
        conclusion = rec.get("conclusion")
        if conclusion is not None and not isinstance(conclusion, str):
            raise ParseError(f"{source} action {aid!r}: field 'conclusion' must be a string")
        parsed_actions.append(Action(aid, surface, conclusion))
    actions: dict[str, Action] = {}
    for a in parsed_actions:
        if a.id in actions:
            raise ValidationError(f"duplicate action id {a.id!r}")
        actions[a.id] = a

    raw_copas = []
    for rec in doc["copas"]:
        cid = _require(rec, "id", str, f"{source} copa")
        name = _require(rec, "name", str, f"{source} copa {cid!r}")
        topic_related = _require(rec, "topic_related", bool, f"{source} copa {cid!r}")
        titles = _require(rec, "manual_titles", list, f"{source} copa {cid!r}")
        if not all(isinstance(t, str) for t in titles):
            raise ParseError(f"{source} copa {cid!r}: every manual title must be a string")
        claims_raw = _require(rec, "claims", list, f"{source} copa {cid!r}")
        claims = []
        for crec in claims_raw:
            stance = Stance.parse(_require(crec, "stance", str, f"{source} copa {cid!r} claim"))
            template = _require(crec, "template", str, f"{source} copa {cid!r} claim")
            claims.append(Claim(template, stance))
        raw_copas.append((cid, name, topic_related, tuple(titles), tuple(claims)))

    motions = []
    for rec in doc["motions"]:
        mid = _require(rec, "id", str, f"{source} motion")
        action = _require(rec, "action", str, f"{source} motion {mid!r}")
        topic = _require(rec, "topic", str, f"{source} motion {mid!r}")
        motions.append(Motion(mid, action, topic))

    labels = set()
    flags: dict[tuple[str, str], bool] = {}
    for rec in doc["labels"]:
        mid = _require(rec, "motion", str, f"{source} label")
        cid = _require(rec, "copa", str, f"{source} label ({mid!r})")
        labels.add((mid, cid))
        flag = rec.get("claim_stance_pro_means_support")
        if flag is not None:
            if not isinstance(flag, bool):
                raise ParseError(
                    f"{source} label ({mid!r},{cid!r}): "
                    "'claim_stance_pro_means_support' must be a boolean"
                )
            flags[(mid, cid)] = flag

    # --- semantic validation -------------------------------------------------
    copa_ids = {cid for cid, *_ in raw_copas}
    motion_ids = set()
    for m in motions:
        if not name_key(m.topic):
            raise ValidationError(f"motion {m.id!r}: empty topic")
        if m.action not in actions:
            raise ValidationError(f"motion {m.id!r}: unknown action {m.action!r}")
        if m.id in motion_ids:
            raise ValidationError(f"duplicate motion id {m.id!r}")
        motion_ids.add(m.id)
    pairs = {}
    for m in motions:
        key = (m.action, name_key(m.topic))
        if key in pairs:
            raise ValidationError(f"motion {m.id!r}: duplicate (action, topic) pair {key!r}")
        pairs[key] = m.id

    if len(copa_ids) != len(raw_copas):
        seen = set()
        for cid, *_ in raw_copas:
            if cid in seen:
                raise ValidationError(f"duplicate copa id {cid!r}")
            seen.add(cid)
    for cid, name, topic_related, titles, claims in raw_copas:
        stances = sorted(c.stance.value for c in claims)
        if len(claims) != 2 or stances != ["con", "pro"]:
            raise ValidationError(f"copa {cid!r}: needs exactly one pro and one con claim")
        for c in claims:
            if not c.template:
                raise ValidationError(f"copa {cid!r}: empty claim template")
        if topic_related and not titles:
            raise ValidationError(f"copa {cid!r}: topic_related but manual_titles is empty")

    for (mid, cid) in labels:
        if mid not in motion_ids:
            raise ValidationError(f"label references unknown motion {mid!r}")
        if cid not in copa_ids:
            raise ValidationError(f"label references unknown copa {cid!r}")

    if "general_copas" in doc:
        general = _require(doc, "general_copas", list, source)
        for cid in general:
            if not isinstance(cid, str):
                raise ParseError(f"{source}: general_copas entry {cid!r} is not a string")
            if cid not in copa_ids:
                raise ValidationError(f"general_copas references unknown copa {cid!r}")
        general_ids = frozenset(general)
    else:
        general_ids = frozenset(
            cid for cid, name, *_ in raw_copas if name in DEFAULT_GENERAL_NAMES
        )

    members: dict[str, set[str]] = {cid: set() for cid, *_ in raw_copas}
    for mid, cid in labels:
        members[cid].add(mid)
    copas = tuple(
        CoPA(cid, name, topic_related, titles, claims, frozenset(members[cid]))
        for cid, name, topic_related, titles, claims in raw_copas
    )

    return Dataset(actions, tuple(motions), copas, frozenset(labels), general_ids, flags)


def load_dataset(path) -> Dataset:
    """Load and validate a dataset JSON file.

    Raises ParseError for malformed files and ValidationError for files
    that parse but break a domain invariant.  I/O errors propagate.
    """
    try:
        doc = read_json(path)
    except DomainError as exc:
        raise ParseError(str(exc)) from None
    return dataset_from_dict(doc, source=str(path))


# ---------------------------------------------------------------------------
# Descriptive statistics
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class CopaStats:
    """Membership statistics over a dataset's label relation.

    ``overlap[i][j]`` is the fraction of motions of CoPA ``copa_ids[i]``
    that also belong to ``copa_ids[j]`` (rows of empty CoPAs are zero).
    """

    copa_ids: tuple[str, ...]
    sizes: dict[str, int]
    covered_fraction: float
    mean_copas_per_motion: float
    max_copas_per_motion: int
    overlap: np.ndarray


def copa_stats(ds: Dataset, exclude_general: bool = False) -> CopaStats:
    """Coverage, mean/max memberships and the pairwise overlap matrix.

    With ``exclude_general`` the three general CoPAs are dropped from
    every count; motion denominators still cover the whole dataset.
    """
    copa_ids = ds.included_copa_ids(exclude_general)
    cols = [j for j, cid in enumerate(ds.copa_ids) if cid in copa_ids]
    member = ds.label_counts.member[:, cols].astype(np.int64)
    sizes, per_motion = member.sum(axis=0), member.sum(axis=1)
    both = member.T @ member
    overlap = np.divide(both, sizes[:, None], out=np.zeros(both.shape), where=sizes[:, None] > 0)
    n_motions = len(ds.motions)
    return CopaStats(
        copa_ids=copa_ids,
        sizes=dict(zip(copa_ids, sizes.tolist())),
        covered_fraction=np.count_nonzero(per_motion) / n_motions if n_motions else 0.0,
        mean_copas_per_motion=int(per_motion.sum()) / n_motions if n_motions else 0.0,
        max_copas_per_motion=int(per_motion.max(initial=0)),
        overlap=overlap,
    )


# ---------------------------------------------------------------------------
# Claim instantiation and syllogism construction
# ---------------------------------------------------------------------------


def instantiate_claim(claim: Claim, motion: Motion) -> str:
    """Substitute every ``[TOPIC]`` occurrence with the motion's topic,
    stripped of surrounding space."""
    return claim.template.replace(TOPIC_TOKEN, motion.topic.strip())


@dataclass(frozen=True)
class Syllogism:
    major: str
    minor: str
    conclusion: str

    def lines(self) -> tuple[str, str, str]:
        return (self.major, self.minor, self.conclusion)

    def __str__(self) -> str:
        return "\n".join(self.lines())


def build_syllogism(
    motion: Motion,
    copa: CoPA,
    stance: Stance,
    actions: dict[str, Action],
    minor_override: str | None = None,
) -> Syllogism:
    """Assemble a three-line argument for a motion from a matched CoPA.

    The major premise is the CoPA claim of the requested stance with the
    topic filled in.  The minor premise links motion to theme (callers
    may override it with something more fluent).  The conclusion is
    "Therefore, we should <action> <topic>." unless the motion's
    ``actions[motion.action]`` provides a dedicated conclusion body.
    Each line holds the topic stripped of surrounding space.
    """
    topic = motion.topic.strip()
    major = instantiate_claim(copa.claim(stance), motion)
    minor = minor_override if minor_override is not None else f"{topic} relates to {copa.name}"
    action = actions[motion.action]
    if action.conclusion is not None:
        conclusion = f"Therefore, {action.conclusion.replace(TOPIC_TOKEN, topic)}."
    else:
        conclusion = f"Therefore, we should {action.surface} {topic}."
    return Syllogism(major=major, minor=minor, conclusion=conclusion)
