"""Shared training machinery: configuration, selection, traces, model files.

Both trainers (the per-pass rescanning one and the incremental one) select
rules the same way, emit the same trace records, and produce the same
Model, so a given corpus, config, and seed yield identical results from
either engine.
"""

from __future__ import annotations

import errno
import os
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum

from .corpus import BOUNDARY, Corpus, Lexicon, Site
from .rules import (
    DEFAULT_TEMPLATES,
    DecodeError,
    Rule,
    RuleScore,
    Template,
    decode_rule,
    display_rule,
    encodable_tag,
    parse_template_spec,
    render_template_spec,
)

MODEL_FORMAT = "tblmodel"
MODEL_VERSION = 1


class ModelFormatError(ValueError):
    """A model file does not follow the expected layout."""


class Strategy(Enum):
    """How the next rule is picked each pass."""

    GREEDY = "greedy"  # highest net score, ties to the smallest rule_order
    RANDOM = "random"  # seeded uniform draw among net-positive rules


@dataclass(frozen=True, slots=True)
class TrainerConfig:
    templates: tuple[Template, ...] = DEFAULT_TEMPLATES
    threshold: int = 2
    strategy: Strategy = Strategy.GREEDY
    rng_seed: int = 0
    max_passes: int | None = None
    record_deps: bool = False
    audit: bool = False

    def __post_init__(self):
        if self.threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {self.threshold}")
        if not self.templates:
            raise ValueError("at least one template is required")
        if self.max_passes is not None and self.max_passes < 0:
            raise ValueError(f"max_passes must be >= 0, got {self.max_passes}")


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One selected rule with its score at selection time."""

    pass_no: int
    rule: Rule
    pos: int
    neg: int
    neut: int
    train_accuracy_after: float


@dataclass(slots=True)
class Model:
    """Baseline lexicon plus the learned rule sequence, in order."""

    lexicon: Lexicon
    rules: list[Rule]
    config: TrainerConfig = field(default_factory=TrainerConfig)

    @property
    def default_tag(self) -> str:
        return self.lexicon.default_tag

    @property
    def record_deps(self) -> bool:
        return self.config.record_deps

    def tagset(self) -> list[str]:
        """Sorted tags known to the model: lexicon, default, and rule tags."""
        tags = self.lexicon.tags()
        for rule in self.rules:
            tags.add(rule.frm)
            tags.add(rule.to)
            for _, t in rule.ctx:
                if t != BOUNDARY:
                    tags.add(t)
        return sorted(tags)


def rule_order(rule: Rule) -> tuple:
    """Total order of rules: canonical encoding, then source, target, context.

    Two distinct rules can share a canonical encoding when their tags hold
    '>' or a ',N:' item boundary (``A>B>C @ -1:X`` reads either way), so the
    canonical string alone would leave such ties to the order candidates
    happened to be found in, which differs between the trainers.
    """
    return (rule.canonical, rule.frm, rule.to, rule.ctx)


def select(scored, config: TrainerConfig, rng: random.Random):
    """Pick the next rule from (rule, score-like) pairs, or None to stop.

    Greedy: the highest net score wins, ties broken by the smallest
    rule_order; returns None below the threshold.  Random: a seeded
    uniform draw over the rules with net score >= 1 sorted by rule_order,
    ignoring the threshold; returns None, without drawing, when no rule is
    net-positive.

    This is the reference trainer's selector, and the tests' oracle for
    the incremental trainer's picks from its live list.
    """
    if config.strategy is Strategy.GREEDY:
        scored = list(scored)
        # threshold >= 1, so an empty table stops too
        best = max((sc.pos - sc.neg for _, sc in scored), default=0)
        if best < config.threshold:
            return None
        rule, sc = min(
            ((r, sc) for r, sc in scored if sc.pos - sc.neg == best),
            key=lambda pair: rule_order(pair[0]),
        )
        return rule, RuleScore(sc.pos, sc.neg, sc.neut)
    eligible = [(r, sc) for r, sc in scored if sc.pos - sc.neg >= 1]
    if not eligible:
        return None
    eligible.sort(key=lambda pair: rule_order(pair[0]))
    rule, sc = eligible[rng.randrange(len(eligible))]
    return rule, RuleScore(sc.pos, sc.neg, sc.neut)


def apply_at_sites(corpus: Corpus, rule: Rule, sites: list[Site]) -> None:
    """Rewrite the current tag at each given site to the rule's target."""
    to = rule.to
    sentences = corpus.sentences
    for si, ti in sites:
        sentences[si][ti].current = to


# --- trace and curve rendering ----------------------------------------------


def trace_tsv(records) -> str:
    """Tab-separated trace, one selected rule per line."""
    lines = ["pass\trule_canonical\trule_display\tpos\tneg\tneut\ttrain_acc"]
    for r in records:
        lines.append(
            f"{r.pass_no}\t{r.rule.canonical}\t{display_rule(r.rule)}"
            f"\t{r.pos}\t{r.neg}\t{r.neut}\t{r.train_accuracy_after!r}"
        )
    return "\n".join(lines) + "\n"


# --- model files -------------------------------------------------------------


def config_pairs(config: TrainerConfig) -> list[tuple[str, str]]:
    """Stable key/value view of a config, templates in spec grammar."""
    return [
        ("templates", render_template_spec(config.templates)),
        ("threshold", str(config.threshold)),
        ("strategy", config.strategy.value),
        ("seed", str(config.rng_seed)),
        ("max-passes", "" if config.max_passes is None else str(config.max_passes)),
        ("deps", "1" if config.record_deps else "0"),
    ]


def _temp_file(path: str) -> tuple[int, str]:
    """Create the temp file atomic_writer writes for path: ``(fd, temp path)``.

    A path that is a directory is refused here, naming it, rather than by
    the os.replace after the whole write.
    """
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp


def check_writable(path: str) -> None:
    """Raise OSError now if atomic_writer could not write path.

    It makes and removes the temp file atomic_writer would write, so a
    long run can find out before it starts that it could not save.
    """
    fd, tmp = _temp_file(path)
    os.close(fd)
    os.unlink(tmp)


@contextmanager
def atomic_writer(path: str):
    """A text file handle whose contents replace path only on success.

    It writes a temp file in the same directory, which replaces path once
    the block exits normally; on an exception the temp file is removed
    and path is left as it was.  So no reader ever sees a half-written file.
    """
    fd, tmp = _temp_file(path)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_text_atomic(path: str, text: str) -> None:
    """Write text to path through ``atomic_writer``."""
    with atomic_writer(path) as fh:
        fh.write(text)


def _unreadable(item: str, kind: str, what: str):
    raise ModelFormatError(
        f"{kind} {item!r} would not read back from a model file: a {kind} may not contain {what}"
    )


def _check_item(item: str, kind: str) -> None:
    """Raise ModelFormatError unless splitting on whitespace, as the model
    file's tags and lexicon lines are read, gives the item back whole.
    """
    if not item:
        raise ModelFormatError(f"a model file cannot hold an empty {kind}")
    if item.split() != [item]:
        _unreadable(item, kind, "whitespace")


def check_tagset(tags) -> None:
    """Raise ModelFormatError for a tag a model file could not carry.

    Training can make any corpus tag a rule's source, target or context,
    and the default tag goes into the model's tagset, so checking the
    lexicon's tags up front refuses, before any pass runs, what
    format_model would otherwise refuse only after the whole run.
    """
    for tag in sorted(tags):
        _check_item(tag, "tag")
        if not encodable_tag(tag):
            _unreadable(tag, "tag", "'>' or a comma followed by an integer and a colon")


def save_model(model: Model, path: str) -> None:
    write_text_atomic(path, format_model(model))


def format_model(model: Model) -> str:
    """Render a model to its versioned plain-text form.

    Layout: version line, training settings, default tag, tagset, lexicon
    counts (words sorted, tags sorted within a word), then the learned
    rules one canonical encoding per line in application order.  The
    engine that produced the model is deliberately not recorded; both
    engines must produce byte-identical files.  Raises ModelFormatError
    for a rule whose tags the encoding cannot carry (one that would read
    back as a different rule); for an empty tag or lexicon word, or one
    holding whitespace, which the whitespace-split tags and lexicon lines
    cannot carry; and for a lexicon tag that is the reserved BOUNDARY,
    which tagging would read as the edge of the sentence.
    """
    for rule in model.rules:
        try:
            same = decode_rule(rule.canonical) == rule
        except DecodeError:
            same = False
        if not same:
            raise ModelFormatError(
                f"rule {rule.canonical!r} would not read back as itself; "
                "its tags cannot be stored in a model file"
            )
    tags = model.tagset()
    if BOUNDARY in tags:
        raise ModelFormatError(f"tag {BOUNDARY!r} is reserved for sentence boundaries")
    for tag in tags:
        _check_item(tag, "tag")
    words = sorted(model.lexicon.counts)
    for word in words:
        _check_item(word, "word")
    lines = [f"{MODEL_FORMAT} {MODEL_VERSION}"]
    for key, value in config_pairs(model.config):
        lines.append(f"{key} {value}")
    lines.append(f"default-tag {model.lexicon.default_tag}")
    lines.append(f"tags {len(tags)} {' '.join(tags)}".rstrip())
    lines.append(f"lexicon {len(words)}")
    for word in words:
        by_tag = model.lexicon.counts[word]
        parts = [word]
        for tag in sorted(by_tag):
            parts.append(tag)
            parts.append(str(by_tag[tag]))
        lines.append(" ".join(parts))
    lines.append(f"rules {len(model.rules)}")
    for rule in model.rules:
        lines.append(rule.canonical)
    return "\n".join(lines) + "\n"


def load_model(path: str) -> Model:
    with open(path, encoding="utf-8") as fh:
        return parse_model(fh.read())


def _take(lines, what: str) -> str:
    if not lines:
        raise ModelFormatError(f"unexpected end of model file, wanted {what}")
    return lines.pop()


def _int(text: str, what: str) -> int:
    """The integer text, which must be written as format_model writes it."""
    try:
        n = int(text)
        if str(n) == text:
            return n
    except ValueError:
        pass
    raise ModelFormatError(f"expected an integer {what}, got {text!r}")


def parse_model(text: str) -> Model:
    lines = text.splitlines()
    lines.reverse()  # pop() from the front
    version = _take(lines, "version line")
    parts = version.split()
    if len(parts) != 2 or parts[0] != MODEL_FORMAT:
        raise ModelFormatError(f"not a {MODEL_FORMAT} file: {version!r}")
    if parts[1] != str(MODEL_VERSION):
        raise ModelFormatError(f"unsupported {MODEL_FORMAT} version {parts[1]!r}")

    settings = {}
    for key in ("templates", "threshold", "strategy", "seed", "max-passes", "deps"):
        line = _take(lines, f"{key} line")
        name, _, value = line.partition(" ")
        if name != key:
            raise ModelFormatError(f"expected {key!r} line, got {line!r}")
        settings[key] = value
    if settings["deps"] not in ("0", "1"):
        raise ModelFormatError(f"expected deps 0 or 1, got {settings['deps']!r}")
    max_passes = settings["max-passes"]
    try:
        config = TrainerConfig(
            templates=parse_template_spec(settings["templates"], window=sys.maxsize),
            threshold=_int(settings["threshold"], "threshold"),
            strategy=Strategy(settings["strategy"]),
            rng_seed=_int(settings["seed"], "seed"),
            max_passes=_int(max_passes, "max-passes") if max_passes else None,
            record_deps=settings["deps"] == "1",
        )
    except ValueError as exc:
        raise ModelFormatError(f"bad training settings: {exc}") from None
    spec = render_template_spec(config.templates)
    if spec != settings["templates"]:
        raise ModelFormatError(f"templates {settings['templates']!r} would be written {spec!r}")

    line = _take(lines, "default-tag line")
    name, _, default_tag = line.partition(" ")
    if name != "default-tag" or not default_tag:
        raise ModelFormatError(f"expected 'default-tag TAG', got {line!r}")

    line = _take(lines, "tags line")
    parts = line.split()
    if not parts or parts[0] != "tags" or len(parts) < 2:
        raise ModelFormatError(f"expected 'tags N ...', got {line!r}")
    if len(parts) - 2 != _int(parts[1], "tag count"):
        raise ModelFormatError(f"tags line announces {parts[1]} tags, has {len(parts) - 2}")
    listed = parts[2:]

    line = _take(lines, "lexicon line")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "lexicon":
        raise ModelFormatError(f"expected 'lexicon N', got {line!r}")
    try:
        lexicon = Lexicon(default_tag)
    except ValueError as exc:
        raise ModelFormatError(f"bad default tag: {exc}") from None
    for _ in range(_int(parts[1], "lexicon size")):
        entry = _take(lines, "lexicon entry").split()
        if len(entry) < 3 or len(entry) % 2 == 0:
            raise ModelFormatError(f"malformed lexicon entry {' '.join(entry)!r}")
        word, tags = entry[0], entry[1::2]
        if word in lexicon.counts:
            raise ModelFormatError(f"two lexicon entries for {word!r}")
        if len(set(tags)) != len(tags):
            raise ModelFormatError(f"lexicon entry for {word!r} lists a tag twice")
        if BOUNDARY in tags:
            raise ModelFormatError(f"lexicon entry for {word!r} holds the reserved {BOUNDARY!r}")
        for tag, count in zip(tags, entry[2::2]):
            n = _int(count, f"count in lexicon entry for {word!r}")
            if n < 1:
                raise ModelFormatError(f"lexicon entry for {word!r} counts {tag!r} {n} times")
            lexicon.add(word, tag, n)

    line = _take(lines, "rules line")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "rules":
        raise ModelFormatError(f"expected 'rules N', got {line!r}")
    rules = []
    for _ in range(_int(parts[1], "rule count")):
        encoded = _take(lines, "rule line")
        try:
            rules.append(decode_rule(encoded))
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from None
    if any(line.strip() for line in lines):
        raise ModelFormatError("trailing content after the rules section")
    model = Model(lexicon, rules, config)
    tagset = model.tagset()
    if listed != tagset:
        raise ModelFormatError(
            f"tags line lists {' '.join(listed)!r}, the model's tags are {' '.join(tagset)!r}"
        )
    return model
