"""Shared training machinery: configuration, selection, report tables, model files.

Both trainers (the per-pass rescanning one and the incremental one) select
rules the same way, emit the same trace records and accuracy column, and
produce the same Model, so a given corpus, config, and seed yield
identical results from either engine.  Every report table (trace, curve,
audit log, ``tbltag eval``'s body, the dependency report's counts) is
written by ``tsv``.
"""

from __future__ import annotations

import errno
import math
import os
import random
import stat
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from itertools import count

from .corpus import BOUNDARY, Lexicon
from .rules import (
    DEFAULT_TEMPLATES,
    DecodeError,
    Rule,
    RuleScore,
    Template,
    apply_at_sites,  # both trainers import it from here
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
    record_deps: bool = False  # marks the model for `tbltag deps`; on_rule records links

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
    the incremental trainer's picks from its draw list.
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


# --- report tables -----------------------------------------------------------


def tsv(rows) -> str:
    """One tab-separated line per row, each cell as ``str`` writes it: a float
    as its ``repr``, which reads back to the same float, so tables compare exactly."""
    return "".join("\t".join(map(str, row)) + "\n" for row in rows)


def trace_tsv(records) -> str:
    """Tab-separated trace, one selected rule per line."""
    return tsv([
        ("pass", "rule_canonical", "rule_display", "pos", "neg", "neut", "train_acc"),
        *((r.pass_no, r.rule.canonical, display_rule(r.rule), r.pos, r.neg, r.neut,
           r.train_accuracy_after) for r in records),
    ])


def curve_tsv(train: list[float], test: list[float] | None = None) -> str:
    """The curve of per-pass accuracy columns: pass ``n`` at index ``n``, the baseline at 0."""
    if test is None:
        return tsv([("pass", "train_acc"), *enumerate(train)])
    return tsv([("pass", "train_acc", "test_acc"), *zip(count(), train, test)])


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


def _temp_file(path: str) -> tuple[int, str, str] | None:
    """Create the temp file atomic_writer writes for path: ``(fd, temp path, real path)``.

    A symlink is followed, so the link survives and its target is replaced.
    A directory is refused here, naming it, rather than by the os.replace
    after the whole write.  A FIFO or a device cannot be replaced without
    being destroyed, so it is written in place: None, if it is writable.
    """
    mode = os.stat(path).st_mode if os.path.exists(path) else stat.S_IFREG
    if stat.S_ISDIR(mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not stat.S_ISREG(mode):
        if not os.access(path, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return None
    real = os.path.realpath(path)
    directory, name = os.path.split(real)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp, real


def check_writable(path: str) -> None:
    """Raise OSError now if atomic_writer could not write path.

    It makes and removes the temp file atomic_writer would write, so a
    long run can find out before it starts that it could not save.
    """
    made = _temp_file(path)
    if made is not None:
        os.close(made[0])
        os.unlink(made[1])


@contextmanager
def atomic_writer(path: str):
    """A text file handle whose contents replace path only on success.

    It writes a temp file beside the file path names, which replaces it
    once the block exits normally; on an exception the temp file is removed
    and the file is left as it was.  So no reader ever sees a half-written
    file.  A FIFO or a device is written in place (``_temp_file``).
    """
    made = _temp_file(path)
    if made is None:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    fd, tmp, real = made
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, real)
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
    engines must produce byte-identical files, and parse_model accepts
    only what this writes.  Raises ModelFormatError for a rule whose tags
    the encoding cannot carry (one that would read back as a different
    rule); for an empty tag or lexicon word, or one holding whitespace,
    which the whitespace-split lines cannot carry; for a lexicon tag that
    is the reserved BOUNDARY, which tagging would read as the sentence
    edge; and for a lexicon word with no tags or a count below 1.
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
    return _render(model)


def _render(model: Model) -> str:
    """``format_model`` less its rule read-back check, which every rule
    ``decode_rule`` returns passes: it cuts the head at the first '>' and
    the context only at ``,N:`` boundaries.
    """
    tags = model.tagset()
    if BOUNDARY in tags:
        raise ModelFormatError(f"tag {BOUNDARY!r} is reserved for sentence boundaries")
    for tag in tags:
        _check_item(tag, "tag")
    words = sorted(model.lexicon.counts)
    for word in words:
        _check_item(word, "word")
        counts = model.lexicon.counts[word]
        if not counts or min(counts.values()) < 1:
            raise ModelFormatError(
                f"lexicon entry for {word!r} counts {counts}: a word needs tags seen at least once"
            )
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


def _value(lines, key: str) -> str:
    """What follows ``key`` and one space on the next line."""
    line = _take(lines, f"{key} line")
    name, _, value = line.partition(" ")
    if name != key:
        raise ModelFormatError(f"expected {key!r} line, got {line!r}")
    return value


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ModelFormatError(f"expected an integer {what}, got {text!r}") from None


def _first_difference(text: str, written: str) -> ModelFormatError:
    """Name the first line of text that is not the line saving writes there."""
    got, want = text.splitlines(True), written.splitlines(True)
    i = next(i for i, (g, w) in enumerate(zip(got + [None], want + [None])) if g != w)
    reads = repr(got[i]) if i < len(got) else "nothing"
    writes = repr(want[i]) if i < len(want) else "nothing"
    return ModelFormatError(f"line {i + 1} reads {reads}; saving the model would write {writes}")


def parse_model(text: str) -> Model:
    """Read a model file, accepting it only if format_model writes it back.

    The lines are read for their values alone, and then the text must
    equal format_model of the model read, byte for byte; its rules were
    just decoded, so ``_render`` alone writes it.  Whatever saving
    would write differently (order, spacing, an integer's spelling, a
    blank line, a missing final newline, a carriage return) is refused
    with a ModelFormatError naming the first line that differs.  The
    templates line is read with no window bound, so a model trained with
    any ``--window`` reads back.
    """
    lines = text.splitlines()
    lines.reverse()  # pop() from the front
    version = _take(lines, "version line")
    parts = version.split()
    if len(parts) != 2 or parts[0] != MODEL_FORMAT:
        raise ModelFormatError(f"not a {MODEL_FORMAT} file: {version!r}")
    if parts[1] != str(MODEL_VERSION):
        raise ModelFormatError(f"unsupported {MODEL_FORMAT} version {parts[1]!r}")

    keys = ("templates", "threshold", "strategy", "seed", "max-passes", "deps", "default-tag")
    settings = {key: _value(lines, key) for key in keys}
    max_passes = settings["max-passes"]
    try:
        config = TrainerConfig(
            templates=parse_template_spec(settings["templates"], window=math.inf),
            threshold=_int(settings["threshold"], "threshold"),
            strategy=Strategy(settings["strategy"]),
            rng_seed=_int(settings["seed"], "seed"),
            max_passes=_int(max_passes, "max-passes") if max_passes else None,
            record_deps=settings["deps"] == "1",
        )
    except ValueError as exc:
        raise ModelFormatError(f"bad training settings: {exc}") from None
    try:
        lexicon = Lexicon(settings["default-tag"])
    except ValueError as exc:
        raise ModelFormatError(f"bad default tag: {exc}") from None
    _take(lines, "tags line")  # the model's tagset, which the comparison checks

    for _ in range(_int(_value(lines, "lexicon"), "lexicon size")):
        entry = _take(lines, "lexicon entry").split()
        if len(entry) < 3 or len(entry) % 2 == 0:
            raise ModelFormatError(f"malformed lexicon entry {' '.join(entry)!r}")
        word = entry[0]
        for tag, count in zip(entry[1::2], entry[2::2]):
            n = _int(count, f"count in lexicon entry for {word!r}")
            try:
                lexicon.add(word, tag, n)
            except ValueError as exc:
                raise ModelFormatError(f"lexicon entry for {word!r}: {exc}") from None

    n_rules = _int(_value(lines, "rules"), "rule count")
    try:
        rules = [decode_rule(_take(lines, "rule line")) for _ in range(n_rules)]
    except DecodeError as exc:
        raise ModelFormatError(str(exc)) from None
    model = Model(lexicon, rules, config)
    written = _render(model)  # refuses a lexicon count below 1
    if written != text:
        raise _first_difference(text, written)
    return model
