"""Applying trained models and measuring accuracy curves.

Replay runs each rule as a compiled pattern over the corpus coded one
character per tag, with the helpers the incremental trainer applies rules
with (``rules.code_corpus`` and ``rules.rewrite``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .corpus import Corpus, Site, baseline_assign
from .rules import Rule, code_corpus, rewrite, sites_of, tag_codes
from .training import Model, apply_at_sites


def replay(
    model: Model,
    corpus: Corpus,
    on_rule: Callable[[int, Rule, list[Site]], object] | None = None,
) -> Corpus:
    """Baseline-tag the corpus, then apply the model's rules in order.

    Each rule rewrites every site that matched before it was applied, as
    ``rules.apply_rule`` does, so overlapping matches all fire.  After
    rule ``pass_no`` (from 1) has rewritten its sites, ``on_rule(pass_no,
    rule, sites)`` is called with the sites in corpus order.  Mutates and
    returns the given corpus; current tags are overwritten, truth tags
    (when present) are untouched.

    The rules run as compiled regular expressions over the corpus coded
    one character per tag (``rules.code_corpus``), sentences separated by
    enough boundary padding for the widest rule context that can fit in a
    sentence.
    """
    baseline_assign(corpus, model.lexicon)
    codes = tag_codes(model.tagset())
    longest = max((len(sent) for sent in corpus.sentences), default=0)
    width = min(max((rule.span for rule in model.rules), default=0), longest)
    text, starts = code_corpus(corpus, codes, width)
    for pass_no, rule in enumerate(model.rules, start=1):
        text, hits = rewrite(rule, text, codes, width)
        sites = sites_of(hits, starts)
        apply_at_sites(corpus, rule, sites, pass_no, record_deps=False)
        if on_rule is not None:
            on_rule(pass_no, rule, sites)
    return corpus


def tag(model: Model, corpus: Corpus) -> Corpus:
    """Baseline-tag the corpus, then apply the model's rules in order.

    Mutates and returns the given corpus; current tags are overwritten,
    truth tags (when present) are untouched.  Replaying a model over its
    own training corpus reproduces the trainer's final tags exactly.
    """
    return replay(model, corpus)


@dataclass(slots=True)
class Curve:
    """Accuracy after each pass; pass 0 is the baseline."""

    points: list[tuple[int, float, float | None]]

    def final(self) -> tuple[int, float, float | None]:
        return self.points[-1]

    def to_tsv(self) -> str:
        with_test = any(p[2] is not None for p in self.points)
        header = "pass\ttrain_acc\ttest_acc" if with_test else "pass\ttrain_acc"
        lines = [header]
        for pass_no, train_acc, test_acc in self.points:
            row = f"{pass_no}\t{train_acc!r}"
            if with_test:
                row += f"\t{test_acc!r}"
            lines.append(row)
        return "\n".join(lines) + "\n"


def _accuracies(model: Model, corpus: Corpus, errored_only: bool) -> list[float]:
    """Accuracy of the corpus at the baseline and after each rule.

    The baseline is counted once; after that each rule moves the count of
    correct tokens by its own sites alone, each of which went from
    ``rule.frm`` to ``rule.to``.  A token without a truth tag counts as
    correct, as in ``corpus.accuracy``; rewriting it moves no count, since
    None equals neither tag.
    """
    baseline_assign(corpus, model.lexicon)
    sentences = corpus.sentences
    wrong = {
        (si, ti)
        for si, sent in enumerate(sentences)
        for ti, tok in enumerate(sent)
        if tok.truth is not None and tok.current != tok.truth
    }
    if errored_only:
        mask = wrong
        total = len(wrong)
        correct = 0
    else:
        mask = None
        total = corpus.n_tokens
        correct = total - len(wrong)

    def measure() -> float:
        return correct / total if total else 1.0

    def count(pass_no: int, rule: Rule, sites: list[Site]) -> None:
        nonlocal correct
        frm, to = rule.frm, rule.to
        for si, ti in sites:
            if mask is None or (si, ti) in mask:
                truth = sentences[si][ti].truth
                correct += (truth == to) - (truth == frm)
        points.append(measure())

    points = [measure()]
    replay(model, corpus, on_rule=count)
    return points


def evaluate_curve(
    model: Model,
    train_corpus: Corpus,
    test_corpus: Corpus | None = None,
    errored_only: bool = False,
) -> Curve:
    """Accuracy after every rule in one sweep over each corpus.

    The rules are applied once in sequence, measuring after each, rather
    than replaying the whole prefix per point.  Mutates the corpora it is
    given.  With ``errored_only`` accuracy is measured over only the
    tokens the baseline got wrong, isolating how much of the originally
    wrong material the rules repair.
    """
    train = _accuracies(model, train_corpus, errored_only)
    if test_corpus is None:
        test = [None] * len(train)
    else:
        test = _accuracies(model, test_corpus, errored_only)
    return Curve(list(zip(range(len(train)), train, test)))
