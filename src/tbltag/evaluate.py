"""Applying trained models and measuring accuracy curves.

``tag`` is the plain replay, the oracle: the baseline, then
``rules.apply_rule`` for each rule over a parsed Corpus.  ``tag_stream``,
the fast replay checked against it, codes a text a chunk of lines at a
time, one character per tag, runs the rules through ``rules.run_rules``
compiled once per padding width, builds no tokens, counts the errors left
after each rule and hands each rule's sites to ``on_rule``, for the
dependency report.  ``Tally.accuracies`` reads an accuracy column off the
counts, pass ``n`` at index ``n``, as the trainers return their curve, and
``training.curve_tsv`` writes the curve file from such columns.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from io import TextIOBase
from itertools import accumulate, repeat
from operator import ne, sub

from .corpus import Corpus, Site, accuracy_of, baseline_assign, parse_lines
from .rules import (PAD, Rule, apply_rule, compile_rules, join_padded, run_rules, sites_of,
                    tag_codes)
from .training import Model


def tag(model: Model, corpus: Corpus) -> Corpus:
    """Baseline-tag the corpus, then apply each rule in order with ``rules.apply_rule``.

    Mutates and returns the given corpus; current tags are overwritten,
    truth tags (when present) are untouched.  Replaying a model over its
    own training corpus reproduces the trainer's final tags exactly.
    """
    baseline_assign(corpus, model.lexicon)
    for rule in model.rules:
        apply_rule(rule, corpus)
    return corpus


@dataclass(slots=True)
class Tally:
    """What ``tag_stream`` counted over a whole text.

    ``errors`` are those left after the last rule.  For tagged text, rule
    ``n`` (from 0) lowered the errors over all tokens by ``fixed[n]``, and
    over only the tokens the baseline got wrong by ``repaired[n]``.
    """

    tokens: int
    errors: int
    fixed: list[int]
    repaired: list[int]

    def accuracies(self, errored_only: bool = False) -> list[float]:
        """Accuracy at the baseline and after each rule, from whole-text counts.

        With ``errored_only`` it is measured over only the tokens the
        baseline got wrong, isolating how much of them the rules repair.
        """
        baseline = self.errors + sum(self.fixed)
        total, steps = (baseline, self.repaired) if errored_only else (self.tokens, self.fixed)
        return [accuracy_of(total, wrong) for wrong in accumulate(steps, sub, initial=baseline)]


def tag_stream(
    model: Model,
    chunks: Iterable[tuple[int, list[str]]],
    out: TextIOBase | None = None,
    tagged: bool = False,
    on_new_tag: Callable[[str], object] | None = None,
    on_rule: Callable[[int, Rule, list[Site]], object] | None = None,
) -> Tally:
    """Tag one-sentence-per-line text given as ``(first line number, lines)`` chunks.

    Writes to ``out``, when given, exactly ``serialize_corpus(tag(model,
    parse_corpus(text, tagged)), "current")`` for the whole text, and
    returns the ``Tally`` of it: the tokens read and, for tagged input,
    how many of them end with a tag other than their own (``error_count``
    of that corpus) and how many errors each rule removed.  The chunks are
    those ``corpus.text_chunks`` or ``corpus.file_chunks`` yields for the
    text, so a malformed item raises the ParseError ``parse_corpus`` raises;
    chunks already tagged have been written by then.  With tagged input,
    ``on_new_tag(tag)`` is called once for each tag outside the model's
    tagset, in first-seen order, and after rule ``pass_no`` (from 1) has
    rewritten hits in a chunk, ``on_rule(pass_no, rule, sites)`` is called
    with their sites in order, sentences counted from the start of the text.

    Each word is coded through a word -> code table built once from
    ``Lexicon.most_frequent``, and each chunk's sentences are joined by
    ``rules.join_padded`` on their own; the compiled rule list is kept per
    width.  A truth tag outside the tagset is coded as padding, which no
    rule's tags match.
    """
    codes = tag_codes(model.tagset())
    tag_of = {code: tag for tag, code in codes.items()}
    most_frequent = model.lexicon.most_frequent
    word_code = {word: codes[most_frequent(word)] for word in model.lexicon.counts}
    default = codes[model.default_tag]
    reach = max((rule.span for rule in model.rules), default=0)
    ends = [(codes[rule.frm], codes[rule.to]) for rule in model.rules]
    fixed = [0] * len(ends)
    repaired = [0] * len(ends)
    compiled: dict[int, list] = {}
    seen: set[str] = set()
    tokens = errors = sentences = 0
    for first, lines in chunks:
        sents = parse_lines(first, lines, tagged)
        if not sents:
            continue
        coded = ["".join(map(word_code.get, words, repeat(default))) for words, _ in sents]
        base, starts, width = join_padded(coded, reach)
        rules = compiled.get(width)
        if rules is None:
            rules = compiled[width] = compile_rules(model.rules, codes, width)
        tokens += sum(map(len, coded))
        if tagged:
            truths = ["".join(map(codes.get, tags, repeat(PAD))) for _, tags in sents]
            truth = join_padded(truths, reach)[0]

            def count_hits(n: int, hits: list[int]) -> None:
                frm, to = ends[n]
                for h in hits:
                    step = (truth[h] == to) - (truth[h] == frm)
                    fixed[n] += step
                    if base[h] != truth[h]:
                        repaired[n] += step
                if hits and on_rule is not None:
                    sites = [(sentences + si, ti) for si, ti in sites_of(hits, starts)]
                    on_rule(n + 1, model.rules[n], sites)

            text = run_rules(rules, base, count_hits)
            errors += sum(map(ne, text, truth))
            if on_new_tag is not None:
                for _, tags in sents:
                    for tag in tags:
                        if tag not in codes and tag not in seen:
                            seen.add(tag)
                            on_new_tag(tag)
        else:
            text = run_rules(rules, base)
        if out is not None:
            rows = []
            for (words, _), start in zip(sents, starts):
                current = map(tag_of.__getitem__, text[start : start + len(words)])
                rows.append(" ".join(map("/".join, zip(words, current))))
            out.write("\n".join(rows) + "\n")
        sentences += len(sents)
        del sents  # so that two chunks' words are never held at once
    return Tally(tokens, errors, fixed, repaired)

