"""Applying trained models and measuring accuracy curves.

Replay runs the model's rules, compiled once (``rules.compile_rules``), as
patterns over the text coded one character per tag, through the one
rule-replay loop ``rules.run_rules``.  ``replay`` codes a parsed Corpus
and writes each rule's sites back to its tokens, for the curve and the
dependency report; ``tag_stream`` codes the words of a text a chunk at a
time and builds no tokens at all.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from io import TextIOBase
from itertools import repeat
from operator import ne

from .corpus import Corpus, Site, baseline_assign, parse_line
from .rules import PAD, Rule, code_corpus, compile_rules, run_rules, sites_of, tag_codes
from .training import Model, apply_at_sites

# Characters read from the input per chunk, rounded up to a whole line, so
# memory stays bounded by the chunk, not the input.
CHUNK_CHARS = 1 << 16


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
    rules = model.rules

    def fire(n: int, hits: list[int]) -> None:
        sites = sites_of(hits, starts)
        apply_at_sites(corpus, rules[n], sites)
        if on_rule is not None:
            on_rule(n + 1, rules[n], sites)

    run_rules(compile_rules(rules, codes, width), text, fire)
    return corpus


def tag(model: Model, corpus: Corpus) -> Corpus:
    """Baseline-tag the corpus, then apply the model's rules in order.

    Mutates and returns the given corpus; current tags are overwritten,
    truth tags (when present) are untouched.  Replaying a model over its
    own training corpus reproduces the trainer's final tags exactly.
    """
    return replay(model, corpus)


def tag_stream(
    model: Model,
    src: TextIOBase,
    out: TextIOBase | None = None,
    tagged: bool = False,
    on_new_tag: Callable[[str], object] | None = None,
    chunk_chars: int = CHUNK_CHARS,
) -> tuple[int, int]:
    """Tag one-sentence-per-line text from ``src`` a chunk at a time.

    Writes to ``out``, when given, exactly ``serialize_corpus(tag(model,
    parse_corpus(text, tagged)), "current")`` for the whole text, and
    returns ``(tokens, errors)``: the tokens read and, for tagged input,
    how many of them end with a tag other than their own (``error_count``
    of that corpus).  Lines are split as ``parse_corpus`` splits them and
    a malformed item raises the same ParseError, with the line number
    counted from the start of the text; chunks already tagged have been
    written by then.  With tagged input, ``on_new_tag(tag)`` is called
    once for each tag outside the model's tagset, in first-seen order.

    Each word is coded through a word -> code table built once from
    ``Lexicon.most_frequent``, and each chunk's coded string is padded
    only as wide as its longest sentence needs; the compiled rule list is
    kept per width.
    """
    codes = tag_codes(model.tagset())
    tag_of = {code: tag for tag, code in codes.items()}
    most_frequent = model.lexicon.most_frequent
    word_code = {word: codes[most_frequent(word)] for word in model.lexicon.counts}
    default = codes[model.default_tag]
    span = max((rule.span for rule in model.rules), default=0)
    compiled: dict[int, list] = {}
    seen: set[str] = set()
    tokens = errors = lineno = 0
    # readlines cuts only at "\n" (after the universal newline translation
    # of a file opened in text mode), so each chunk ends at a line break of
    # the whole text, and splitlines() then breaks it where parse_corpus
    # would break the whole text.
    while chunk := src.readlines(chunk_chars):
        sents = []
        for lineno, line in enumerate("".join(chunk).splitlines(), start=lineno + 1):
            words, tags = parse_line(line, lineno, tagged)
            if words:
                sents.append((words, tags))
        if not sents:
            continue
        width = min(span, max(len(words) for words, _ in sents))
        rules = compiled.get(width)
        if rules is None:
            rules = compiled[width] = compile_rules(model.rules, codes, width)
        pad = PAD * width
        coded = [
            "".join(map(word_code.get, words, repeat(default))) for words, _ in sents
        ]
        text = run_rules(rules, pad + pad.join(coded) + pad)
        tokens += sum(map(len, coded))
        if tagged:
            truth = pad + pad.join(
                "".join(map(codes.get, tags, repeat(PAD))) for _, tags in sents
            ) + pad
            errors += sum(map(ne, text, truth))
            if on_new_tag is not None:
                for _, tags in sents:
                    for tag in tags:
                        if tag not in codes and tag not in seen:
                            seen.add(tag)
                            on_new_tag(tag)
        if out is not None:
            pos = width
            rows = []
            for words, _ in sents:
                end = pos + len(words)
                current = map(tag_of.__getitem__, text[pos:end])
                rows.append(" ".join(map("/".join, zip(words, current))))
                pos = end + width
            out.write("\n".join(rows) + "\n")
    return tokens, errors


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
