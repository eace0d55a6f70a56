"""Tagged corpora: parsing, lexicons, baseline tagging, accuracy.

A corpus is a list of sentences, each a list of tokens carrying the gold
tag (``truth``) and the working tag (``current``).  Training mutates only
``current``; ``truth`` and words are fixed after parsing.  Dependency links
are kept apart from the tokens, keyed by site (``dependency.record_pass``).

Every pass reads a corpus as ``(first line number, lines)`` chunks
(``text_chunks``, ``file_chunks``), and ``parse_lines`` parses a chunk's
lines with ``parse_line``, the one item rule.  The train front end builds
no tokens: ``count_tagged`` counts whole ``word/TAG`` items, splits each
distinct one into its ``(word, tag)`` pair, and ``lexicon_of`` files the
pairs, as ``build_lexicon`` files a Corpus's.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice, repeat

# Reserved pseudo-tag returned for positions outside the sentence.  It may
# appear in rule contexts but never as a token tag, a rule's source/target,
# or a lexicon entry.
BOUNDARY = sys.intern("<B>")

# (sentence index, token index)
Site = tuple[int, int]

# Characters read from the input per chunk, rounded up to a whole line, so
# memory stays bounded by the chunk, not the input.
CHUNK_CHARS = 1 << 16

_ITEM_RE = re.compile(r"\S+")


class ParseError(ValueError):
    """Malformed corpus text.  Carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(slots=True)
class Token:
    word: str
    truth: str | None
    current: str | None = None


class Corpus:
    """Sentences of tokens.  Equality compares their words and tags."""

    __slots__ = ("sentences", "n_tokens")

    def __init__(self, sentences: list[list[Token]]):
        self.sentences = sentences
        self.n_tokens = sum(len(s) for s in sentences)

    def __eq__(self, other):
        if not isinstance(other, Corpus):
            return NotImplemented
        return self.sentences == other.sentences

    def __len__(self):
        return len(self.sentences)

    def __repr__(self):
        return f"Corpus({len(self.sentences)} sentences, {self.n_tokens} tokens)"


def parse_line(line: str, lineno: int, tagged: bool = True) -> tuple[list[str], list[str] | None]:
    """The words of one line's whitespace-separated items, and their tags.

    Tagged items are ``word/TAG`` where the tag is everything after the
    last slash, so words may contain slashes.  With ``tagged=False`` items
    are bare words and the tags are None.  ``lineno`` is the 1-based line
    number a ParseError reports.
    """
    items = line.split()
    if not tagged:
        return items, None
    words = []
    tags = []
    for item in items:
        word, _, tag = item.rpartition("/")
        if not word or not tag or tag == BOUNDARY:
            _refuse_item(line, lineno, len(words))
        words.append(word)
        tags.append(tag)
    return words, tags


def _refuse_item(line: str, lineno: int, k: int):
    """Raise the ParseError for the line's ``k``-th item (from 0)."""
    for m in _ITEM_RE.finditer(line):
        if k == 0:
            break
        k -= 1
    item = m.group()
    col = m.start() + 1
    cut = item.rfind("/")
    if cut < 0:
        raise ParseError(f"item {item!r} has no '/TAG' part", lineno, col)
    if cut == 0:
        raise ParseError(f"item {item!r} has an empty word", lineno, col)
    if cut == len(item) - 1:
        raise ParseError(f"item {item!r} has an empty tag", lineno, col)
    raise ParseError(f"tag {BOUNDARY!r} is reserved for sentence boundaries", lineno, col)


def parse_lines(first: int, lines: list[str], tagged: bool = True) -> list[tuple]:
    """``parse_line`` of each non-blank line of a chunk, the lines numbered from ``first``."""
    sentences = []
    for lineno, line in enumerate(lines, first):
        words, tags = parse_line(line, lineno, tagged)
        if words:
            sentences.append((words, tags))
    return sentences


def parse_corpus(text: str, tagged: bool = True) -> Corpus:
    """Parse one-sentence-per-line text of whitespace-separated items.

    Lines are split by ``str.splitlines``, a chunk (``text_chunks``) at a
    time, and parsed by ``parse_lines``.  Blank lines are skipped.
    """
    intern = sys.intern
    sentences = []
    for first, lines in text_chunks(text):
        for words, tags in parse_lines(first, lines, tagged):
            tags = repeat(None) if tags is None else map(intern, tags)
            sentences.append([Token(intern(word), tag, tag) for word, tag in zip(words, tags)])
    return Corpus(sentences)


def serialize_corpus(corpus: Corpus, which: str = "truth") -> str:
    """Render a corpus back to text, one sentence per line, single spaces.

    ``which`` selects the tag written: "truth" or "current".
    """
    if which not in ("truth", "current"):
        raise ValueError(f"which must be 'truth' or 'current', got {which!r}")
    lines = []
    for sent in corpus.sentences:
        parts = []
        for tok in sent:
            tag = tok.truth if which == "truth" else tok.current
            if tag is None:
                raise ValueError(f"token {tok.word!r} has no {which} tag to serialize")
            parts.append(f"{tok.word}/{tag}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n" if lines else ""


class Lexicon:
    """Word -> tag frequency table with a default for unknown words.

    ``most_frequent`` breaks count ties by the lexicographically smallest
    tag symbol so baseline tagging is deterministic.  The default tag must
    pass the check ``add`` makes of a tag.  ``add`` interns the words and
    tags it files, as ``parse_corpus`` interns a token's, so that the
    reference trainer's tag comparisons and lookups mostly succeed by identity.
    """

    def __init__(self, default_tag: str, counts: dict[str, dict[str, int]] | None = None):
        _check_item(default_tag, "tag")
        if default_tag == BOUNDARY:
            raise ValueError(f"default_tag may not be the reserved {BOUNDARY!r}")
        self.default_tag = sys.intern(default_tag)
        self.counts: dict[str, dict[str, int]] = counts if counts is not None else {}
        self._best: dict[str, str] = {}

    def add(self, word: str, tag: str, n: int = 1) -> None:
        """Count ``n`` more uses of ``word`` with ``tag``.

        Raises ValueError for an empty word or tag, one holding whitespace,
        or the tag BOUNDARY: no corpus line or model file could carry it.
        Each is checked only when first seen, as a word or as its tag, and
        a refused one leaves the table as it was.
        """
        by_tag = self.counts.get(word)
        if by_tag is None:
            _check_item(word, "word")
            word = sys.intern(word)
            by_tag = {}
        old = by_tag.get(tag)
        if old is None:
            _check_item(tag, "tag")
            tag = sys.intern(tag)
            if tag == BOUNDARY:
                raise ValueError(f"tag {BOUNDARY!r} is reserved for sentence boundaries")
            old = 0
            self.counts[word] = by_tag  # a new word is filed only once its tag passes
        by_tag[tag] = old + n
        self._best.pop(word, None)

    def most_frequent(self, word: str) -> str:
        best = self._best.get(word)
        if best is not None:
            return best
        by_tag = self.counts.get(word)
        if not by_tag:
            return self.default_tag
        best = min(by_tag, key=lambda t: (-by_tag[t], t))
        self._best[word] = best
        return best

    def tags(self) -> set[str]:
        """All tag symbols in the table plus the default."""
        out = {self.default_tag}
        for by_tag in self.counts.values():
            out.update(by_tag)
        return out


def _check_item(item: str, kind: str) -> None:
    if item.split() != [item]:
        raise ValueError(f"a lexicon {kind} must be non-empty and free of whitespace: {item!r}")


def text_chunks(text: str, chunk_chars: int = CHUNK_CHARS):
    """``text.splitlines()`` a chunk at a time, as ``(first line number, lines)``.

    Each chunk ends just after the first "\n" at or past ``chunk_chars``
    characters, or at the end of the text.  A "\n" always ends a line of
    the whole text, so the chunks' lines are exactly the text's lines;
    line numbers count from 1.
    """
    lineno = 1
    start = 0
    while start < len(text):
        end = text.find("\n", start + chunk_chars - 1) + 1 or len(text)
        lines = text[start:end].splitlines()
        yield lineno, lines
        lineno += len(lines)
        start = end


def file_chunks(src, chunk_chars: int = CHUNK_CHARS):
    """The lines of the file ``src`` as ``text_chunks`` yields a text's, read a chunk at a time."""
    lineno = 1
    # readlines cuts only at "\n" (after the universal newline translation
    # of a file opened in text mode), so each chunk ends at a line break of
    # the whole text, and splitlines() then breaks it where parse_corpus
    # would break the whole text.
    while lines := "".join(src.readlines(chunk_chars)).splitlines():
        yield lineno, lines
        lineno += len(lines)


def count_tagged(chunks) -> Counter:
    """How often each ``(word, tag)`` pair occurs in tagged text.

    The text is given as ``text_chunks`` or ``file_chunks`` yields it, and
    each chunk is read once, as ``parse_corpus`` reads it, but no token is
    built.  Each chunk's whole ``word/TAG`` items are counted, and the
    distinct ones it is the first to hold are split, by one ``parse_line``.
    An item and its pair determine each other, the tag being everything
    after the last slash, so the pairs are in the order of their first use.
    A malformed item is new in the chunk that first holds it, so
    ``parse_lines`` of that chunk's lines raises the ParseError
    ``parse_corpus`` raises, with its line and column.
    """
    items = Counter()
    pairs = []
    for first, lines in chunks:
        seen = len(items)
        items.update(chain.from_iterable(map(str.split, lines)))
        new = [*islice(reversed(items), len(items) - seen)][::-1]
        try:
            pairs += zip(*parse_line(" ".join(new), 0))
        except ParseError:
            parse_lines(first, lines)
            raise
    return Counter(dict(zip(pairs, items.values())))


def lexicon_of(pairs: dict[tuple[str, str], int], default_tag: str) -> Lexicon:
    """The lexicon of these ``(word, tag)`` counts: one ``add`` per pair."""
    lex = Lexicon(default_tag)
    for (word, tag), n in pairs.items():
        lex.add(word, tag, n)
    return lex


def build_lexicon(corpus: Corpus, default_tag: str) -> Lexicon:
    """Count truth tags per word over the whole corpus."""
    pairs = Counter((tok.word, tok.truth) for sent in corpus.sentences for tok in sent)
    if any(truth is None for _, truth in pairs):
        raise ValueError("cannot build a lexicon from an untagged corpus")
    return lexicon_of(pairs, default_tag)


def baseline_assign(corpus: Corpus, lexicon: Lexicon) -> int:
    """Set every token's current tag to its lexicon-most-frequent tag.

    Returns the number of tokens whose current tag disagrees with truth
    (0 for untagged corpora).  Idempotent.
    """
    errors = 0
    mf = lexicon.most_frequent
    for sent in corpus.sentences:
        for tok in sent:
            tok.current = mf(tok.word)
            if tok.truth is not None and tok.current != tok.truth:
                errors += 1
    return errors


def error_count(corpus: Corpus) -> int:
    """Tokens whose current tag disagrees with a present truth tag."""
    return sum(
        1
        for sent in corpus.sentences
        for tok in sent
        if tok.truth is not None and tok.current != tok.truth
    )


def accuracy(corpus: Corpus) -> float:
    """Fraction of tokens with current == truth; 1.0 for an empty corpus."""
    return accuracy_of(corpus.n_tokens, error_count(corpus))


def accuracy_of(tokens: int, errors: int) -> float:
    """``errors`` of ``tokens`` as an accuracy; 1.0 for no tokens.

    Plain IEEE double division, so 2 correct of 3 compares equal to the
    Python expression ``2 / 3``.
    """
    return (tokens - errors) / tokens if tokens else 1.0
