"""Contextual rewrite rules and their templates.

A rule rewrites a token's current tag ``frm -> to`` when the current tags
at fixed relative offsets match the rule's context.  Rules are generated
by instantiating templates (sets of nonzero offsets) at mistagged sites:
a site's observation key under a template's offsets, together with its
truth tag, is a rule that would fix it.

``find_sites`` and ``apply_rule`` match rules token by token; they are the
oracle.  The fast path codes the corpus as one character per tag, its
sentences joined by padding (``join_padded``), and matches each rule in
that string: as a literal window found with ``str.find`` when its offsets
and 0 form an unbroken run, as a look-around regular expression when the
run has a gap.
``rewrite`` applies one rule, ``run_rules`` a compiled list of them.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from operator import attrgetter

from .corpus import BOUNDARY, Corpus, Site

# Empty slot marker in the aligned five-slot rendering.
_SLOT_EMPTY = "—"

DEFAULT_WINDOW = 5


class DecodeError(ValueError):
    """A rule string does not parse back to a valid rule."""


@dataclass(frozen=True, slots=True)
class Template:
    """Distinct nonzero offsets a rule's context constrains, ascending."""

    positions: tuple[int, ...]

    def __init__(self, positions, window: float = DEFAULT_WINDOW):
        pos = tuple(sorted(positions))
        if not pos:
            raise ValueError("template needs at least one position")
        if 0 in pos:
            raise ValueError("offset 0 is the rewrite site itself, not context")
        if len(set(pos)) != len(pos):
            raise ValueError(f"duplicate positions in {pos}")
        bad = [p for p in pos if abs(p) > window]
        if bad:
            raise ValueError(f"positions {bad} outside window +/-{window}")
        object.__setattr__(self, "positions", pos)

    @property
    def span(self) -> int:
        return max(abs(p) for p in self.positions)

    def __repr__(self):
        return f"Template({self.positions})"


DEFAULT_TEMPLATE_SPEC = "-1; -2; -2,-1; +1; +2; +1,+2; -1,+1"


def parse_template_spec(spec: str, window: float = DEFAULT_WINDOW) -> tuple[Template, ...]:
    """Parse ``-1; -2,-1; +1`` style text: groups split on ';', offsets on ','."""
    templates = []
    for group in spec.split(";"):
        group = group.strip()
        if not group:
            raise ValueError(f"empty template group in {spec!r}")
        try:
            positions = tuple(int(p.strip()) for p in group.split(","))
        except ValueError:
            raise ValueError(f"non-integer offset in template group {group!r}") from None
        templates.append(Template(positions, window=window))
    if not templates:
        raise ValueError("template spec is empty")
    return tuple(templates)


def render_template_spec(templates) -> str:
    return "; ".join(
        ",".join(f"{p:+d}" if p > 0 else str(p) for p in t.positions) for t in templates
    )


DEFAULT_TEMPLATES = parse_template_spec(DEFAULT_TEMPLATE_SPEC)


class Rule:
    """Rewrite ``frm -> to`` guarded by (offset, tag) context pairs.

    Value semantics: two rules with the same source, target, and context
    compare and hash equal regardless of how they were built.
    """

    __slots__ = ("frm", "to", "ctx", "_hash", "_canon")

    def __init__(self, frm: str, to: str, ctx):
        ctx = tuple(sorted(ctx))
        if frm == to:
            raise ValueError(f"rule must change the tag, got {frm!r} -> {to!r}")
        if frm == BOUNDARY or to == BOUNDARY:
            raise ValueError(f"{BOUNDARY!r} cannot be rewritten or assigned")
        if not frm or not to:
            raise ValueError("rule tags must be non-empty")
        if not ctx:
            raise ValueError("rule context must be non-empty")
        offsets = [o for o, _ in ctx]
        if 0 in offsets:
            raise ValueError("context offset 0 is invalid")
        if len(set(offsets)) != len(offsets):
            raise ValueError(f"duplicate context offsets in {ctx}")
        for _, tag in ctx:
            if not tag:
                raise ValueError("context tags must be non-empty")
        self.frm = frm
        self.to = to
        self.ctx = ctx
        self._hash = hash((frm, to, ctx))
        self._canon = None

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(o for o, _ in self.ctx)

    @property
    def span(self) -> int:
        return max(abs(o) for o, _ in self.ctx)

    @property
    def canonical(self) -> str:
        c = self._canon
        if c is None:
            c = encode_rule(self)
            self._canon = c
        return c

    def __eq__(self, other):
        if not isinstance(other, Rule):
            return NotImplemented
        return self.frm == other.frm and self.to == other.to and self.ctx == other.ctx

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Rule({self.canonical!r})"


@dataclass(frozen=True, slots=True)
class RuleScore:
    """Counts of match effects over a corpus; net score is pos - neg."""

    pos: int = 0
    neg: int = 0
    neut: int = 0

    @property
    def score(self) -> int:
        return self.pos - self.neg


def position_sets(templates) -> list[tuple[int, ...]]:
    """The templates' distinct offset tuples, in first-seen order."""
    out = []
    for t in templates:
        if t.positions not in out:
            out.append(t.positions)
    return out


def observe(sent, psets, span: int) -> list[list[tuple]]:
    """Observation keys of a sentence's sites: per site, one per position set.

    A site's key under position set ``pi`` is ``(pi, current tag, context
    tags)``, the context read at the set's offsets with BOUNDARY outside
    the sentence.  A rule over ``psets[pi]`` matches the site exactly when
    its source and context tags make the same key.  ``span`` must be at
    least the largest offset in ``psets``.  The sentence is padded by
    ``join_padded``'s rule, on its own: by ``min(span, len(sent))``, and an
    offset farther than that is a column of BOUNDARY.
    """
    n = len(sent)
    width = min(span, n)
    edge = [BOUNDARY] * width
    tags = edge + [tok.current for tok in sent] + edge
    cur = tags[width : width + n]
    columns = [
        zip(repeat(pi), cur, zip(*[
            tags[width + off : width + off + n] if abs(off) <= width else repeat(BOUNDARY)
            for off in pset
        ]))
        for pi, pset in enumerate(psets)
    ]
    return list(map(list, zip(*columns)))


def find_sites(rule: Rule, corpus: Corpus) -> list[Site]:
    """All sites the rule matches, in corpus order, against current tags.

    It reads each site directly rather than through ``observe``: it is the
    oracle the compiled replay is checked against, and a rule's offsets may
    reach far past any sentence.
    """
    out = []
    frm, ctx = rule.frm, rule.ctx
    for si, sent in enumerate(corpus.sentences):
        n = len(sent)
        for ti in range(n):
            if sent[ti].current != frm:
                continue
            ok = True
            for off, tag in ctx:
                j = ti + off
                got = sent[j].current if 0 <= j < n else BOUNDARY
                if got != tag:
                    ok = False
                    break
            if ok:
                out.append((si, ti))
    return out


def apply_rule(rule: Rule, corpus: Corpus) -> list[Site]:
    """Rewrite every matching site and return the sites changed.

    The match set is computed against the state before any rewriting, so
    overlapping matches all fire even when one changes another's context.
    """
    sites = find_sites(rule, corpus)
    apply_at_sites(corpus, rule, sites)
    return sites


def apply_at_sites(corpus: Corpus, rule: Rule, sites: list[Site]) -> None:
    """Rewrite the current tag at each given site to the rule's target."""
    to = rule.to
    sentences = corpus.sentences
    for si, ti in sites:
        sentences[si][ti].current = to


# --- the tag-coded corpus string ----------------------------------------------

# The coded corpus string pads sentences with this character; rule contexts
# code BOUNDARY as it.  Tags are coded from the next code point up.  The
# padding rule is ``join_padded``'s.
PAD = "\0"


def tag_codes(tags) -> dict:
    """One character per distinct tag (None too), skipping the surrogate block."""
    codes = {BOUNDARY: PAD}
    for tag in tags:
        if tag not in codes:
            i = len(codes)
            codes[tag] = chr(i if i < 0xD800 else i + 0x800)
    return codes


def join_padded(coded: list[str], reach: int) -> tuple[str, list[int], int]:
    """Coded sentences joined into one string: ``(text, starts, width)``.

    The one padding rule: ``width`` is the farthest offset read,
    ``reach``, but never more than the longest sentence, and any farther
    offset reads BOUNDARY, since from every site it lands outside the
    sentence.  So a reach costs nothing past the longest sentence.  Each
    sentence is preceded and the last one followed by ``width`` PAD
    characters; sentence ``si`` starts at ``text[starts[si]]``.
    """
    width = min(reach, max(map(len, coded), default=0))
    pad = PAD * width
    starts = list(accumulate((len(s) + width for s in coded), initial=width))[:-1]
    return pad + pad.join(coded) + pad, starts, width


def code_corpus(corpus: Corpus, codes: dict, reach: int, which: str = "current") -> tuple:
    """The corpus's ``which`` tags, one character each, joined by ``join_padded``."""
    code = codes.__getitem__
    tag = attrgetter(which)
    return join_padded(["".join(map(code, map(tag, sent))) for sent in corpus.sentences], reach)


# What ``_compile`` makes of a rule: a ``(window, at)`` literal, a pattern, or None.
Matcher = tuple[str, int] | re.Pattern | None


def _compile(rule: Rule, codes: dict, width: int) -> Matcher:
    """The rule's matcher in a string padded by ``width``.

    In such a string an offset beyond ``width`` lies outside every
    sentence: a BOUNDARY constraint there always holds and is dropped, a
    tag there never does and the rule has no sites (None).  When the
    remaining offsets and 0 form one unbroken run, its sites are where the
    run's codes occur as a literal ``window``, the site ``at`` characters
    into it.  Otherwise the pattern is the source tag's single character,
    so the search skips other positions at C speed; a lookbehind ending
    just after it checks the negative offsets, a lookahead the positive
    ones, and unconstrained positions in between are ``.``.
    """
    ctx = {0: codes[rule.frm]}
    for off, tag in rule.ctx:
        if abs(off) > width:
            if tag == BOUNDARY:
                continue
            return None
        ctx[off] = codes[tag]
    lo, hi = min(ctx), max(ctx)
    if len(ctx) == hi - lo + 1:
        return "".join(ctx[off] for off in range(lo, hi + 1)), -lo

    def cell(off: int) -> str:
        return re.escape(ctx[off]) if off in ctx else "."

    pattern = cell(0)
    if lo < 0:
        # The lookbehind ends just after the source character itself.
        pattern += f"(?<={''.join(map(cell, range(lo, 1)))})"
    if hi > 0:
        pattern += f"(?={''.join(map(cell, range(1, hi + 1)))})"
    return re.compile(pattern, re.S)


def compile_rules(rules, codes: dict, width: int) -> list[tuple[Matcher, str]]:
    """Each rule as ``(matcher, target code)`` for a string padded by ``width``.

    The list depends only on the rules, the codes and the width, so one
    compiled list serves every coded string of that width.
    """
    return [(_compile(rule, codes, width), codes[rule.to]) for rule in rules]


def _sub(
    matcher: Matcher, code: str, text: str, count: int | None = None
) -> tuple[str, list[int]]:
    """Every site of ``matcher`` in ``text``, ascending, rewritten to ``code``.

    With a ``count``, only the first ``count`` sites: the search stops
    there.  No text has more sites than characters, so that is the bound
    when none is given.  A window's hits may overlap, so each search starts
    one past the last.
    """
    if matcher is None:
        return text, []
    if count is None:
        count = len(text)
    if isinstance(matcher, re.Pattern):
        hits = [m.start() for m in islice(matcher.finditer(text), count)]
    else:
        window, at = matcher
        find = text.find
        hits = []
        p = -1
        for _ in range(count):
            p = find(window, p + 1)
            if p < 0:
                break
            hits.append(p + at)
    if not hits:
        return text, hits
    cuts = [0, *[h + 1 for h in hits]]
    ends = [*hits, len(text)]
    return code.join([text[a:b] for a, b in zip(cuts, ends)]), hits


def rewrite(
    rule: Rule, text: str, codes: dict, width: int, count: int | None = None
) -> tuple[str, list[int]]:
    """Apply the rule to a coded corpus string: ``(new text, hit positions)``.

    The hits are the rule's sites as matched before any rewriting, as in
    ``apply_rule``, in ascending order; each becomes the code of
    ``rule.to``.  ``text`` is padded by ``width``, as ``join_padded`` pads.
    A caller that knows the number of sites passes it as ``count``, and
    the scan stops at the last one instead of reading the rest of the
    string; with a smaller count only the first ``count`` sites are hit.
    """
    return _sub(_compile(rule, codes, width), codes[rule.to], text, count)


def run_rules(
    compiled: list[tuple[Matcher, str]],
    text: str,
    on_hits: Callable[[int, list[int]], object] | None = None,
) -> str:
    """Apply compiled rules in order to a coded string; return the result.

    Each rule rewrites its hits as ``rewrite`` does.  After rule ``n``
    (from 0) has rewritten them, ``on_hits(n, hits)`` is called when given.
    This is the one rule-replay loop: ``evaluate.tag`` and the streaming
    tagger ``evaluate.tag_stream`` both run it.
    """
    for n, (matcher, code) in enumerate(compiled):
        text, hits = _sub(matcher, code, text)
        if on_hits is not None:
            on_hits(n, hits)
    return text


def sites_of(hits: list[int], starts: list[int]) -> list[Site]:
    """The sites at positions of a coded corpus string with these starts."""
    sentence = [bisect_right(starts, h) - 1 for h in hits]
    return [(si, h - starts[si]) for si, h in zip(sentence, hits)]


# --- text encodings ---------------------------------------------------------

# Context items are "offset:TAG" joined by commas.  Tags never contain
# whitespace (corpus format guarantees it) but may contain ':' or ',', so
# items are split at comma-then-integer-then-colon boundaries only.
_CTX_SEP = r",-?\d+:"
_CTX_ITEM_RE = re.compile(rf"(-?\d+):(.*?)(?={_CTX_SEP}|$)")
_CTX_SEP_RE = re.compile(_CTX_SEP)


def encodable_tag(tag: str) -> bool:
    """True when the rule text carries the tag in any role of a rule.

    A '>' in a source tag would split the rule's head in the wrong place,
    and a context tag containing a comma, an integer and a colon would
    split into two context items.
    """
    return ">" not in tag and _CTX_SEP_RE.search(tag) is None


def encode_rule(rule: Rule) -> str:
    """Canonical one-line form ``frm>to @ off:TAG,off:TAG`` offsets ascending."""
    ctx = ",".join(f"{off}:{tag}" for off, tag in rule.ctx)
    return f"{rule.frm}>{rule.to} @ {ctx}"


def decode_rule(text: str) -> Rule:
    """Inverse of encode_rule; raises DecodeError on malformed input."""
    head, sep, ctx_text = text.partition(" @ ")
    if not sep:
        raise DecodeError(f"missing ' @ ' separator in {text!r}")
    frm, sep, to = head.partition(">")
    if not sep:
        raise DecodeError(f"missing '>' in rule head {head!r}")
    items = []
    pos = 0
    for m in _CTX_ITEM_RE.finditer(ctx_text):
        if m.start() != pos:
            raise DecodeError(f"malformed context {ctx_text!r} near offset {pos}")
        items.append((int(m.group(1)), m.group(2)))
        pos = m.end()
        if pos < len(ctx_text) and ctx_text[pos] == ",":
            pos += 1
    if pos != len(ctx_text) or not items:
        raise DecodeError(f"malformed context {ctx_text!r}")
    try:
        return Rule(frm, to, items)
    except ValueError as exc:
        raise DecodeError(f"invalid rule {text!r}: {exc}") from None


def render_slots(rule: Rule) -> str:
    """Aligned five-slot view for short-span rules: -2 -1 frm/to +1 +2."""
    if rule.span > 2:
        raise ValueError(f"span {rule.span} does not fit the five-slot layout")
    ctx = dict(rule.ctx)
    slots = [
        ctx.get(-2, _SLOT_EMPTY),
        ctx.get(-1, _SLOT_EMPTY),
        f"{rule.frm}/{rule.to}",
        ctx.get(1, _SLOT_EMPTY),
        ctx.get(2, _SLOT_EMPTY),
    ]
    return " ".join(slots)


def display_rule(rule: Rule) -> str:
    """Five-slot view when it fits, canonical form otherwise."""
    return render_slots(rule) if rule.span <= 2 else rule.canonical
