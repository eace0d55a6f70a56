"""Incremental trainer: per-observation-key truth counters, kept live.

A rule ``frm -> to`` over the offsets ``pset`` matches a site exactly
when the site's observation key (``pset``, its current tag, the tags at
the offsets) is the rule's key.  So the index only counts the truth tags
of the sites observing each key, and keeps nothing per site; a rule's
effect counts are read off its key's counter: ``pos = counts[to]``,
``neg = counts[frm]`` and ``neut`` the rest.  The candidates are the pairs
(key, to) with ``to != frm`` and ``counts[to] > 0``: exactly the rules that
would fix some mistagged site.

The index reads only two strings, the current and the truth tags coded
one character per tag and joined by ``rules.join_padded`` for the
templates' reach.  A template offset past the width reads padding from
every site, so the plan reads it as a constant PAD column and it moves no
key.
``train_text`` reads them straight from the corpus text in a second pass
(``code_text``), after ``corpus.count_tagged`` counted the lexicon in the
first, so it builds no ``Token``.  Neither pass splits an item per token:
the first counts whole ``word/TAG`` items and splits each distinct one,
and the second codes each item whole from an item -> codes table, with
sentence ends carried by an item that no valid text holds.  A
``Corpus`` is kept, and each pass's sites written to it, only for
``train_incremental`` and the audit, which reads tokens: an audited
``train_text`` parses the text for it.  Dependency links are recorded
by ``on_rule`` from the sites.

Rules are applied to the coded current tags by ``rules.rewrite``, the
step of the one replay loop ``rules.run_rules``: a literal window
search for a rule whose offsets and 0 form an unbroken run, a
look-around pattern for one with a gap.  Every site of a rule observes
its key, so the key's counter holds the number of sites, and the
trainer's scan stops at the last one instead of reading the rest of the
string.  The counting follows a plan
made once from the templates.  A position set that no other set contains is counted: its
(key, truth) pairs are counted in bulk from columns of the coded strings.
A set that another contains is projected: its key is read off the
containing set's key, so its counts are sums of that set's.  The default
templates count 3 of their 7 sets and project 4 (``-1`` and ``-2`` from
``-2,-1``, ``+1`` and ``+2`` from ``+1,+2``).

A hit at ``h`` changes only the keys of the positions ``h - o``, for
``o`` in 0 and a set's offsets.  A pass counts every counted set's pairs
of these positions in the new string into one move dict, and takes away
their count in the old one; the nonzero nets, projected into the same
dict, are the moves of the contained sets' keys, and one ``_move`` makes
them all.  Only a key whose listing can change is rescored, once per
pass: a listed key, one where a candidate gained count past the current
tag's or the current tag's count fell, and one left empty, which is
deleted.  Any other move leaves an unlisted key's net scores below 1.

A candidate is only a name, ``(key, to code)``: its counts are read off
its key's counter whenever they are needed, and no object stands for it
until it is listed.  Only the net-positive candidates are listed, each as
a ``Candidate`` holding its ``Rule``, ``rule_order`` and net score, filed
under its key in ``listed`` and kept in the draw list ``eligible``, sorted
by ``training.rule_order``, that both strategies pick from directly.  A
rescore refreshes the net score of its key's listed entries, delists one
whose net score drops below 1, and builds a ``Rule`` only for a truth code
that newly reaches 1.  ``candidates`` keeps the number of names, counted
as ``_move`` adds and removes truth codes.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections import Counter, defaultdict
from itertools import accumulate, chain, repeat
from operator import attrgetter, itemgetter, ne

from .corpus import (
    Corpus,
    Lexicon,
    Site,
    accuracy_of,
    baseline_assign,
    error_count,
    parse_corpus,
    text_chunks,
)
from .rules import (PAD, Rule, RuleScore, code_corpus, find_sites, join_padded, position_sets,
                    rewrite, sites_of, tag_codes)
from .trainer_naive import count_keys, score_keys
from .training import Model, Strategy, TraceRecord, TrainerConfig, apply_at_sites, rule_order


# Columns of the per-pass rows train_incremental appends to its audit_log.
AUDIT_LOG_COLUMNS = ("pass", "candidates", "keys", "new_keys", "sites_rechecked")


class AuditError(AssertionError):
    """The live index disagrees with a from-scratch recount."""


class Candidate:
    """A listed rule: the candidate ``(key, to)`` while its net score is at least 1.

    ``net`` is ``pos - neg`` as of the end of the last pass, stored so that
    greedy ``pick`` reads one attribute per entry; the counts themselves
    stay in the key's counter.
    """

    __slots__ = ("rule", "order", "key", "to", "net")

    def __init__(self, rule: Rule, key: tuple, to: str, net: int):
        self.rule = rule
        self.order = rule_order(rule)
        self.key = key
        self.to = to
        self.net = net


_order = attrgetter("order")
_net = attrgetter("net")


def _plan(psets: list[tuple[int, ...]], width: int) -> dict[int, tuple]:
    """How each position set's keys are counted: ``{pi: (offsets, projections)}``.

    A set that no other set contains is counted, at ``offsets``: 0, then
    its own, with None for an offset past ``width``, which reads padding
    from every site; the codes there make its keys ``(pi, *codes)``.
    Every other set is projected from the first counted set that contains
    it: that set's ``projections`` hold ``(si, pick)``, and ``(si,
    *pick(key))`` is the contained set's key.
    """
    plan = {
        pi: ((0, *pset), [])
        for pi, pset in enumerate(psets)
        if not any(set(pset) < set(other) for other in psets)
    }
    for si, pset in enumerate(psets):
        if si not in plan:
            offsets, projections = next(
                entry for pi, entry in plan.items() if set(pset) < set(psets[pi])
            )
            projections.append((si, itemgetter(1, *[1 + offsets.index(o) for o in pset])))
    return {
        pi: (tuple(None if abs(off) > width else off for off in offsets), projections)
        for pi, (offsets, projections) in plan.items()
    }


class TrainerIndex:
    """Truth-tag counters per observation key, and the listed candidates."""

    __slots__ = (
        "psets",
        "pset_of",
        "plan",
        "width",
        "codes",
        "tags",
        "text",
        "truth",
        "starts",
        "n_tokens",
        "keys",
        "candidates",
        "listed",
        "eligible",
        "last_unseen_added",
        "last_sites_rechecked",
    )

    def __init__(self, current: str, truth: str, starts: list[int], codes: dict, templates):
        """Build the index from scratch from the coded current and truth tags.

        ``current`` and ``truth`` are joined by ``rules.join_padded`` for
        the templates' reach, and ``starts`` says where each sentence
        starts in both.  So the width is ``starts[0]``, and an offset past
        it reads padding from every site: a constant PAD column.  Per counted
        position set, one Counter over columns of the strings counts every
        row of codes as a flat tuple, at C speed; a ``(key, truth)`` pair is
        built only for each distinct row, and the rows of the padding
        between sentences are dropped there.  The pairs, projected, count
        the keys of the sets it contains.  Then every key is scored, so the
        candidates and their counts equal a fresh enumerate_candidates over
        the same tags, and the net-positive ones are listed.
        """
        self.psets: list[tuple[int, ...]] = position_sets(templates)
        self.pset_of = {pset: pi for pi, pset in enumerate(self.psets)}
        self.width = width = starts[0] if starts else 0
        self.plan = _plan(self.psets, width)
        self.codes = codes
        self.tags = {code: tag for tag, code in codes.items()}
        self.text = current
        self.truth = truth
        self.starts = starts
        self.n_tokens = len(current) - current.count(PAD)
        # (pset index, current code, *context codes) -> {truth code: count};
        # a count is never 0, and a key with no count is deleted when rescored
        self.keys: dict[tuple, dict[str, int]] = {}
        # the candidates: a (key, to) per truth code under a key, bar the key's
        # current code and a missing truth's
        self.candidates = 0
        # key -> {to code: candidate}, for the candidates with pos - neg >= 1
        self.listed: dict[tuple, dict[str, Candidate]] = {}
        # the same Candidate objects, sorted by rule_order
        self.eligible: list[Candidate] = []
        self.last_unseen_added = 0  # keys created by the last pass
        self.last_sites_rechecked = 0  # tokens whose keys the last pass re-read

        end = len(current) - width
        truths = truth[width:end]
        projected = {}
        for pi, (offsets, projections) in self.plan.items():
            columns = [
                repeat(PAD) if off is None else current[width + off : end + off]
                for off in offsets
            ]
            # a row whose own code is PAD is the padding between sentences
            pairs = {
                ((pi, *row[:-1]), row[-1]): n
                for row, n in Counter(zip(*columns, truths)).items()
                if row[0] != PAD
            }
            self._move(pairs, set())
            if projections:
                _project(pairs.items(), self.plan, projected)
        self._move(projected, set())
        self._rescore(self.keys)

    @property
    def links_total(self) -> int:
        """Site-to-key memberships: each token observes one key per position set."""
        return self.n_tokens * len(self.psets)

    def key_of(self, rule: Rule) -> tuple:
        """The rule's key; KeyError for a tag with no code or offsets no template has."""
        code = self.codes.__getitem__
        positions, tags = zip(*rule.ctx)
        return (self.pset_of[positions], code(rule.frm), *map(code, tags))

    def _rule(self, key: tuple, to: str) -> Rule:
        """The rule named ``(key, to)``."""
        tags = self.tags
        return Rule(tags[key[1]], tags[to], zip(self.psets[key[0]], [tags[c] for c in key[2:]]))

    @property
    def table(self) -> dict[Rule, RuleScore]:
        """Every candidate's rule and score, decoded from the key counters.

        Built on each read, and read-only: nothing on the pass path reads it.
        """
        none = self.codes[None]
        return {
            self._rule(key, to): _score(counts, key[1], to)
            for key, counts in self.keys.items()
            for to in counts
            if to != key[1] and to != none
        }

    def pick(self, config: TrainerConfig, rng: random.Random):
        """Pick the next rule from the draw list, as select would from the table.

        Greedy takes the highest stored net score on the list, or None below
        the threshold; the threshold is at least 1, so the winner is always
        on the list, and ``max`` keeps the first of equal scores, the
        smallest in rule_order, as select does.  Random draws with the same
        single ``randrange`` that select makes over its sorted list.  Neither
        draws from an empty list, so the rng stream is the same.  The
        picked rule's score is read off its key's counter.
        """
        eligible = self.eligible
        if not eligible:
            return None
        if config.strategy is Strategy.GREEDY:
            cand = max(eligible, key=_net)
            if cand.net < config.threshold:
                return None
        else:
            cand = eligible[rng.randrange(len(eligible))]
        return cand.rule, _score(self.keys[cand.key], cand.key[1], cand.to)

    def _move(self, moved: dict, touched: set) -> int:
        """Add each nonzero ``(key, truth code)`` count of moved to its key.

        Returns how many keys it created.  A truth code that joins or leaves
        a key's counter, other than the key's current code and a missing
        truth's, adds or removes a candidate.  A key goes into touched when
        its listing can change: when it is listed, when a candidate's truth
        gained count past the current code's count as it stands, when the
        current code's count fell, or when its counter emptied, to be
        deleted.  Each pair moves once per call, so any other move leaves
        an unlisted key's net scores below 1, and it stays unlisted.
        """
        keys, listed = self.keys, self.listed
        none = self.codes[None]
        created = candidates = 0
        for (key, t), n in moved.items():
            if not n:
                continue
            counts = keys.get(key)
            if counts is None:
                counts = keys[key] = {}
                created += 1
            had = counts.get(t, 0)
            now = had + n
            if now:
                counts[t] = now
            else:
                del counts[t]
            if t == key[1]:
                rescore = now < had
            elif t == none:
                rescore = False
            else:
                rescore = now > had and now > counts.get(key[1], 0)
                if not had:
                    candidates += 1
                elif not now:
                    candidates -= 1
            if rescore or not counts or key in listed:
                touched.add(key)
        self.candidates += candidates
        return created

    def _rescore(self, keys) -> None:
        """List exactly the net-positive candidates of each key, as of its counter.

        A listed entry's stored net score is refreshed, and the entry is
        delisted once it drops below 1; a truth code that newly reaches 1
        gets its ``Rule`` and ``Candidate`` here, and no other does.  A key
        left with no count is deleted.  A key with no listing allocates
        nothing unless one of its candidates reaches 1.
        """
        counters, listed, eligible = self.keys, self.listed, self.eligible
        none = self.codes[None]
        for key in keys:
            counts = counters[key]
            if not counts:
                del counters[key]
            neg = counts.get(key[1], 0)
            entries = listed.get(key)
            if entries is not None:
                for to, cand in list(entries.items()):
                    net = counts.get(to, 0) - neg
                    if net >= 1:
                        cand.net = net
                    else:
                        del entries[to]
                        del eligible[bisect_left(eligible, cand.order, key=_order)]
            for to, pos in counts.items():
                if pos - neg >= 1 and to != none and (entries is None or to not in entries):
                    if entries is None:
                        entries = listed[key] = {}
                    cand = entries[to] = Candidate(self._rule(key, to), key, to, pos - neg)
                    insort(eligible, cand, key=_order)
            if entries is not None and not entries:
                del listed[key]


def _score(counts: dict, cur: str, to: str) -> RuleScore:
    """Candidate ``(key, to)``'s score off its key's counter; cur is the key's current code."""
    pos, neg = counts[to], counts.get(cur, 0)
    return RuleScore(pos, neg, sum(counts.values()) - pos - neg)


def _project(moved, plan: dict, into: dict) -> None:
    """Add each nonzero count of moved's ``((key, truth code), n)`` items, projected, to
    the keys of the sets that the plan projects from the key's set."""
    for (key, t), n in moved:
        if n:
            for si, pick in plan[key[0]][1]:
                pair = (si, *pick(key)), t
                into[pair] = into.get(pair, 0) + n


def init_index(corpus: Corpus, templates) -> TrainerIndex:
    """Build the index from scratch against the corpus's current tags.

    Every current and truth tag gets a code, a missing truth (None) too.
    """
    tags = {tok.current for sent in corpus.sentences for tok in sent}
    tags.update(tok.truth for sent in corpus.sentences for tok in sent)
    codes = tag_codes(sorted(tags - {None}) + [None])
    reach = max(t.span for t in templates)
    current, starts, _ = code_corpus(corpus, codes, reach)
    truth = code_corpus(corpus, codes, reach, "truth")[0]
    return TrainerIndex(current, truth, starts, codes, templates)


def code_text(chunks, lexicon: Lexicon, reach: int) -> tuple:
    """Tagged text's baseline and truth tags, coded, with no Token built.

    The text is given as ``corpus.text_chunks`` or ``corpus.file_chunks``
    yields it, and each chunk is read once.  The lexicon must hold the
    text's own counts (``corpus.count_tagged``), and ``reach`` is the
    templates' farthest offset.  Returns ``(current, truth, starts, codes,
    errors)``: the strings, starts and codes ``init_index`` makes of
    ``parse_corpus(text)`` after ``baseline_assign(corpus, lexicon)``, and
    the baseline's errors.  Each ``word/TAG`` item is coded whole by
    one table, built once from the lexicon's pairs and
    ``Lexicon.most_frequent``: item -> its baseline code and its truth
    code.  So one join codes both strings, as its even and odd characters.
    Each non-blank line's items are followed by the item PAD, which
    ``count_tagged`` always refuses (it has no slash) and the table codes
    as PAD twice: every sentence ends with one PAD, and no code of a tag
    is PAD, so each string splits into its sentences at PAD, which
    ``rules.join_padded`` joins.
    """
    tagset = {tag for by_tag in lexicon.counts.values() for tag in by_tag}
    codes = tag_codes(sorted(tagset) + [None])
    both = {PAD: PAD + PAD}
    for word, by_tag in lexicon.counts.items():
        code = codes[lexicon.most_frequent(word)]
        for tag in by_tag:
            both[f"{word}/{tag}"] = code + codes[tag]
    coded = []
    for _, lines in chunks:
        sentences = filter(None, map(str.split, lines))
        items = chain.from_iterable(chain.from_iterable(zip(sentences, repeat([PAD]))))
        coded.append("".join(map(both.__getitem__, items)))
    coded = "".join(coded)
    current, starts, _ = join_padded(coded[0::2].split(PAD)[:-1], reach)
    truth = join_padded(coded[1::2].split(PAD)[:-1], reach)[0]
    return current, truth, starts, codes, sum(map(ne, current, truth))


def apply_and_update(index: TrainerIndex, corpus: Corpus | None, rule: Rule) -> list[Site]:
    """Apply a candidate rule at its sites and repair the index.

    The sites are matched in the coded string before any is rewritten, so
    changes never alter the match set mid-pass.  Every site of the rule
    observes its key, so the key's counter holds their number, and the scan
    stops at the last one.  A hit at ``h`` changes the key of each position
    ``h - o``, for ``o`` in 0 and a position set's offsets.  For each
    counted set, these positions' codes are gathered from the old and the
    new string at once.  Their (key, truth) pairs in the new string, for
    every counted set, are counted into one move dict, and their count in
    the old string is taken away.  The sets a counted set contains read no
    position it does not, so its nonzero nets, projected into the same
    dict, are theirs.  One ``_move`` makes every move, and only the keys
    whose listing can change are rescored.  Returns the changed sites in
    corpus order, and rewrites them in ``corpus`` too when one is given.
    """
    try:
        counts = index.keys[index.key_of(rule)]
        known = index.codes[rule.to] in counts
    except KeyError:  # a tag with no code, offsets no template has, or a key no site observes
        known = False
    if not known:
        raise KeyError(f"rule {rule.canonical!r} is not in the trainer index")
    old = index.text
    new, hits = rewrite(rule, old, index.codes, index.width, sum(counts.values()))
    sites = sites_of(hits, index.starts)
    if corpus is not None:
        apply_at_sites(corpus, rule, sites)
    index.text = new

    truth = index.truth
    moved = {}
    get_moved = moved.get
    reread = set()
    for pi, (offsets, _) in index.plan.items():
        # an offset past the width (None) reads padding from every site:
        # it adds no neighbour, and its codes are gathered from position 0
        near = {h - off for off in offsets if off is not None for h in hits}
        near = [p for p in near if old[p] != PAD]
        reread.update(near)
        n = len(near)
        # offsets has two or more entries, so get returns a tuple: a run
        # of n codes per offset, offset 0 (the positions themselves) first
        get = itemgetter(*[0 if off is None else p + off for off in offsets for p in near])
        truths = get(truth)[:n]
        for sign, codes in ((1, get(new)), (-1, get(old))):
            columns = [codes[i : i + n] for i in range(0, len(codes), n)]
            for pair in zip(zip(repeat(pi), *columns), truths):
                moved[pair] = get_moved(pair, 0) + sign
    _project(list(moved.items()), index.plan, moved)
    touched = set()
    index.last_unseen_added = index._move(moved, touched)
    index._rescore(touched)
    index.last_sites_rechecked = len(reread)
    return sites


def verify_index(index: TrainerIndex, corpus: Corpus, rules=None) -> None:
    """Compare the whole index with the reference trainer's recount.

    Independent of the update code, and checked in code space: the decode
    map must be the inverse of the codes; each coded string must equal the
    corpus's current or truth tags coded here, with ``width`` PAD before
    each sentence and after the last, and ``starts`` must match; the key
    counters must equal ``trainer_naive.count_keys``, coded, and
    ``links_total`` their sum.  Every rule ``score_keys`` admits is named
    ``(key_of(rule), to code)``, and the candidate names and their scores,
    read off the stored counters, must be exactly those names and the
    recount's scores; ``candidates`` must be their number.  So each
    ``Rule`` is built once, by the recount, and only a key that differs is
    decoded, for its message.  Each listed entry must sit under a live key,
    carry its name's rule and ``rule_order``, and store the recount's net
    score, at least 1; every net-positive rule must be listed; and the draw
    list must hold exactly the listed entries, the same objects, in
    rule_order.  A site matches a rule exactly when its key is the rule's,
    so the recount's scores are those of matching every rule at every
    site, at a cost linear in tokens times position sets.  ``rules`` is
    ``score_keys``'s memo of the recount's own rules, kept over one run's
    passes, so it holds nothing read from the index.  Raises AuditError on
    the first discrepancy.
    """
    psets = index.psets
    sentences = corpus.sentences
    codes, tags = index.codes, index.tags
    if len(tags) != len(codes):
        raise AuditError("two tags share a code")
    if tags != {c: t for t, c in codes.items()}:
        raise AuditError("a code decodes to another tag")
    width = index.width
    pad = PAD * width
    for which, text in (("current", index.text), ("truth", index.truth)):
        tag = attrgetter(which)
        # width PAD before each sentence and after the last; a tag with no
        # code codes as "", so the string comes out short
        coded = ["".join([codes.get(tag(tok), "") for tok in sent]) for sent in sentences]
        if pad.join(["", *coded, ""]) != text:
            raise AuditError(f"coded string does not decode to the corpus's {which} tags")
    starts = list(accumulate((len(sent) + width for sent in sentences), initial=width))[:-1]
    if index.starts != starts:
        raise AuditError("sentence starts disagree with the coded strings")

    counters = count_keys(corpus, psets, max(abs(off) for pset in psets for off in pset))
    # a tag with no code, or a code with no tag, maps to a new object, equal to nothing
    code, decode = defaultdict(object, codes).__getitem__, defaultdict(object, tags).__getitem__
    recount = {
        (pi, code(cur), *map(code, ctx)): {code(t): n for t, n in counts.items()}
        for (pi, cur, ctx), counts in counters.items()
    }
    if recount != index.keys:
        name = next(k for k in recount.keys() | index.keys.keys()
                    if recount.get(k) != index.keys.get(k))
        key = name[0], decode(name[1]), tuple(map(decode, name[2:]))
        have = {decode(t): n for t, n in index.keys.get(name, {}).items()}
        want = counters.get(key, {})
        raise AuditError(f"{psets[key[0]]} {key[1:]}: stored truth counts {have} != {want}")
    links = sum(sum(counts.values()) for counts in counters.values())
    if links != index.links_total:
        raise AuditError(f"links_total {index.links_total} != recounted {links}")

    # Every stored code decodes.  The recount's rules are named as the index
    # names them, and each is scored off the stored counter of its name.
    scored = score_keys(counters, psets, rules)
    oracle = {(index.key_of(rule), codes[rule.to]): rule for rule in scored}
    recounted = {name: scored[rule] for name, rule in oracle.items()}
    none = codes[None]
    have = {}
    for key, counts in index.keys.items():
        neg, total = counts.get(key[1], 0), sum(counts.values())
        for to, pos in counts.items():
            if to != key[1] and to != none:
                have[key, to] = RuleScore(pos, neg, total - pos - neg)
    if have != recounted:
        name = next(n for n in have.keys() | recounted.keys() if have.get(n) != recounted.get(n))
        rule = oracle[name] if name in oracle else index._rule(*name)
        raise AuditError(
            f"{rule.canonical!r}: stored score {have.get(name)} != recounted {recounted.get(name)}"
        )
    if index.candidates != len(scored):
        raise AuditError(f"candidate count {index.candidates} != recounted {len(scored)}")

    if index.listed.keys() - index.keys.keys():
        raise AuditError("listed candidates are filed under keys no site observes")
    listed = {}
    for key, entries in index.listed.items():
        if not entries:
            raise AuditError(f"key {key} keeps an empty listing")
        for to, cand in entries.items():
            rule = oracle.get((key, to))
            if rule is None:
                raise AuditError(f"{cand.rule.canonical!r}: listed under a name no candidate has")
            if (cand.key, cand.to, cand.rule, cand.order) != (key, to, rule, rule_order(rule)):
                raise AuditError(f"{cand.rule.canonical!r}: listed entry is not its name's rule")
            net = scored[rule].score
            if cand.net != net or net < 1:
                raise AuditError(
                    f"{rule.canonical!r}: listed at net score {cand.net}, recounted {net}"
                )
            listed[rule] = cand

    # Every listed entry is a net-positive rule of the recount, so listing each of those
    # makes the two sets equal.
    want_listed = sorted((rule for rule, sc in scored.items() if sc.score >= 1), key=rule_order)
    for rule in want_listed:
        if rule not in listed:
            raise AuditError(f"{rule.canonical!r}: net-positive but not listed")
    if len(index.eligible) != len(want_listed):
        raise AuditError(
            f"draw list holds {len(index.eligible)} candidates,"
            f" {len(want_listed)} are net-positive"
        )
    for i, (have, rule) in enumerate(zip(index.eligible, want_listed)):
        if have is not listed[rule]:
            raise AuditError(
                f"draw list entry {i} is {have.rule.canonical!r},"
                f" wanted the listed {rule.canonical!r}"
            )


def train_incremental(
    corpus: Corpus,
    lexicon: Lexicon,
    config: TrainerConfig | None = None,
    audit_log: list[tuple[int, ...]] | None = None,
    on_rule=None,
    *,
    audit: bool = False,
):
    """Train on a gold corpus; returns (model, trace, curve).

    Output-equivalent to train_naive under the same config and seed, and
    so are its ``on_rule`` calls; the curve is the same accuracy column.
    With ``audit`` the index is recounted after setup and every pass, and
    each pass's sites must be the ones ``rules.find_sites`` matches before
    it.  audit_log, when given, receives one row of ints per pass, in the
    columns of AUDIT_LOG_COLUMNS.  Each pass's sites are rewritten in the
    corpus, which ends with the tags the model's replay gives it.
    """
    if config is None:
        config = TrainerConfig()
    errors = baseline_assign(corpus, lexicon)
    index = init_index(corpus, config.templates)
    return _train(index, errors, lexicon, config, audit, audit_log, corpus, on_rule)


def train_text(
    text: str,
    lexicon: Lexicon,
    config: TrainerConfig | None = None,
    audit_log: list[tuple[int, ...]] | None = None,
    on_rule=None,
    *,
    audit: bool = False,
):
    """``train_incremental`` of ``parse_corpus(text)``, reading the text straight into codes.

    The lexicon must hold the text's own counts (``corpus.count_tagged``),
    as ``code_text`` needs.  No Token is built, except for the audit: it
    reads tokens, so with ``audit`` the text is parsed here too, into a
    baseline-tagged ``Corpus`` that each pass's sites are written to and
    that ``verify_index`` compares with the coded strings.
    """
    if config is None:
        config = TrainerConfig()
    reach = max(t.span for t in config.templates)
    current, truth, starts, codes, errors = code_text(text_chunks(text), lexicon, reach)
    index = TrainerIndex(current, truth, starts, codes, config.templates)
    corpus = parse_corpus(text) if audit else None
    if corpus is not None:
        baseline_assign(corpus, lexicon)
    return _train(index, errors, lexicon, config, audit, audit_log, corpus, on_rule)


def _train(index: TrainerIndex, errors: int, lexicon: Lexicon, config: TrainerConfig,
           audit: bool, audit_log: list[tuple[int, ...]] | None, corpus: Corpus | None,
           on_rule):
    """The passes over a fresh index whose current tags make ``errors`` errors."""
    n = index.n_tokens
    rng = random.Random(config.rng_seed)
    rules = {}  # the audit's score_keys memo: each recounted rule is built once
    if audit:
        verify_index(index, corpus, rules)

    learned: list[Rule] = []
    trace: list[TraceRecord] = []
    acc = accuracy_of(n, errors)
    curve = [acc]
    while config.max_passes is None or len(learned) < config.max_passes:
        picked = index.pick(config, rng)
        if picked is None:
            break
        rule, sc = picked
        pass_no = len(learned) + 1
        # the rewrite stops at the site count its key's counter holds, so
        # the audit checks the sites against the oracle's match
        matched = find_sites(rule, corpus) if audit else None
        sites = apply_and_update(index, corpus, rule)
        if audit and sites != matched:
            raise AuditError(
                f"pass {pass_no} rewrote {len(sites)} sites of {rule.canonical!r},"
                f" find_sites matched {len(matched)}"
            )
        if on_rule is not None:
            on_rule(pass_no, rule, sites)
        # Matches were classified before the rewrite, so the error count
        # moves by exactly the net score.
        errors -= sc.score
        acc = accuracy_of(n, errors)
        learned.append(rule)
        trace.append(TraceRecord(pass_no, rule, sc.pos, sc.neg, sc.neut, acc))
        curve.append(acc)
        if audit:
            verify_index(index, corpus, rules)
            actual = error_count(corpus)
            if errors != actual:
                raise AuditError(
                    f"tracked error count {errors} != recount {actual} after pass {pass_no}"
                )
        if audit_log is not None:
            audit_log.append((pass_no, index.candidates, len(index.keys),
                              index.last_unseen_added, index.last_sites_rechecked))
    return Model(lexicon, learned, config), trace, curve
