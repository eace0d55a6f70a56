"""Incremental trainer: per-observation-key truth counters, kept live.

A rule ``frm -> to`` over the offsets ``pset`` matches a site exactly
when the site's observation key ``(pset, current tag, context tags)`` is
the rule's key.  So instead of linking rules to sites, the index groups
sites by key and counts the truth tags of each group; a rule's effect
counts are read off its key's counter: ``pos = counts[to]``,
``neg = counts[frm]`` and ``neut`` the rest of the group.  The candidates
are the pairs (key, to) with ``to != frm`` and ``counts[to] > 0``: exactly
the rules that would fix some mistagged site.

Applying a rule changes observations only within the largest template
span of a changed site, so only those sites are re-observed and moved
between keys, and only the keys they left or joined are rescored, once,
at the end of the pass.  The net-positive candidates are also kept in a
list sorted by ``training.rule_order``, so a random pick draws from it
directly; a candidate enters or leaves it only when its rescored net
score crosses 1 or it leaves the table.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort

from .corpus import BOUNDARY, Corpus, Lexicon, Site, baseline_assign, error_count
from .rules import Rule, RuleScore, observe, position_sets
from .training import Model, Strategy, TraceRecord, TrainerConfig, apply_at_sites, rule_order, select


# Columns of the per-pass lines train_incremental appends to its audit_log.
AUDIT_LOG_HEADER = "pass\tcandidates\tkeys\tnew_keys\tsites_rechecked"


class AuditError(AssertionError):
    """The live index disagrees with a from-scratch recount."""


class Candidate:
    """A live rule and its effect counts as of the end of the last pass."""

    __slots__ = ("rule", "pos", "neg", "neut")

    def __init__(self, rule: Rule):
        self.rule = rule
        self.pos = self.neg = self.neut = 0


def _order(cand: Candidate) -> tuple:
    # Built on demand: only net-positive candidates ever need it.
    return rule_order(cand.rule)


class KeyGroup:
    """The sites observing one key, their truth-tag counts, its candidates."""

    __slots__ = ("key", "sites", "counts", "cands")

    def __init__(self, key: tuple):
        self.key = key
        self.sites: set[Site] = set()
        self.counts: dict[str | None, int] = {}  # truth -> count, never 0
        self.cands: dict[str, Candidate] = {}  # to -> candidate

    def add(self, site: Site, truth) -> None:
        self.sites.add(site)
        self.counts[truth] = self.counts.get(truth, 0) + 1

    def remove(self, site: Site, truth) -> None:
        self.sites.remove(site)
        left = self.counts[truth] - 1
        if left:
            self.counts[truth] = left
        else:
            del self.counts[truth]


class TrainerIndex:
    """Sites grouped by observation key, and the live candidate table."""

    __slots__ = (
        "psets",
        "max_span",
        "keys",
        "site_keys",
        "site_id",
        "table",
        "eligible",
        "dirty",
        "links_total",
        "last_unseen_added",
        "last_sites_rechecked",
    )

    def __init__(self, templates):
        self.psets: list[tuple[int, ...]] = position_sets(templates)
        self.max_span = max(t.span for t in templates)
        # (pset index, current tag, context tags) -> its group
        self.keys: dict[tuple, KeyGroup] = {}
        # site_keys[si][ti][pi]: the site's key under position set pi
        self.site_keys: list[list[list[tuple]]] = []
        self.site_id: list[list[Site]] = []  # one shared tuple per site
        self.table: dict[Rule, Candidate] = {}
        # the candidates with pos - neg >= 1, sorted by rule_order
        self.eligible: list[Candidate] = []
        self.dirty: set[KeyGroup] = set()  # groups to rescore
        self.links_total = 0  # site-to-key memberships
        self.last_unseen_added = 0  # keys created by the last pass
        self.last_sites_rechecked = 0

    def key_of(self, rule: Rule) -> tuple:
        return (self.psets.index(rule.positions), rule.frm, tuple(t for _, t in rule.ctx))

    def pick(self, config: TrainerConfig, rng: random.Random):
        """Pick the next rule as ``training.select`` would over the table.

        Greedy calls select.  Random draws from the live list with the same
        single ``randrange`` that select makes over its sorted list, and
        like it draws nothing when no candidate is net-positive, so the rng
        stream is the same.
        """
        if config.strategy is not Strategy.RANDOM:
            return select(self.table.items(), config, rng)
        eligible = self.eligible
        if not eligible:
            return None
        cand = eligible[rng.randrange(len(eligible))]
        return cand.rule, RuleScore(cand.pos, cand.neg, cand.neut)

    def _unlist(self, cand: Candidate) -> None:
        eligible = self.eligible
        del eligible[bisect_left(eligible, _order(cand), key=_order)]

    def _refresh(self, group: KeyGroup) -> None:
        """Make the group's candidates, their counts and listing match its counter."""
        table = self.table
        counts = group.counts
        cands = group.cands
        for to in [to for to in cands if to not in counts]:
            cand = cands.pop(to)
            del table[cand.rule]
            if cand.pos - cand.neg >= 1:
                self._unlist(cand)
        if not group.sites:
            del self.keys[group.key]
            return
        pi, cur, ctx_tags = group.key
        neg = counts.get(cur, 0)
        rest = len(group.sites) - neg
        for to, pos in counts.items():
            if to == cur or to is None:
                continue
            cand = cands.get(to)
            if cand is None:
                cand = Candidate(Rule(cur, to, zip(self.psets[pi], ctx_tags)))
                cands[to] = table[cand.rule] = cand
            was = cand.pos - cand.neg >= 1
            cand.pos = pos
            cand.neg = neg
            cand.neut = rest - pos
            if pos - neg >= 1:
                if not was:
                    insort(self.eligible, cand, key=_order)
            elif was:
                self._unlist(cand)


def init_index(corpus: Corpus, templates) -> TrainerIndex:
    """Build the index from scratch against the corpus's current tags.

    One sweep files every site under its key for each position set; then
    every group is scored.  The candidates and their counts come out equal
    to a fresh enumerate_candidates over the same corpus.
    """
    index = TrainerIndex(templates)
    keys = index.keys
    psets = index.psets
    for si, sent in enumerate(corpus.sentences):
        ids = [(si, ti) for ti in range(len(sent))]
        rows = observe(sent, 0, len(sent), psets, index.max_span)
        for site, tok, row in zip(ids, sent, rows):
            truth = tok.truth
            for pi, key in enumerate(row):
                group = keys.get(key)
                if group is None:
                    group = keys[key] = KeyGroup(key)
                else:
                    row[pi] = group.key  # share one tuple per key
                group.add(site, truth)
        index.site_id.append(ids)
        index.site_keys.append(rows)
    for group in keys.values():
        index._refresh(group)
    index.links_total = corpus.n_tokens * len(psets)
    return index


def apply_and_update(
    index: TrainerIndex,
    corpus: Corpus,
    rule: Rule,
    pass_no: int = 0,
    record_deps: bool = False,
) -> list[Site]:
    """Apply a candidate rule at its key's sites and repair the index.

    The sites are rewritten as snapshotted before the pass, so changes
    never alter the match set mid-pass.  Then every site within the
    largest template span of a change (same sentence) is re-observed;
    wherever one of its keys changed, it moves from the old group to the
    new one, and both groups are rescored once at the end.  Returns the
    changed sites in corpus order.
    """
    if rule not in index.table:
        raise KeyError(f"rule {rule.canonical!r} is not in the trainer index")
    sites = sorted(index.keys[index.key_of(rule)].sites)
    apply_at_sites(corpus, rule, sites, pass_no, record_deps)

    # The neighborhood: every same-sentence site within the largest span of
    # a change, as disjoint intervals (sites are sorted).
    span = index.max_span
    sentences = corpus.sentences
    intervals: list[list[int]] = []
    for si, ti in sites:
        lo, hi = max(0, ti - span), min(len(sentences[si]), ti + span + 1)
        last = intervals[-1] if intervals else None
        if last is not None and last[0] == si and last[2] >= lo:
            last[2] = hi
        else:
            intervals.append([si, lo, hi])

    keys = index.keys
    dirty = index.dirty
    psets = index.psets
    created = rechecked = 0
    for si, lo, hi in intervals:
        sent = sentences[si]
        ids = index.site_id[si]
        rows = index.site_keys[si]
        rechecked += hi - lo
        for ti, observed in enumerate(observe(sent, lo, hi, psets, span), lo):
            row = rows[ti]
            if observed == row:
                continue
            site = ids[ti]
            truth = sent[ti].truth
            for pi, key in enumerate(observed):
                old = row[pi]
                if key == old:
                    continue
                group = keys[old]
                group.remove(site, truth)
                dirty.add(group)
                group = keys.get(key)
                if group is None:
                    group = keys[key] = KeyGroup(key)
                    created += 1
                group.add(site, truth)
                dirty.add(group)
                row[pi] = group.key

    for group in dirty:
        index._refresh(group)
    dirty.clear()
    index.last_unseen_added = created
    index.last_sites_rechecked = rechecked
    return sites


def verify_index(index: TrainerIndex, corpus: Corpus) -> None:
    """Recount the whole index from the corpus tags and compare.

    Brute force on purpose and independent of the update code: every key
    group, counter and site_keys row is rebuilt by reading the tags at
    each position set's offsets; every candidate's counts are recounted
    by matching its context at each site holding its source tag; and the
    candidate set must be the rules instantiated at mistagged sites; and
    the live draw list must be exactly the table's net-positive candidates
    in rule_order.  Raises AuditError on the first discrepancy.
    """
    psets = index.psets
    sentences = corpus.sentences
    if len(index.site_keys) != len(sentences):
        raise AuditError("site_keys has the wrong number of sentences")
    if index.dirty:
        raise AuditError(f"{len(index.dirty)} key groups left unscored")

    groups: dict[tuple, list] = {}  # key -> [sites, truth counts]
    by_cur: dict[str, list[Site]] = {}
    want_rules = set()
    for si, sent in enumerate(sentences):
        n = len(sent)
        have_rows = index.site_keys[si]
        if len(have_rows) != n:
            raise AuditError(f"site_keys row count wrong in sentence {si}")
        for ti, tok in enumerate(sent):
            site = (si, ti)
            by_cur.setdefault(tok.current, []).append(site)
            row = []
            for pi, pset in enumerate(psets):
                tags = []
                for off in pset:
                    j = ti + off
                    tags.append(sent[j].current if 0 <= j < n else BOUNDARY)
                key = (pi, tok.current, tuple(tags))
                row.append(key)
                want = groups.get(key)
                if want is None:
                    want = groups[key] = [set(), {}]
                want[0].add(site)
                want[1][tok.truth] = want[1].get(tok.truth, 0) + 1
                if tok.truth is not None and tok.truth != tok.current:
                    want_rules.add(Rule(tok.current, tok.truth, zip(pset, tags)))
            if have_rows[ti] != row:
                raise AuditError(f"site_keys{list(site)} {have_rows[ti]} != observed {row}")

    if set(index.keys) != set(groups):
        raise AuditError("key groups disagree with the recount")
    links = 0
    for key, (sites, counts) in groups.items():
        group = index.keys[key]
        if group.key != key or group.sites != sites:
            raise AuditError(f"{key}: stored sites {sorted(group.sites)} != {sorted(sites)}")
        if group.counts != counts:
            raise AuditError(f"{key}: stored truth counts {group.counts} != {counts}")
        links += len(sites)
    if links != index.links_total:
        raise AuditError(f"links_total {index.links_total} != recounted {links}")

    if set(index.table) != want_rules:
        raise AuditError("candidate table disagrees with the rules fixing mistagged sites")
    if sum(len(g.cands) for g in index.keys.values()) != len(index.table):
        raise AuditError("key groups hold candidates the table does not")
    for rule, cand in index.table.items():
        key = (psets.index(rule.positions), rule.frm, tuple(t for _, t in rule.ctx))
        if cand.rule != rule or index.keys[key].cands.get(rule.to) is not cand:
            raise AuditError(f"{rule.canonical!r}: candidate not filed under its key")
        pos = neg = neut = 0
        for si, ti in by_cur.get(rule.frm, ()):
            sent = sentences[si]
            n = len(sent)
            for off, tag in rule.ctx:
                j = ti + off
                if (sent[j].current if 0 <= j < n else BOUNDARY) != tag:
                    break
            else:
                truth = sent[ti].truth
                if truth == rule.to:
                    pos += 1
                elif truth == rule.frm:
                    neg += 1
                else:
                    neut += 1
        if (pos, neg, neut) != (cand.pos, cand.neg, cand.neut):
            raise AuditError(
                f"{rule.canonical!r}: stored score ({cand.pos},{cand.neg},{cand.neut})"
                f" != recounted ({pos},{neg},{neut})"
            )

    # The scores were just recounted, so the wanted list rests on them.
    want_listed = sorted(
        (cand for cand in index.table.values() if cand.pos - cand.neg >= 1),
        key=lambda cand: rule_order(cand.rule),
    )
    if len(index.eligible) != len(want_listed):
        raise AuditError(
            f"draw list holds {len(index.eligible)} candidates,"
            f" {len(want_listed)} are net-positive"
        )
    for i, (have, want) in enumerate(zip(index.eligible, want_listed)):
        if have is not want:
            raise AuditError(
                f"draw list entry {i} is {have.rule.canonical!r},"
                f" wanted the table's {want.rule.canonical!r}"
            )


def train_incremental(
    corpus: Corpus,
    lexicon: Lexicon,
    config: TrainerConfig | None = None,
    audit_log: list[str] | None = None,
):
    """Train on a gold corpus; returns (model, trace, curve).

    Output-equivalent to train_naive under the same config and seed.
    With config.audit the index is recounted after setup and every pass.
    audit_log, when given, receives one tab-separated line per pass, in
    the columns of AUDIT_LOG_HEADER.
    """
    if config is None:
        config = TrainerConfig()
    errors = baseline_assign(corpus, lexicon)
    n = corpus.n_tokens
    rng = random.Random(config.rng_seed)
    index = init_index(corpus, config.templates)
    if config.audit:
        verify_index(index, corpus)

    learned: list[Rule] = []
    trace: list[TraceRecord] = []
    acc = 1.0 if n == 0 else (n - errors) / n
    curve: list[tuple[int, float]] = [(0, acc)]
    while config.max_passes is None or len(learned) < config.max_passes:
        picked = index.pick(config, rng)
        if picked is None:
            break
        rule, sc = picked
        pass_no = len(learned) + 1
        apply_and_update(index, corpus, rule, pass_no, config.record_deps)
        # Matches were classified before the rewrite, so the error count
        # moves by exactly the net score.
        errors -= sc.score
        acc = 1.0 if n == 0 else (n - errors) / n
        learned.append(rule)
        trace.append(TraceRecord(pass_no, rule, sc.pos, sc.neg, sc.neut, acc))
        curve.append((pass_no, acc))
        if config.audit:
            verify_index(index, corpus)
            actual = error_count(corpus)
            if errors != actual:
                raise AuditError(
                    f"tracked error count {errors} != recount {actual} after pass {pass_no}"
                )
        if audit_log is not None:
            audit_log.append(
                f"{pass_no}\t{len(index.table)}\t{len(index.keys)}"
                f"\t{index.last_unseen_added}\t{index.last_sites_rechecked}"
            )
    return Model(lexicon, learned, config), trace, curve
