"""Reference trainer: re-derive and re-score every candidate each pass.

Slow but simple, this is the semantic baseline the incremental trainer
must match exactly.  Each pass reads every site's observation keys with
one ``observe`` scan of the corpus, counts the truth tags under each key
(``count_keys``), scores every rule those counts admit (``score_keys``),
applies the selected one, and starts over.  Only the ``Rule`` objects
outlive a pass: one memo per run builds each rule once, the first time
some pass admits it.  The same recount is the incremental trainer's
audit: ``verify_index`` compares the live index with ``count_keys`` and
``score_keys`` over the corpus it was kept for.
"""

from __future__ import annotations

import random

from .corpus import Corpus, Lexicon, accuracy, baseline_assign
from .rules import Rule, RuleScore, find_sites, observe, position_sets
from .training import Model, TraceRecord, TrainerConfig, apply_at_sites, select


def count_keys(corpus: Corpus, psets, span: int) -> dict[tuple, dict]:
    """``{observation key: {truth tag: sites}}``, one ``observe`` scan.

    A key is ``(pi, current tag, context tags)``; each site counts once
    per position set.
    """
    counts: dict[tuple, dict] = {}
    get = counts.get
    for sent in corpus.sentences:
        for tok, row in zip(sent, observe(sent, psets, span)):
            truth = tok.truth
            for key in row:
                n = get(key)
                if n is None:
                    counts[key] = {truth: 1}
                else:
                    n[truth] = n.get(truth, 0) + 1
    return counts


def score_keys(counts: dict[tuple, dict], psets, rules=None) -> dict[Rule, RuleScore]:
    """Every rule the key counts admit, scored from its own key's counts.

    A rule over position set ``pi`` matches exactly the sites of its own
    key, so ``pos`` counts its target, ``neg`` its source, ``neut`` the
    rest.  Each truth tag under a key, other than the current tag and a
    missing truth, makes the rule to it a candidate, with ``pos >= 1``;
    a key whose only truth is its current tag or a missing one admits
    none.  ``rules``, when given, is a memo ``{key: {to: Rule}}`` for
    these ``psets``, kept over passes: a rule named before is the object
    built then, equal by value, whose ``canonical`` is already cached.
    """
    out = {}
    if rules is None:
        rules = {}
    for key, n in counts.items():
        pi, cur, ctx_tags = key
        if len(n) == 1 and (cur in n or None in n):
            continue
        total = sum(n.values())
        neg = n.get(cur, 0)
        built = rules.get(key)
        if built is None:
            built = rules[key] = {}
        for to, pos in n.items():
            if to != cur and to is not None:
                rule = built.get(to)
                if rule is None:
                    rule = built[to] = Rule(cur, to, zip(psets[pi], ctx_tags))
                out[rule] = RuleScore(pos, neg, total - pos - neg)
    return out


def enumerate_candidates(corpus: Corpus, templates, rules=None) -> dict[Rule, RuleScore]:
    """All rules instantiable at currently mistagged sites, each scored
    by the truth tags at the sites it matches; ``rules`` is score_keys's memo."""
    psets = position_sets(templates)
    return score_keys(count_keys(corpus, psets, max(t.span for t in templates)), psets, rules)


def train_naive(corpus: Corpus, lexicon: Lexicon, config: TrainerConfig | None = None,
                on_rule=None):
    """Train on a gold corpus; returns (model, trace, curve).

    Each pass scores every candidate with ``enumerate_candidates``, whose
    one memo for the run builds each rule once; applies the ``select``-ed
    rule at its ``find_sites`` matches and calls ``on_rule(pass_no, rule,
    sites)``, when given, as ``evaluate.tag_stream`` does.  The corpus is
    left baseline-tagged then rewritten by the learned rules in order; the
    curve is the accuracy column, the baseline's at index 0 and pass
    ``n``'s at index ``n``.
    """
    if config is None:
        config = TrainerConfig()
    baseline_assign(corpus, lexicon)
    rng = random.Random(config.rng_seed)

    learned: list[Rule] = []
    trace: list[TraceRecord] = []
    curve = [accuracy(corpus)]
    rules: dict[tuple, dict[str, Rule]] = {}
    while config.max_passes is None or len(learned) < config.max_passes:
        candidates = enumerate_candidates(corpus, config.templates, rules)
        picked = select(candidates.items(), config, rng)
        if picked is None:
            break
        rule, sc = picked
        pass_no = len(learned) + 1
        sites = find_sites(rule, corpus)
        apply_at_sites(corpus, rule, sites)
        if on_rule is not None:
            on_rule(pass_no, rule, sites)
        learned.append(rule)
        a = accuracy(corpus)
        trace.append(TraceRecord(pass_no, rule, sc.pos, sc.neg, sc.neut, a))
        curve.append(a)
    return Model(lexicon, learned, config), trace, curve
