"""Reference trainer: re-derive and re-score every candidate each pass.

Slow but simple, this is the semantic baseline the incremental trainer
must match exactly.  Each pass enumerates the rules that would fix some
currently mistagged site, scores them all over the whole corpus, applies
the selected one, and starts over.
"""

from __future__ import annotations

import random

from .corpus import Corpus, Lexicon, baseline_assign, error_count
from .rules import Rule, RuleScore, find_sites, observe, position_sets
from .training import Model, TraceRecord, TrainerConfig, apply_at_sites, select


def enumerate_candidates(corpus: Corpus, templates) -> dict[Rule, RuleScore]:
    """All rules instantiable at currently mistagged sites, fully scored.

    Scores equal score_rule for every returned rule; candidates generated
    at several sites are merged into one entry.  Every candidate has
    pos >= 1 because its generating site is a positive match.  Each scan
    reads the keys with one ``observe`` call per sentence; keeping them
    between the scans would hold every site's keys at once.
    """
    psets = position_sets(templates)
    span = max(t.span for t in templates)

    # Scan 1: instantiate at error sites, dedup by rule value.
    tallies: dict[Rule, list[int]] = {}
    groups: dict[tuple, list[Rule]] = {}
    for sent in corpus.sentences:
        for tok, row in zip(sent, observe(sent, psets, span)):
            truth = tok.truth
            if tok.current == truth or truth is None:
                continue
            for key in row:
                pi, cur, ctx_tags = key
                rule = Rule(cur, truth, zip(psets[pi], ctx_tags))
                if rule not in tallies:
                    tallies[rule] = [0, 0, 0]
                    groups.setdefault(key, []).append(rule)

    if not tallies:
        return {}

    # Scan 2: tally every candidate's effects in one sweep by matching each
    # site's observed key against the group table.
    for sent in corpus.sentences:
        for tok, row in zip(sent, observe(sent, psets, span)):
            truth = tok.truth
            for key in row:
                grp = groups.get(key)
                if not grp:
                    continue
                cur = key[1]
                for rule in grp:
                    t = tallies[rule]
                    if truth == rule.to:
                        t[0] += 1
                    elif truth == cur:
                        t[1] += 1
                    else:
                        t[2] += 1

    return {rule: RuleScore(*t) for rule, t in tallies.items()}


def train_naive(corpus: Corpus, lexicon: Lexicon, config: TrainerConfig | None = None):
    """Train on a gold corpus; returns (model, trace, curve).

    The corpus is left baseline-tagged then rewritten by the learned rules
    in order; the curve starts at pass 0 with the baseline accuracy.
    """
    if config is None:
        config = TrainerConfig()
    baseline_assign(corpus, lexicon)
    n = corpus.n_tokens
    rng = random.Random(config.rng_seed)

    def acc() -> float:
        return 1.0 if n == 0 else (n - error_count(corpus)) / n

    learned: list[Rule] = []
    trace: list[TraceRecord] = []
    curve: list[tuple[int, float]] = [(0, acc())]
    while config.max_passes is None or len(learned) < config.max_passes:
        candidates = enumerate_candidates(corpus, config.templates)
        picked = select(candidates.items(), config, rng)
        if picked is None:
            break
        rule, sc = picked
        pass_no = len(learned) + 1
        sites = find_sites(rule, corpus)
        apply_at_sites(corpus, rule, sites, pass_no, config.record_deps)
        learned.append(rule)
        a = acc()
        trace.append(TraceRecord(pass_no, rule, sc.pos, sc.neg, sc.neut, a))
        curve.append((pass_no, a))
    return Model(lexicon, learned, config), trace, curve
