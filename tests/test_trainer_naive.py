"""Reference trainer: candidate enumeration, selection, full training runs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbltag.corpus import (
    BOUNDARY,
    accuracy,
    baseline_assign,
    build_lexicon,
    error_count,
    parse_corpus,
)
from tbltag import trainer_naive
from tbltag.rules import (
    DEFAULT_TEMPLATES,
    Rule,
    RuleScore,
    apply_rule,
    find_sites,
    parse_template_spec,
    position_sets,
)
from tbltag.synth import ChainSpec, markov_corpus
from tbltag.trainer_naive import count_keys, enumerate_candidates, score_keys, train_naive
from tbltag.training import Strategy, TrainerConfig, apply_at_sites, rule_order, select

from helpers import TOY_LEX, TOY_TEXT, baselined, clone, lex_of, score_rule

T1 = parse_template_spec("-1")
T1R = parse_template_spec("-1; +1")


# --- enumerate_candidates ------------------------------------------------------


def test_enumerate_toy_left_template():
    c = baselined(TOY_TEXT, TOY_LEX, "NN")
    cands = enumerate_candidates(c, T1)
    assert cands == {Rule("MD", "NN", [(-1, "DT")]): RuleScore(2, 0, 0)}


def test_enumerate_merges_sites_and_scores_fully():
    # two error sites share one candidate; a third site makes it negative
    text = "a/A x/GOOD\na/A y/GOOD\na/A z/W\n"
    c = baselined(text, {"a": "A", "x": "W", "y": "W", "z": "W"}, "Z")
    cands = enumerate_candidates(c, T1)
    rule = Rule("W", "GOOD", [(-1, "A")])
    assert cands[rule] == RuleScore(2, 1, 0)


def test_enumerate_empty_when_baseline_perfect():
    c = baselined("a/A b/B\n", {"a": "A", "b": "B"}, "X")
    assert enumerate_candidates(c, T1) == {}


def test_enumerate_candidates_all_have_positive_pos():
    text = markov_corpus(ChainSpec(n_tags=6, structure_seed=3), draw_seed=4, n_tokens=300)
    c = parse_corpus(text)
    lex = build_lexicon(c, "T00")
    baseline_assign(c, lex)
    cands = enumerate_candidates(c, parse_template_spec("-1; +1; -2,-1"))
    assert cands
    assert all(sc.pos >= 1 for sc in cands.values())


@given(
    seed=st.integers(0, 10**6),
    templates=st.sampled_from(
        [DEFAULT_TEMPLATES, parse_template_spec("-1; +1; -1,+1"), parse_template_spec("-3,+3; -1")]
    ),
)
@settings(max_examples=30)
def test_enumerate_scores_match_score_rule(seed, templates):
    rng = random.Random(seed)
    spec = ChainSpec(
        n_tags=rng.randint(4, 8),
        words_per_tag=3,
        ambiguous_words=rng.randint(3, 8),
        structure_seed=rng.randrange(2**20),
    )
    text = markov_corpus(spec, draw_seed=rng.randrange(2**20), n_tokens=150)
    c = parse_corpus(text)
    lex = build_lexicon(c, "T00")
    # a token without a truth tag is never a rule's origin or target
    for sent in c.sentences:
        if rng.random() < 0.2:
            sent[rng.randrange(len(sent))].truth = None
    baseline_assign(c, lex)
    cands = enumerate_candidates(c, templates)

    # the candidates are exactly the rules instantiated at mistagged sites
    wanted = set()
    for sent in c.sentences:
        for ti, tok in enumerate(sent):
            if tok.truth is None or tok.current == tok.truth:
                continue
            for t in templates:
                ctx = [
                    (off, sent[ti + off].current if 0 <= ti + off < len(sent) else BOUNDARY)
                    for off in t.positions
                ]
                wanted.add(Rule(tok.current, tok.truth, ctx))
    assert set(cands) == wanted
    for rule, sc in cands.items():
        assert sc == score_rule(rule, c)


@given(
    seed=st.integers(0, 10**6),
    templates=st.sampled_from(
        [DEFAULT_TEMPLATES, parse_template_spec("-1; +1; -1,+1"), parse_template_spec("-3,+3; -1")]
    ),
)
@settings(max_examples=25)
def test_score_keys_memo_changes_no_score(seed, templates):
    # one memo kept over several passes scores exactly what no memo does, in
    # the same order, and names each rule by the object it built first
    rng = random.Random(seed)
    spec = ChainSpec(n_tags=rng.randint(4, 8), words_per_tag=3,
                     ambiguous_words=rng.randint(3, 8), structure_seed=rng.randrange(2**20))
    c = parse_corpus(markov_corpus(spec, draw_seed=rng.randrange(2**20), n_tokens=150))
    lex = build_lexicon(c, "T00")
    for sent in c.sentences:
        if rng.random() < 0.2:
            sent[rng.randrange(len(sent))].truth = None
    baseline_assign(c, lex)
    psets = position_sets(templates)
    span = max(t.span for t in templates)
    rules, first = {}, {}
    for _ in range(4):
        counts = count_keys(c, psets, span)
        scored = score_keys(counts, psets, rules)
        assert list(scored.items()) == list(score_keys(counts, psets).items())
        for rule in scored:
            assert first.setdefault(rule, rule) is rule
        if not scored:
            break
        rule = sorted(scored, key=rule_order)[rng.randrange(len(scored))]
        apply_at_sites(c, rule, find_sites(rule, c))


# --- select ----------------------------------------------------------------------


def _r(canon_ctx_tag: str) -> Rule:
    return Rule("A", "B", [(1, canon_ctx_tag)])


def test_select_greedy_max_then_canonical():
    cfg = TrainerConfig(templates=T1, threshold=1)
    rng = random.Random(0)
    scored = [
        (_r("zz"), RuleScore(3, 0, 0)),
        (_r("mm"), RuleScore(5, 1, 0)),  # net 4, canonical "A>B @ 1:mm"
        (_r("aa"), RuleScore(4, 0, 9)),  # net 4, canonical "A>B @ 1:aa" wins tie
    ]
    rule, sc = select(scored, cfg, rng)
    assert rule == _r("aa")
    assert sc == RuleScore(4, 0, 9)


def test_select_greedy_threshold_stops():
    cfg = TrainerConfig(templates=T1, threshold=3)
    scored = [(_r("x"), RuleScore(2, 0, 0))]
    assert select(scored, cfg, random.Random(0)) is None
    assert select([], cfg, random.Random(0)) is None


def test_select_random_seeded_draw():
    cfg = TrainerConfig(templates=T1, threshold=1, strategy=Strategy.RANDOM)
    scored = [(_r("bb"), RuleScore(1, 0, 0)), (_r("aa"), RuleScore(9, 0, 0))]
    by_canon = sorted([_r("aa"), _r("bb")], key=lambda r: r.canonical)
    for seed in range(8):
        rule, _ = select(list(scored), cfg, random.Random(seed))
        assert rule == by_canon[random.Random(seed).randrange(2)]


def test_select_random_ignores_threshold():
    # eligibility is net score >= 1 even when the threshold is higher
    cfg = TrainerConfig(templates=T1, threshold=5, strategy=Strategy.RANDOM)
    scored = [(_r("x"), RuleScore(1, 0, 0))]
    picked = select(scored, cfg, random.Random(0))
    assert picked is not None
    assert picked[0] == _r("x")


def test_select_random_none_when_no_positive():
    cfg = TrainerConfig(templates=T1, threshold=1, strategy=Strategy.RANDOM)
    scored = [(_r("x"), RuleScore(1, 1, 0)), (_r("y"), RuleScore(0, 2, 0))]
    assert select(scored, cfg, random.Random(0)) is None


# --- config validation -------------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        TrainerConfig(threshold=0)
    with pytest.raises(ValueError):
        TrainerConfig(templates=())
    with pytest.raises(ValueError):
        TrainerConfig(max_passes=-1)


# --- training runs -----------------------------------------------------------------


def test_train_toy_exact():
    c = parse_corpus(TOY_TEXT)
    lex = lex_of(TOY_LEX, "NN")
    model, trace, curve = train_naive(c, lex, TrainerConfig(threshold=2))
    assert model.rules == [Rule("MD", "NN", [(-1, "DT")])]
    assert len(trace) == 1
    rec = trace[0]
    assert (rec.pass_no, rec.pos, rec.neg, rec.neut) == (1, 2, 0, 0)
    assert rec.train_accuracy_after == 1.0
    assert curve == [2 / 3, 1.0]
    assert error_count(c) == 0


def test_train_naive_builds_each_rule_once(monkeypatch):
    built = []

    def counting_rule(frm, to, ctx):
        built.append(Rule(frm, to, ctx))
        return built[-1]

    monkeypatch.setattr(trainer_naive, "Rule", counting_rule)
    spec = ChainSpec(n_tags=6, structure_seed=3)
    c = parse_corpus(markov_corpus(spec, draw_seed=4, n_tokens=400))
    cfg = TrainerConfig(templates=T1R, threshold=1)
    model, _, _ = train_naive(c, build_lexicon(c, "T00"), cfg)
    assert len(model.rules) >= 3
    assert len(built) == len(set(built))
    # the learned rules are the objects the memo built
    assert all(any(rule is b for b in built) for rule in model.rules)


def test_train_perfect_baseline_learns_nothing():
    c = parse_corpus("a/A b/B\n")
    model, trace, curve = train_naive(c, build_lexicon(c, "A"))
    assert model.rules == []
    assert trace == []
    assert curve == [1.0]


def test_train_tie_break_order():
    text = "a/A x/X\na/A x/X\nb/B y/Y\nb/B y/Y\n"
    lex = lex_of({"a": "A", "b": "B", "x": "W", "y": "W"}, "Z")
    model, _, _ = train_naive(parse_corpus(text), lex, TrainerConfig(templates=T1, threshold=2))
    assert model.rules == [
        Rule("W", "X", [(-1, "A")]),
        Rule("W", "Y", [(-1, "B")]),
    ]


def test_train_max_passes():
    text = "a/A x/X\na/A x/X\nb/B y/Y\nb/B y/Y\n"
    lex = lex_of({"a": "A", "b": "B", "x": "W", "y": "W"}, "Z")
    cfg = TrainerConfig(templates=T1, threshold=1, max_passes=1)
    model, trace, curve = train_naive(parse_corpus(text), lex, cfg)
    assert len(model.rules) == 1
    assert len(trace) == 1
    assert len(curve) == 2

    cfg0 = TrainerConfig(templates=T1, threshold=1, max_passes=0)
    model0, trace0, curve0 = train_naive(parse_corpus(text), lex, cfg0)
    assert model0.rules == []
    assert trace0 == []
    assert len(curve0) == 1


def test_train_random_strategy_reproducible():
    text = "a/A x/X\na/A x/X\nb/B y/Y\nb/B y/Y\n"
    lex = lex_of({"a": "A", "b": "B", "x": "W", "y": "W"}, "Z")
    cfg = TrainerConfig(templates=T1, threshold=1, strategy=Strategy.RANDOM, rng_seed=3)
    m1, t1, c1 = train_naive(parse_corpus(text), lex, cfg)
    m2, t2, c2 = train_naive(parse_corpus(text), lex, cfg)
    assert m1.rules == m2.rules
    assert t1 == t2
    assert c1 == c2
    assert {r.canonical for r in m1.rules} == {"W>X @ -1:A", "W>Y @ -1:B"}


@given(seed=st.integers(0, 10**6))
@settings(max_examples=10)
def test_train_curve_monotone_and_replayable(seed):
    rng = random.Random(seed)
    spec = ChainSpec(
        n_tags=rng.randint(4, 8),
        words_per_tag=3,
        ambiguous_words=rng.randint(3, 8),
        structure_seed=rng.randrange(2**20),
    )
    text = markov_corpus(spec, draw_seed=rng.randrange(2**20), n_tokens=200)
    corpus = parse_corpus(text)
    lex = build_lexicon(corpus, "T00")
    cfg = TrainerConfig(templates=T1R, threshold=1)
    model, trace, curve = train_naive(corpus, lex, cfg)

    # strictly monotone train accuracy: every selected rule has net score >= 1
    for a0, a1 in zip(curve, curve[1:]):
        assert a1 > a0
    assert curve[-1] == accuracy(corpus)
    assert [rec.train_accuracy_after for rec in trace] == curve[1:]

    # replaying the rule sequence on a fresh copy reproduces the curve exactly
    replay = clone(corpus)
    baseline_assign(replay, lex)
    assert accuracy(replay) == curve[0]
    for rec, expected in zip(trace, curve[1:]):
        before = error_count(replay)
        apply_rule(rec.rule, replay)
        assert before - error_count(replay) == rec.pos - rec.neg
        assert accuracy(replay) == expected
    assert replay == corpus
