"""Templates, rules, matching, scoring, application, text encodings."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbltag.corpus import BOUNDARY, error_count, parse_corpus
from tbltag.rules import (
    DEFAULT_TEMPLATE_SPEC,
    DEFAULT_TEMPLATES,
    DecodeError,
    Rule,
    RuleScore,
    Template,
    apply_rule,
    code_corpus,
    decode_rule,
    display_rule,
    encode_rule,
    find_sites,
    observe,
    parse_template_spec,
    position_sets,
    render_slots,
    render_template_spec,
    rewrite,
    sites_of,
    tag_codes,
)
from tbltag.trainer_naive import enumerate_candidates

from helpers import TOY_LEX, TOY_TEXT, baselined, score_rule


# --- templates ---------------------------------------------------------------


def test_template_sorts_and_spans():
    t = Template((2, -1))
    assert t.positions == (-1, 2)
    assert t.span == 2


@pytest.mark.parametrize(
    "positions",
    [(), (0,), (1, 1), (6,), (-6, 1)],
)
def test_template_rejects_bad_positions(positions):
    with pytest.raises(ValueError):
        Template(positions)


def test_template_window_widens():
    t = Template((9,), window=10)
    assert t.span == 9


def test_parse_template_spec():
    templates = parse_template_spec("-1; -2,-1; +1")
    assert [t.positions for t in templates] == [(-1,), (-2, -1), (1,)]


def test_parse_template_spec_errors():
    with pytest.raises(ValueError):
        parse_template_spec("")
    with pytest.raises(ValueError):
        parse_template_spec("-1;;+1")
    with pytest.raises(ValueError):
        parse_template_spec("a,b")
    with pytest.raises(ValueError):
        parse_template_spec("0")
    with pytest.raises(ValueError):
        parse_template_spec("-7")


def test_parse_template_spec_window():
    with pytest.raises(ValueError):
        parse_template_spec("-7", window=5)
    assert parse_template_spec("-7", window=7)[0].positions == (-7,)


def test_default_spec_round_trip():
    assert render_template_spec(DEFAULT_TEMPLATES) == DEFAULT_TEMPLATE_SPEC
    assert parse_template_spec(render_template_spec(DEFAULT_TEMPLATES)) == DEFAULT_TEMPLATES


# --- rule construction ---------------------------------------------------------


def test_rule_value_semantics():
    a = Rule("A", "B", [(1, "X"), (-1, "Y")])
    b = Rule("A", "B", [(-1, "Y"), (1, "X")])
    assert a == b
    assert hash(a) == hash(b)
    assert a.ctx == ((-1, "Y"), (1, "X"))
    assert a.positions == (-1, 1)
    assert a.span == 1
    assert {a, b} == {a}


def test_rule_wide_context_template():
    # a rule's context may reach past the default template window
    r = Rule("A", "B", [(-9, "X")])
    assert r.positions == (-9,)
    assert r.span == 9


@pytest.mark.parametrize(
    "frm, to, ctx",
    [
        ("A", "A", [(1, "X")]),
        (BOUNDARY, "B", [(1, "X")]),
        ("A", BOUNDARY, [(1, "X")]),
        ("", "B", [(1, "X")]),
        ("A", "", [(1, "X")]),
        ("A", "B", []),
        ("A", "B", [(0, "X")]),
        ("A", "B", [(1, "X"), (1, "Y")]),
        ("A", "B", [(1, "")]),
    ],
)
def test_rule_rejects_invalid(frm, to, ctx):
    with pytest.raises(ValueError):
        Rule(frm, to, ctx)


# --- observation keys ----------------------------------------------------------


def test_position_sets_dedupe_in_order():
    templates = parse_template_spec("+1; -1; 1; -2,-1; -1,-2")
    assert position_sets(templates) == [(1,), (-1,), (-2, -1)]


def test_observe_boundaries():
    c = parse_corpus("a/A b/B c/C\n")
    sent = c.sentences[0]
    psets = [(-1,), (1,), (-5,)]
    rows = observe(sent, psets, 5)
    assert rows == [
        [(0, "A", (BOUNDARY,)), (1, "A", ("B",)), (2, "A", (BOUNDARY,))],
        [(0, "B", ("A",)), (1, "B", ("C",)), (2, "B", (BOUNDARY,))],
        [(0, "C", ("B",)), (1, "C", (BOUNDARY,)), (2, "C", (BOUNDARY,))],
    ]
    # span exactly the widest offset: the first and last edge cells are read
    assert [row[0][2] for row in observe(sent, [(2,)], 2)] == [("C",), (BOUNDARY,), (BOUNDARY,)]
    assert [row[0][2] for row in observe(sent, [(-2,)], 2)] == [(BOUNDARY,), (BOUNDARY,), ("A",)]


_OBS_TAG = st.sampled_from(["A", "B", "C"])
_OFFSET = st.integers(-8, 8).filter(lambda o: o != 0)


@given(
    tags=st.lists(_OBS_TAG, min_size=1, max_size=6),
    psets=st.lists(
        st.lists(_OFFSET, min_size=1, max_size=3, unique=True).map(lambda p: tuple(sorted(p))),
        min_size=1,
        max_size=4,
    ),
    extra=st.integers(0, 3),
)
@settings(max_examples=300)
def test_observe_matches_per_site_read(tags, psets, extra):
    # Offsets reach up to 8 past sentences of at most 6 tokens, so many sets
    # span wider than the sentence; span may also exceed the widest offset.
    sent = parse_corpus(" ".join(f"w/{t}" for t in tags) + "\n").sentences[0]
    n = len(sent)
    span = max(abs(o) for pset in psets for o in pset) + extra

    def tag_at(j):
        return sent[j].current if 0 <= j < n else BOUNDARY

    want = [
        [(pi, tag_at(ti), tuple(tag_at(ti + off) for off in pset)) for pi, pset in enumerate(psets)]
        for ti in range(n)
    ]
    assert observe(sent, psets, span) == want


def test_instantiate_at_error_site():
    c = baselined(TOY_TEXT, TOY_LEX, "NN")
    # sites (0,1) and (0,4) are "can" tagged MD, truth NN, left neighbor DT
    rule = Rule("MD", "NN", [(-1, "DT")])
    assert enumerate_candidates(c, [Template((-1,))]) == {rule: RuleScore(2, 0, 0)}
    assert find_sites(rule, c) == [(0, 1), (0, 4)]


def test_instantiate_correct_site_none():
    # only the two mistagged MD sites instantiate rules
    c = baselined(TOY_TEXT, TOY_LEX, "NN")
    cands = enumerate_candidates(c, DEFAULT_TEMPLATES)
    assert cands
    assert {(r.frm, r.to) for r in cands} == {("MD", "NN")}


def test_instantiate_untagged_none():
    c = parse_corpus("a b\n", tagged=False)
    c.sentences[0][0].current = "X"
    assert enumerate_candidates(c, [Template((1,))]) == {}


def test_instantiate_boundary_context():
    c = parse_corpus("a/A\n")
    c.sentences[0][0].current = "X"
    (rule,) = enumerate_candidates(c, [Template((-1, 1))])
    assert rule.ctx == ((-1, BOUNDARY), (1, BOUNDARY))


def test_matches_requires_frm_and_context():
    c = parse_corpus("a/A b/B c/C\n")
    # (0,0) holds A, not B
    assert find_sites(Rule("B", "Z", [(-1, "A")]), c) == [(0, 1)]
    assert find_sites(Rule("B", "Z", [(-1, "C")]), c) == []
    assert find_sites(Rule("A", "Z", [(-1, BOUNDARY)]), c) == [(0, 0)]


def test_classify_effect_three_ways():
    c = parse_corpus("a/A b/GOOD c/C\n")
    c.sentences[0][1].current = "B"
    # matched, target equals truth
    assert score_rule(Rule("B", "GOOD", [(-1, "A")]), c) == RuleScore(1, 0, 0)
    # matched, source equals truth: would break a correct tag
    c2 = parse_corpus("a/A b/B c/C\n")
    assert score_rule(Rule("B", "Z", [(-1, "A")]), c2) == RuleScore(0, 1, 0)
    # matched, wrong before and after
    assert score_rule(Rule("B", "Z", [(-1, "A")]), c) == RuleScore(0, 0, 1)
    assert score_rule(Rule("B", "Z", [(-1, "Q")]), c) == RuleScore(0, 0, 0)


# --- scoring and application ----------------------------------------------------


def test_score_rule_toy():
    c = baselined(TOY_TEXT, TOY_LEX, "NN")
    rule = Rule("MD", "NN", [(-1, "DT")])
    assert score_rule(rule, c) == RuleScore(pos=2, neg=0, neut=0)
    assert score_rule(rule, c).score == 2


def test_rule_score_net():
    assert RuleScore(3, 1, 5).score == 2


def test_find_sites_order_and_apply():
    c = baselined(TOY_TEXT, TOY_LEX, "NN")
    rule = Rule("MD", "NN", [(-1, "DT")])
    assert find_sites(rule, c) == [(0, 1), (0, 4)]
    changed = apply_rule(rule, c)
    assert changed == [(0, 1), (0, 4)]
    assert error_count(c) == 0
    assert [t.current for t in c.sentences[0]] == ["DT", "NN", "VBZ", "DT", "NN", "."]


def test_apply_rule_snapshot_semantics():
    # both the second and third T match against the pre-application state,
    # so both fire even though the first rewrite breaks the second's context
    c = parse_corpus("x/T x/T x/T\n")
    rule = Rule("T", "U", [(-1, "T")])
    changed = apply_rule(rule, c)
    assert changed == [(0, 1), (0, 2)]
    assert [t.current for t in c.sentences[0]] == ["T", "U", "U"]


def test_apply_rule_can_create_new_matches():
    # applying once can enable the rule elsewhere; it does not re-fire within
    # one application
    c = parse_corpus("x/B y/A z/A\n")
    c.sentences[0][1].current = "A"
    c.sentences[0][2].current = "A"
    rule = Rule("A", "B", [(-1, "B")])
    assert apply_rule(rule, c) == [(0, 1)]
    assert apply_rule(rule, c) == [(0, 2)]


_TAGS = ["T0", "T1", "T2", "T3"]


def _sites(corpus):
    return [(si, ti) for si, sent in enumerate(corpus.sentences) for ti in range(len(sent))]


def _token(corpus, site):
    return corpus.sentences[site[0]][site[1]]


def _instantiate(sent, ti, positions):
    """The rule fixing mistagged token ti, read at the given offsets."""
    ctx = [(p, sent[ti + p].current if 0 <= ti + p < len(sent) else BOUNDARY) for p in positions]
    return Rule(sent[ti].current, sent[ti].truth, ctx)


@st.composite
def corpus_and_rule(draw):
    n_sent = draw(st.integers(1, 4))
    rows = []
    for _ in range(n_sent):
        length = draw(st.integers(1, 7))
        rows.append(
            [(f"w{draw(st.integers(0, 5))}", draw(st.sampled_from(_TAGS))) for _ in range(length)]
        )
    text = "".join(" ".join(f"{w}/{t}" for w, t in row) + "\n" for row in rows)
    corpus = parse_corpus(text)
    # one current tag makes runs of it, where a window's hits overlap
    current = _TAGS[: draw(st.integers(1, len(_TAGS)))]
    for sent in corpus.sentences:
        for tok in sent:
            tok.current = draw(st.sampled_from(current))
    # runs with 0 that are unbroken (-1; -2,-1; -1,+1) or have a gap (-2;
    # +2; -2,+1), and 9, beyond every sentence
    positions = tuple(sorted(
        draw(st.lists(st.sampled_from([-9, -3, -2, -1, 1, 2, 3, 9]),
                      min_size=1, max_size=3, unique=True))
    ))
    errs = [s for s in _sites(corpus) if _token(corpus, s).current != _token(corpus, s).truth]
    if errs:
        # the rule instantiated at a drawn error site
        si, ti = draw(st.sampled_from(errs))
        rule = _instantiate(corpus.sentences[si], ti, positions)
    else:
        ctx = [(p, draw(st.sampled_from(_TAGS + [BOUNDARY]))) for p in positions]
        rule = Rule("T0", "T1", ctx)
    if draw(st.booleans()):
        # one context tag redrawn, so a far offset may hold a tag as well
        i = draw(st.integers(0, len(positions) - 1))
        ctx = dict(rule.ctx)
        ctx[positions[i]] = draw(st.sampled_from(_TAGS + [BOUNDARY]))
        rule = Rule(rule.frm, rule.to, ctx.items())
    return corpus, rule


@given(corpus_and_rule())
def test_find_sites_agrees_with_matches(cr):
    # find_sites against the sites whose observation key is the rule's key
    corpus, rule = cr
    psets = [rule.positions]
    key = (0, rule.frm, tuple(t for _, t in rule.ctx))
    expected = [
        (si, ti)
        for si, sent in enumerate(corpus.sentences)
        for ti, row in enumerate(observe(sent, psets, rule.span))
        if row[0] == key
    ]
    assert find_sites(rule, corpus) == expected


@given(corpus_and_rule())
def test_score_agrees_with_classify(cr):
    corpus, rule = cr
    truths = [_token(corpus, s).truth for s in find_sites(rule, corpus)]
    pos = truths.count(rule.to)
    neg = truths.count(rule.frm)
    assert score_rule(rule, corpus) == RuleScore(pos, neg, len(truths) - pos - neg)


@given(corpus_and_rule())
def test_apply_drops_errors_by_score(cr):
    corpus, rule = cr
    expected_drop = score_rule(rule, corpus).score
    before = error_count(corpus)
    sites = apply_rule(rule, corpus)
    assert before - error_count(corpus) == expected_drop
    assert all(_token(corpus, s).current == rule.to for s in sites)


@given(corpus_and_rule())
def test_apply_touches_only_matched_sites(cr):
    corpus, rule = cr
    frozen = {s: _token(corpus, s).current for s in _sites(corpus)}
    sites = apply_rule(rule, corpus)
    for site in _sites(corpus):
        if site in set(sites):
            assert _token(corpus, site).current == rule.to
        else:
            assert _token(corpus, site).current == frozen[site]


@given(corpus_and_rule(), st.integers(0, 2))
@settings(max_examples=300)
def test_rewrite_agrees_with_apply_rule(cr, extra):
    # the coded string's matcher, a literal window or a pattern, against
    # the oracle; padding wider than needed must not change the result
    corpus, rule = cr
    codes = tag_codes(_TAGS)
    longest = max(len(sent) for sent in corpus.sentences)
    width = min(rule.span, longest) + extra
    text, starts = code_corpus(corpus, codes, width)
    got, hits = rewrite(rule, text, codes, width)
    assert sites_of(hits, starts) == apply_rule(rule, corpus)
    assert (got, starts) == code_corpus(corpus, codes, width)


@given(corpus_and_rule())
def test_instantiated_rule_is_positive_at_origin(cr):
    # the candidates are the rules instantiated at mistagged sites, each
    # matching its origin, which it fixes
    corpus, rule = cr
    template = Template(rule.positions, window=rule.span)
    cands = enumerate_candidates(corpus, [template])
    origins = {}
    for si, sent in enumerate(corpus.sentences):
        for ti, tok in enumerate(sent):
            if tok.current != tok.truth:
                origin = _instantiate(sent, ti, template.positions)
                origins.setdefault(origin, []).append((si, ti))
    assert set(cands) == set(origins)
    for cand, sc in cands.items():
        assert set(origins[cand]) <= set(find_sites(cand, corpus))
        assert sc.pos >= len(origins[cand])
        assert sc == score_rule(cand, corpus)


# --- encodings ------------------------------------------------------------------


def test_encode_rule_canonical_form():
    rule = Rule("MD", "NN", [(1, "X"), (-2, "Y")])
    assert encode_rule(rule) == "MD>NN @ -2:Y,1:X"
    assert rule.canonical == "MD>NN @ -2:Y,1:X"


def test_decode_rule_round_trip():
    text = "TO>IN @ 1:AT"
    rule = decode_rule(text)
    assert rule == Rule("TO", "IN", [(1, "AT")])
    assert encode_rule(rule) == text


def test_decode_rule_boundary_context():
    rule = decode_rule(f"A>B @ -1:{BOUNDARY}")
    assert rule.ctx == ((-1, BOUNDARY),)


def test_decode_rule_tags_with_punctuation():
    # tags may contain ':' and ',' as long as no ',<int>:' run appears
    rule = decode_rule("A:B>C,D @ 1:X:Y,2:P,Q")
    assert rule.frm == "A:B"
    assert rule.to == "C,D"
    assert rule.ctx == ((1, "X:Y"), (2, "P,Q"))
    assert decode_rule(encode_rule(rule)) == rule


@pytest.mark.parametrize(
    "text",
    [
        "A>B",
        "A B @ 1:C",
        "A>B @ ",
        "A>B @ x:C",
        "A>B @ 1:",
        "A>B @ 0:C",
        "A>B @ 1:C,1:D",
        "A>A @ 1:C",
        "A>B @ :C",
        "junk",
    ],
)
def test_decode_rule_malformed(text):
    with pytest.raises(DecodeError):
        decode_rule(text)


_FUZZ_TAG = st.text(
    alphabet=st.characters(
        min_codepoint=33,
        max_codepoint=126,
        exclude_characters="0123456789>",
    ),
    min_size=1,
    max_size=5,
)


@given(
    frm=_FUZZ_TAG,
    to=_FUZZ_TAG,
    ctx_tags=st.lists(_FUZZ_TAG, min_size=1, max_size=3),
    data=st.data(),
)
@settings(max_examples=300)
def test_encode_decode_fuzz(frm, to, ctx_tags, data):
    if frm == to:
        to = to + "'"
    offsets = data.draw(
        st.lists(
            st.integers(-9, 9).filter(lambda o: o != 0),
            min_size=len(ctx_tags),
            max_size=len(ctx_tags),
            unique=True,
        )
    )
    rule = Rule(frm, to, list(zip(offsets, ctx_tags)))
    assert decode_rule(encode_rule(rule)) == rule


# --- display ---------------------------------------------------------------------


def test_render_slots_one_right_context():
    assert render_slots(decode_rule("TO>IN @ 1:AT")) == "— — TO/IN AT —"


def test_render_slots_full_window():
    rule = Rule("A", "B", [(-2, "L2"), (-1, "L1"), (1, "R1"), (2, "R2")])
    assert render_slots(rule) == "L2 L1 A/B R1 R2"


def test_render_slots_rejects_wide():
    with pytest.raises(ValueError):
        render_slots(Rule("A", "B", [(3, "X")]))


def test_display_rule_falls_back_to_canonical():
    wide = Rule("A", "B", [(3, "X")])
    assert display_rule(wide) == "A>B @ 3:X"
    narrow = Rule("A", "B", [(1, "X")])
    assert display_rule(narrow) == "— — A/B X —"
