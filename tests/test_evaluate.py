"""Model application and accuracy curves."""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbltag.corpus import (
    BOUNDARY,
    CHUNK_CHARS,
    Corpus,
    ParseError,
    Token,
    accuracy,
    accuracy_of,
    baseline_assign,
    build_lexicon,
    error_count,
    file_chunks,
    parse_corpus,
    serialize_corpus,
    text_chunks,
)
from tbltag.evaluate import tag, tag_stream
from tbltag.rules import Rule, apply_rule, decode_rule, encode_rule, parse_template_spec
from tbltag.synth import ChainSpec, markov_corpus
from tbltag.trainer_naive import train_naive
from tbltag.training import Model, TrainerConfig, curve_tsv

from helpers import TOY_LEX, TOY_TEXT, clone, lex_of

T2 = parse_template_spec("-1; +1")

# Chunk sizes in characters; 1 cuts after every "\n".
_CHUNK_SIZES = (1, 2, 7, CHUNK_CHARS)


def _chunks(text, chunk_chars, from_file):
    """The text's chunks as ``text_chunks`` cuts them, or ``file_chunks`` from a file of it."""
    if from_file:
        return file_chunks(io.StringIO(text), chunk_chars)
    return text_chunks(text, chunk_chars)


def _chunkings(text, sizes=_CHUNK_SIZES):
    """The text's chunks from both chunkers at each size, one iterable per cut."""
    return [_chunks(text, n, from_file) for n in sizes for from_file in (False, True)]


def _curve(model, train_text, test_text=None, errored_only=False):
    """The train and test accuracy columns over gold texts, each replayed
    once by ``tag_stream``; the test column is None with no test text."""

    def column(text):
        return tag_stream(model, text_chunks(text), tagged=True).accuracies(errored_only)

    return column(train_text), None if test_text is None else column(test_text)


def _trained(seed: int = 5, n_tokens: int = 200):
    rng = random.Random(seed)
    spec = ChainSpec(
        n_tags=rng.randint(4, 8),
        words_per_tag=3,
        ambiguous_words=rng.randint(3, 8),
        structure_seed=rng.randrange(2**20),
    )
    train_text = markov_corpus(spec, draw_seed=rng.randrange(2**20), n_tokens=n_tokens)
    test_text = markov_corpus(spec, draw_seed=rng.randrange(2**20), n_tokens=n_tokens)
    corpus = parse_corpus(train_text)
    lex = build_lexicon(corpus, "T00")
    model, _, curve = train_naive(corpus, lex, TrainerConfig(templates=T2, threshold=1))
    return model, corpus, train_text, test_text, curve


def test_tag_replays_training_exactly():
    corpus = parse_corpus(TOY_TEXT)
    model, _, _ = train_naive(corpus, lex_of(TOY_LEX, "NN"), TrainerConfig(threshold=2))
    replay = tag(model, clone(corpus))
    assert replay == corpus
    assert serialize_corpus(replay, which="current") == serialize_corpus(
        corpus, which="current"
    )


@given(seed=st.integers(0, 10**6))
@settings(max_examples=10)
def test_tag_replay_property(seed):
    rng = random.Random(seed)
    spec = ChainSpec(
        n_tags=rng.randint(4, 8),
        words_per_tag=3,
        ambiguous_words=rng.randint(3, 8),
        structure_seed=rng.randrange(2**20),
    )
    corpus = parse_corpus(markov_corpus(spec, draw_seed=rng.randrange(2**20), n_tokens=150))
    lex = build_lexicon(corpus, "T00")
    model, _, _ = train_naive(corpus, lex, TrainerConfig(templates=T2, threshold=1))
    assert tag(model, clone(corpus)) == corpus


# Every regex metacharacter as a tag, and enough further tags that the
# corpus string's codes leave Latin-1.
_META_TAGS = list(".*+?()[]{}|\\^$") + ["a.b", "(?:", "\\d"]
_MANY_TAGS = [f"T{i}" for i in range(300)]
_ABSENT = "ABSENT"  # a rule tag no corpus token carries


@st.composite
def _replay_case(draw):
    """A lexicon, rules over its tags, and sentences of 1-6 tokens."""
    many = draw(st.booleans())
    tags = draw(
        st.lists(
            st.sampled_from(_META_TAGS + (_MANY_TAGS if many else [])),
            min_size=1, max_size=6, unique=True,
        )
    )
    words = [f"w{i}" for i in range(draw(st.integers(1, 4)))]
    sentences = [
        [(draw(st.sampled_from(words)), draw(st.sampled_from(tags))) for _ in range(n)]
        for n in draw(st.lists(st.integers(1, 6), max_size=6))
    ]
    lexicon = build_lexicon(
        Corpus([[Token(w, t, t) for w, t in sent] for sent in sentences]), tags[0]
    )
    if many:
        for i, t in enumerate(_MANY_TAGS):
            lexicon.add(f"x{i}", t)
    rule_tags = tags + [_ABSENT]
    # offsets beyond every sentence: with <B> the constraint always holds,
    # with a tag it never does
    offset = st.integers(-4, 4).filter(bool) | st.sampled_from([-1_000_000, 1_000_000])
    rules = []
    for _ in range(draw(st.integers(0, 8))):
        frm = draw(st.sampled_from(rule_tags))
        to = draw(st.sampled_from([t for t in rule_tags if t != frm]))
        shape = draw(st.sampled_from(["any", "run", "gap", "periodic"]))
        if shape == "any":
            offsets = draw(st.lists(offset, min_size=1, max_size=3, unique=True))
        else:
            # a run of offsets that with 0 is unbroken, matched as a literal
            # window; "gap" adds one offset past a hole, matched by a pattern
            lo = draw(st.integers(-3, 0))
            hi = draw(st.integers(0 if lo else 1, 3))
            offsets = [o for o in range(lo, hi + 1) if o]
            if shape == "gap":
                offsets.append(draw(st.sampled_from([lo - 2, lo - 3, hi + 2, hi + 3])))
        if shape == "periodic":
            # every context tag is the source tag, so a run of it in a
            # sentence gives hits whose windows overlap
            ctx = [(o, frm) for o in offsets]
        else:
            ctx = [(o, draw(st.sampled_from(rule_tags + [BOUNDARY]))) for o in offsets]
        rules.append(decode_rule(encode_rule(Rule(frm, to, ctx))))
    return Model(lexicon, rules), sentences


def _streamed_sites(model, chunks):
    """Each pass's sites as ``tag_stream`` hands them to ``on_rule``, chunks joined."""
    got = {}

    def on_rule(pass_no, rule, sites):
        assert rule is model.rules[pass_no - 1]
        assert sites  # called only for a rule with hits in the chunk
        got.setdefault(pass_no, []).extend(sites)

    tag_stream(model, chunks, tagged=True, on_rule=on_rule)
    return [(pass_no, rule, got.get(pass_no, [])) for pass_no, rule in enumerate(model.rules, 1)]


@given(case=_replay_case())
@settings(max_examples=300)
def test_replay_matches_apply_rule_adversarial(case):
    model, sentences = case

    def fresh() -> Corpus:
        return Corpus([[Token(w, t) for w, t in sent] for sent in sentences])

    expected = fresh()
    baseline_assign(expected, model.lexicon)
    expected_sites = [
        (pass_no, rule, apply_rule(rule, expected))
        for pass_no, rule in enumerate(model.rules, start=1)
    ]
    assert tag(model, fresh()) == expected
    text = "".join(" ".join(f"{w}/{t}" for w, t in sent) + "\n" for sent in sentences)
    for chunks in _chunkings(text):
        assert _streamed_sites(model, chunks) == expected_sites


def test_replay_codes_beyond_latin1():
    # 600 tags, one token each; rule i looks two back across an
    # unconstrained gap.  Descending order keeps every context intact, so
    # each rule fires exactly once, whatever its tags' codes.
    tags = [f"T{i:03d}" for i in range(600)]
    gold = " ".join(f"w{i}/{t}" for i, t in enumerate(tags))
    lexicon = build_lexicon(parse_corpus(gold), "Z")
    rules = [Rule(tags[i], "Z", [(-2, tags[i - 2])]) for i in range(599, 1, -1)]
    model = Model(lexicon, rules)
    got = tag(model, parse_corpus(" ".join(f"w{i}" for i in range(600)) + "\n", tagged=False))
    assert [t.current for t in got.sentences[0]] == tags[:2] + ["Z"] * 598
    got_sites = [site for _, _, sites in _streamed_sites(model, text_chunks(gold)) for site in sites]
    assert got_sites == [(0, i) for i in range(599, 1, -1)]


def test_tag_unknown_words_get_default():
    corpus = parse_corpus(TOY_TEXT)
    model, _, _ = train_naive(corpus, lex_of(TOY_LEX, "NN"), TrainerConfig(threshold=2))
    out = tag(model, parse_corpus("frobnicate\n", tagged=False))
    assert out.sentences[0][0].current == "NN"


# Line breaks str.splitlines honours but iterating over a file's lines
# would not, and whitespace str.split honours inside a line.
_BREAKS = ["\n", "\r\n", "\r", "\x85", "\u2028", "\x0c", "\x1c", "\n\n", "\n \n"]
_GAPS = [" ", "  ", "\t", "\x1f", "\u3000"]
_BAD_ITEMS = ["x", "/x", "x/", f"x/{BOUNDARY}"]


@st.composite
def _stream_case(draw):
    """A model, a text of its sentences, whether it is tagged, how to cut it.

    Some words are unknown to the lexicon, some tags to the model, and a
    tagged text may hold one malformed item.
    """
    model, sentences = draw(_replay_case())
    tagged = draw(st.booleans())
    lines = []
    for sent in sentences:
        items = []
        for word, tag_ in sent:
            if draw(st.integers(0, 5)) == 0:
                word = f"new{len(items)}"
            if draw(st.integers(0, 5)) == 0:
                tag_ = f"NEW{len(items) % 3}"
            items.append(f"{word}/{tag_}" if tagged else word)
        lines.append(draw(st.sampled_from(["", " "])) + draw(st.sampled_from(_GAPS)).join(items))
    if tagged and draw(st.integers(0, 3)) == 0:
        bad = draw(st.sampled_from(_BAD_ITEMS))
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "w0/T0 "])) + bad)
    breaks = [draw(st.sampled_from(_BREAKS)) for _ in lines]
    if breaks and draw(st.booleans()):
        breaks[-1] = ""
    text = "".join(line + end for line, end in zip(lines, breaks))
    return model, text, tagged, (draw(st.sampled_from(_CHUNK_SIZES)), draw(st.booleans()))


@given(case=_stream_case())
@settings(max_examples=300)
def test_tag_stream_matches_tag(case):
    model, text, tagged, cut = case
    out = io.StringIO()
    new_tags = []

    def stream():
        return tag_stream(model, _chunks(text, *cut), out, tagged, new_tags.append)

    try:
        corpus = parse_corpus(text, tagged)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            stream()
        assert str(got.value) == str(exc)
        return
    tally = stream()
    tag(model, corpus)
    assert out.getvalue() == serialize_corpus(corpus, "current")
    assert tally.tokens == corpus.n_tokens
    assert tally.errors == error_count(corpus)
    assert accuracy_of(tally.tokens, tally.errors) == accuracy(corpus)
    known = set(model.tagset())
    expected_new = []
    for sent in corpus.sentences:
        for tok in sent:
            if tagged and tok.truth not in known and tok.truth not in expected_new:
                expected_new.append(tok.truth)
    assert new_tags == expected_new
    if tagged:
        # the per-rule counts, tags outside the tagset and chunking included
        for errored_only in (False, True):
            assert tally.accuracies(errored_only) == _recounted_curve(model, corpus, errored_only)


def test_evaluate_curve_matches_trainer_curve():
    model, corpus, train_text, _, train_curve = _trained()
    train, test = _curve(model, train_text)
    assert train == train_curve
    assert test is None
    assert train[-1] == accuracy(corpus)


def test_evaluate_curve_toy():
    corpus = parse_corpus(TOY_TEXT)
    model, _, _ = train_naive(corpus, lex_of(TOY_LEX, "NN"), TrainerConfig(threshold=2))
    assert _curve(model, TOY_TEXT) == ([2 / 3, 1.0], None)


def test_evaluate_curve_with_test_corpus():
    model, _, train_text, test_text, _ = _trained()
    train_vals, test_vals = _curve(model, train_text, test_text)
    assert len(train_vals) == len(test_vals) == len(model.rules) + 1
    for test_acc in test_vals:
        assert 0.0 <= test_acc <= 1.0
    # train accuracy strictly improves; test accuracy merely exists
    assert train_vals == sorted(train_vals)
    assert train_vals[-1] > train_vals[0]


def test_evaluate_curve_errored_only():
    corpus = parse_corpus(TOY_TEXT)
    model, _, _ = train_naive(corpus, lex_of(TOY_LEX, "NN"), TrainerConfig(threshold=2))
    # the two baseline errors go from all-wrong to all-right
    assert _curve(model, TOY_TEXT, errored_only=True) == ([0.0, 1.0], None)


def test_evaluate_curve_errored_only_empty_mask():
    text = "a/A b/B\n"
    corpus = parse_corpus(text)
    model, _, _ = train_naive(corpus, build_lexicon(corpus, "A"))
    assert _curve(model, text, errored_only=True) == ([1.0], None)


def _recounted_curve(model, corpus, errored_only):
    """Accuracy recounted over the whole corpus after each rule."""
    baseline_assign(corpus, model.lexicon)
    mask = [
        t for sent in corpus.sentences for t in sent
        if t.truth is not None and t.current != t.truth
    ]

    def measure():
        if not errored_only:
            return accuracy(corpus)
        return sum(t.current == t.truth for t in mask) / len(mask) if mask else 1.0

    points = [measure()]
    for rule in model.rules:
        apply_rule(rule, corpus)
        points.append(measure())
    return points


@pytest.mark.parametrize("errored_only", [False, True])
def test_evaluate_curve_counts_match_recount(errored_only):
    model, _, train_text, test_text, _ = _trained(seed=17, n_tokens=2000)
    assert len(model.rules) > 10
    columns = _curve(model, train_text, test_text, errored_only)
    assert [len(column) for column in columns] == [len(model.rules) + 1] * 2
    for column, text in zip(columns, [train_text, test_text]):
        recounted = _recounted_curve(model, parse_corpus(text), errored_only)
        assert column == recounted
        # the per-rule counts add up the same across any chunk boundaries
        for chunks in _chunkings(text, (1, 7, 64, CHUNK_CHARS)):
            tally = tag_stream(model, chunks, tagged=True)
            assert tally.accuracies(errored_only) == recounted


def test_curve_tsv_train_only():
    assert curve_tsv([0.5, 1.0]) == "pass\ttrain_acc\n0\t0.5\n1\t1.0\n"


def test_curve_tsv_with_test():
    assert curve_tsv([0.5, 1.0], [0.25, 0.75]) == (
        "pass\ttrain_acc\ttest_acc\n0\t0.5\t0.25\n1\t1.0\t0.75\n"
    )
