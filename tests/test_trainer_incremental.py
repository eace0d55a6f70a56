"""Incremental trainer: live index correctness and engine equivalence."""

import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tbltag.corpus import (
    BOUNDARY,
    CHUNK_CHARS,
    ParseError,
    baseline_assign,
    build_lexicon,
    count_tagged,
    error_count,
    lexicon_of,
    parse_corpus,
    text_chunks,
)
from tbltag.dependency import dependency_report, record_pass
from tbltag.evaluate import tag
from tbltag.rules import (
    DEFAULT_TEMPLATES,
    PAD,
    Rule,
    RuleScore,
    apply_rule,
    code_corpus,
    parse_template_spec,
    position_sets,
    tag_codes,
)
from tbltag.synth import ChainSpec, markov_corpus
from tbltag.trainer_incremental import (
    AUDIT_LOG_COLUMNS,
    AuditError,
    Candidate,
    TrainerIndex,
    apply_and_update,
    code_text,
    init_index,
    train_incremental,
    train_text,
    verify_index,
)
from tbltag.trainer_naive import count_keys, enumerate_candidates, train_naive
from tbltag.training import Strategy, TrainerConfig, format_model, select, trace_tsv

from helpers import TOY_LEX, TOY_TEXT, baselined, clone, lex_of, score_rule

T1 = parse_template_spec("-1")
T3 = parse_template_spec("-1; +1; -1,+1")


def _small_corpus(seed: int, n_tokens: int = 200):
    rng = random.Random(seed)
    spec = ChainSpec(
        n_tags=rng.randint(4, 8),
        words_per_tag=3,
        ambiguous_words=rng.randint(3, 8),
        structure_seed=rng.randrange(2**20),
    )
    return parse_corpus(markov_corpus(spec, draw_seed=rng.randrange(2**20), n_tokens=n_tokens))


# --- init_index -----------------------------------------------------------------


def _truths(index, rule) -> dict:
    """Truth-tag counts of the sites observing the rule's key."""
    counts = index.keys.get(index.key_of(rule), {})
    return {index.tags[code]: n for code, n in counts.items()}


def _decoded(index) -> dict:
    """Every key's truth counter, with tags in place of their codes."""
    tags = index.tags
    return {
        (key[0], *[tags[code] for code in key[1:]]): {tags[t]: n for t, n in counts.items()}
        for key, counts in index.keys.items()
    }


def test_init_index_matches_enumeration_toy():
    c = baselined(TOY_TEXT, TOY_LEX, "NN")
    index = init_index(c, T1)
    assert index.table == enumerate_candidates(c, T1)
    verify_index(index, c)


def test_init_index_links():
    c = baselined(TOY_TEXT, TOY_LEX, "NN")
    index = init_index(c, T1)
    rule = Rule("MD", "NN", [(-1, "DT")])
    codes = index.codes
    assert index.key_of(rule) == (0, codes["MD"], codes["DT"])
    assert _truths(index, rule) == {"NN": 2}
    assert index.table == {rule: RuleScore(2, 0, 0)}
    assert len(index.keys) == 5
    # one site-to-key membership per token and position set
    assert index.links_total == 6
    # the first token reads the boundary pad at offset -1
    assert index.keys[(0, codes["DT"], PAD)] == {codes["DT"]: 1}
    assert index.text == PAD + "".join(codes[t] for t in "DT MD VBZ DT MD .".split()) + PAD
    assert index.truth == PAD + "".join(codes[t] for t in "DT NN VBZ DT NN .".split()) + PAD
    assert index.starts == [1]


@given(seed=st.integers(0, 10**6))
@settings(max_examples=15)
def test_init_index_matches_enumeration(seed):
    c = _small_corpus(seed)
    baseline_assign(c, build_lexicon(c, "T00"))
    index = init_index(c, T3)
    assert index.table == enumerate_candidates(c, T3)
    verify_index(index, c)


# --- the front end: text straight to coded strings ------------------------------

# Line breaks str.splitlines honours, blank lines among them, and
# whitespace str.split honours inside a line.
_BREAKS = ["\n", "\r\n", "\r", "\x1c", "\u2028", "\n\n", "\r\n\r\n", "\n \t\n"]
_GAPS = [" ", "   ", "\t", " \t ", "\u3000"]
_BAD_ITEMS = ["x", "/x", "x/", f"x/{BOUNDARY}"]


@st.composite
def _tagged_text(draw):
    """Tagged text whose words may hold '/' or control characters, with up
    to two malformed items, on one line or two."""
    words = st.sampled_from(["a", "b", "a/b", "/", "c//", "d", "\0", "e\0", "\x01", "f\x7f/\x1b"])
    tags = st.sampled_from(["T0", "T1", "T2", "D", "\0", "T\x1b"])
    lines = [
        [f"{draw(words)}/{draw(tags)}" for _ in range(draw(st.integers(0, 5)))]
        for _ in range(draw(st.integers(0, 6)))
    ]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        bad = draw(st.sampled_from(_BAD_ITEMS))
        at = draw(st.integers(0, len(lines)))
        if at == len(lines) or draw(st.booleans()):
            lines.insert(at, [bad])
        else:
            lines[at].insert(draw(st.integers(0, len(lines[at]))), bad)
    text = []
    for items in lines:
        indent = draw(st.sampled_from(["", " ", "\t"]))
        text.append(indent + draw(st.sampled_from(_GAPS)).join(items))
    breaks = [draw(st.sampled_from(_BREAKS)) for _ in text]
    if breaks and draw(st.booleans()):
        breaks[-1] = ""
    return "".join(line + end for line, end in zip(text, breaks))


# The default chunk, and chunks cut after nearly every line.
_CHUNK_CHARS = [CHUNK_CHARS, 1, 2, 7]


@given(text=_tagged_text(), reach=st.integers(1, 3))
@example(text="a/T0\nb/T1 a/T0\nb/T1 c\n", reach=1)  # the bad item is in a later chunk
@settings(max_examples=300)
def test_front_end_matches_the_token_path(text, reach):
    # Each call reads its own text_chunks generator, which yields each chunk
    # once: a second read of the text would find it exhausted.
    try:
        corpus = parse_corpus(text)
    except ParseError as exc:
        for chunk_chars in _CHUNK_CHARS:
            with pytest.raises(ParseError) as got:
                count_tagged(text_chunks(text, chunk_chars))
            assert (str(got.value), got.value.line, got.value.column) == (
                str(exc), exc.line, exc.column
            )
        return
    want = build_lexicon(corpus, "D")
    errors = baseline_assign(corpus, want)
    codes = tag_codes(sorted({tok.truth for sent in corpus.sentences for tok in sent}) + [None])
    current, starts, _ = code_corpus(corpus, codes, reach)
    truth = code_corpus(corpus, codes, reach, "truth")[0]
    for chunk_chars in _CHUNK_CHARS:
        pairs = count_tagged(text_chunks(text, chunk_chars))
        assert sum(pairs.values()) == corpus.n_tokens
        lexicon = lexicon_of(pairs, "D")
        assert list(lexicon.counts.items()) == list(want.counts.items())
        assert code_text(text_chunks(text, chunk_chars), lexicon, reach) == (
            current, truth, starts, codes, errors
        )


def test_padding_is_capped_at_the_longest_sentence():
    # a template reaching far past every sentence costs no padding beyond
    # the longest one, in init_index and in code_text alike
    text = markov_corpus(ChainSpec(sentence_len=(5, 5), structure_seed=7), draw_seed=1,
                         n_tokens=500)
    templates = parse_template_spec("-1; +1,+20000", window=20000)
    corpus = parse_corpus(text)
    lexicon = build_lexicon(corpus, "T00")
    baseline_assign(corpus, lexicon)
    assert init_index(corpus, templates).width == 5
    n = len(corpus.sentences)
    counted = lexicon_of(count_tagged(text_chunks(text)), "T00")
    current, truth, starts, _, _ = code_text(text_chunks(text), counted, 20000)
    assert len(current) == len(truth) == corpus.n_tokens + 5 * (n + 1)
    assert starts == [5 + 10 * si for si in range(n)]


def test_train_text_matches_train_incremental():
    text = markov_corpus(ChainSpec(structure_seed=7), draw_seed=2, n_tokens=1500)
    config = TrainerConfig(templates=T3, threshold=1)
    corpus = parse_corpus(text)
    lexicon = build_lexicon(corpus, "T00")
    model, trace, curve = train_incremental(corpus, lexicon, config)
    counted = lexicon_of(count_tagged(text_chunks(text)), "T00")
    got, got_trace, got_curve = train_text(text, counted, config)
    assert len(model.rules) > 5
    assert (format_model(got), got_trace, got_curve) == (format_model(model), trace, curve)


def _recorder():
    """An on_rule that records dependency links and keeps every call's arguments.

    Returns ``(links, stream, on_rule)``; stream holds the ``(pass_no,
    rule, sites)`` of each call.
    """
    links, stream = {}, []

    def on_rule(pass_no, rule, sites):
        stream.append((pass_no, rule, sites))
        record_pass(links, pass_no, rule, sites)

    return links, stream, on_rule


def test_train_text_without_corpus_records_like_train_incremental():
    # dependency links need only each pass's sites, so train_text needs no
    # corpus for them: its on_rule stream is train_incremental's
    text = markov_corpus(ChainSpec(structure_seed=7), draw_seed=2, n_tokens=1500)
    config = TrainerConfig(templates=T3, threshold=1, record_deps=True)
    corpus = parse_corpus(text)
    want_links, want_stream, on_rule = _recorder()
    model, _, _ = train_incremental(corpus, build_lexicon(corpus, "T00"), config, on_rule=on_rule)
    links, stream, on_rule = _recorder()
    counted = lexicon_of(count_tagged(text_chunks(text)), "T00")
    got, _, _ = train_text(text, counted, config, on_rule=on_rule)
    assert len(stream) > 5
    assert format_model(got) == format_model(model)
    assert stream == want_stream
    assert dependency_report(links) == dependency_report(want_links)


def test_train_text_audit_checks_the_coded_strings(monkeypatch):
    # the audit parses the text itself, and checks the strings code_text
    # made against the parsed tokens
    text = markov_corpus(ChainSpec(structure_seed=7), draw_seed=2, n_tokens=1500)
    config = TrainerConfig(templates=T3, threshold=1)
    corpus = parse_corpus(text)
    want_log = []
    model, trace, curve = train_incremental(corpus, build_lexicon(corpus, "T00"), config,
                                            audit_log=want_log, audit=True)
    lexicon = lexicon_of(count_tagged(text_chunks(text)), "T00")
    log = []
    got, got_trace, got_curve = train_text(text, lexicon, config, audit_log=log, audit=True)
    assert len(log) > 5
    assert (format_model(got), got_trace, got_curve, log) == (
        format_model(model), trace, curve, want_log
    )

    def flipped(*args):
        current, truth, starts, codes, errors = code_text(*args)
        p = starts[0]
        other = next(c for t, c in codes.items() if t is not None and c != current[p])
        current = current[:p] + other + current[p + 1 :]
        return current, truth, starts, codes, errors

    monkeypatch.setattr("tbltag.trainer_incremental.code_text", flipped)
    with pytest.raises(AuditError, match="coded"):
        train_text(text, lexicon, config, audit=True)


# --- apply_and_update --------------------------------------------------------------


def test_apply_and_update_toy():
    c = baselined(TOY_TEXT, TOY_LEX, "NN")
    index = init_index(c, T1)
    rule = Rule("MD", "NN", [(-1, "DT")])
    changed = apply_and_update(index, c, rule)
    assert changed == [(0, 1), (0, 4)]
    assert error_count(c) == 0
    # both sites now carry NN: the rule's key has no sites left, so the key
    # and its only candidate are gone, and nothing is left to fix
    assert index.key_of(rule) not in index.keys
    assert index.table == {}
    assert _truths(index, Rule("NN", "MD", [(-1, "DT")])) == {"NN": 2}
    # the two rewritten sites and their right neighbors moved to new keys;
    # only those four read a rewritten tag under the offsets 0 and -1
    assert index.last_unseen_added == 3
    assert index.last_sites_rechecked == 4
    assert len(index.keys) == 5
    verify_index(index, c)


def test_apply_and_update_deletes_unlisted_keys_it_empties():
    # holds/VBZ and ./. read the rewritten MD at -1; their keys were never
    # listed, since each site is tagged right, and the pass empties them
    c = baselined(TOY_TEXT, TOY_LEX, "NN")
    index = init_index(c, T1)
    emptied = [index.key_of(Rule(tag, "NN", [(-1, "MD")])) for tag in ("VBZ", ".")]
    assert all(key in index.keys and key not in index.listed for key in emptied)
    apply_and_update(index, c, Rule("MD", "NN", [(-1, "DT")]))
    assert not any(key in index.keys for key in emptied)
    verify_index(index, c)
    # the key of a site with no truth tag moves nothing a rescore reads,
    # until the pass empties it
    c = baselined("a/DT b/NN c/VBZ\n", {"a": "DT", "b": "MD", "c": "VBZ"}, "NN")
    c.sentences[0][2].truth = None
    index = init_index(c, T1)
    (key,) = [key for key in index.keys if key[1] == index.codes["VBZ"]]
    assert index.keys[key] == {index.codes[None]: 1}
    apply_and_update(index, c, Rule("MD", "NN", [(-1, "DT")]))
    assert key not in index.keys
    verify_index(index, c)


def test_apply_and_update_rescores_an_unlisted_key_only_past_its_current_count(monkeypatch):
    # the pass moves x/Y's site from key X -1:P to key X -1:A, where one x/X
    # site already sits: a truth Y that only ties X leaves X>Y @ -1:A at net
    # score 0, and is not rescored; with a second x/Y site there, it passes
    # X, is rescored and listed
    rescore, rescored = TrainerIndex._rescore, []

    def recording(index, keys):
        rescored.extend(keys)
        rescore(index, keys)

    lex = {"d": "DT", "p": "P", "q": "A", "x": "X"}
    for extra, listed in (("", False), ("q/A x/Y\n", True)):
        c = baselined("d/DT p/A x/Y\nq/A x/X\n" + extra, lex, "X")
        index = init_index(c, T1)
        key = index.key_of(Rule("X", "Y", [(-1, "A")]))
        assert key in index.keys and key not in index.listed
        rescored.clear()
        monkeypatch.setattr(TrainerIndex, "_rescore", recording)
        apply_and_update(index, c, Rule("P", "A", [(-1, "DT")]))
        monkeypatch.undo()
        assert index.keys[key] == {index.codes["X"]: 1, index.codes["Y"]: 1 + listed}
        assert (key in rescored) is listed
        assert (key in index.listed) is listed
        verify_index(index, c)


def _refuses(rule: Rule) -> None:
    """apply_and_update refuses the rule on the toy index, and changes nothing."""
    c = baselined(TOY_TEXT, TOY_LEX, "NN")
    index = init_index(c, T1)
    text = index.text
    message = f"rule '{rule.canonical}' is not in the trainer index"
    with pytest.raises(KeyError, match=re.escape(message)):
        apply_and_update(index, c, rule)
    assert index.text == text
    verify_index(index, c)


def test_apply_and_update_unknown_rule():
    # no tag of it has a code
    _refuses(Rule("X", "Y", [(-1, "Z")]))


def test_apply_and_update_refuses_offsets_no_template_has():
    # its tags have codes, but -2 is no position set: key_of's psets.index fails
    _refuses(Rule("MD", "NN", [(-2, "DT")]))


def test_apply_and_update_refuses_a_target_its_key_never_holds():
    # its key is live, but no site observing it is a VBZ
    _refuses(Rule("MD", "VBZ", [(-1, "DT")]))


def test_apply_and_update_discovers_unseen_rules():
    # pass 1 rewrites f's tag; the neighbor v then joins the key the far
    # site in the second sentence already observes, and the rule fixing v
    # becomes a candidate scored over both sites
    text = "f/T v/V2\nt/T v/V9\n"
    c = baselined(text, {"f": "F", "v": "V", "t": "T"}, "Z")
    index = init_index(c, T1)
    r2 = Rule("V", "V2", [(-1, "T")])
    assert r2 not in index.table

    r1 = Rule("F", "T", [(-1, "<B>")])
    apply_and_update(index, c, r1)
    assert index.last_unseen_added == 0  # both keys were already observed
    assert index.last_sites_rechecked == 2
    assert _truths(index, r2) == {"V2": 1, "V9": 1}
    assert index.table[r2] == RuleScore(pos=1, neg=0, neut=1)
    verify_index(index, c)


def test_missing_truth_counts_as_neutral():
    # a token without a truth tag is no rule's target, but is a neutral
    # match of every rule matching it, in both engines
    text = "a/DT b/X\na/DT b/X\na/DT b/P\n"
    lex = lex_of({"a": "DT", "b": "P"}, "Z")
    c = parse_corpus(text)
    c.sentences[2][1].truth = None
    baseline_assign(c, lex)
    index = init_index(c, T1)
    rule = Rule("P", "X", [(-1, "DT")])
    assert index.table == {rule: RuleScore(2, 0, 1)}
    assert index.codes[None] not in (PAD, *[index.codes[t] for t in ("DT", "P", "X")])
    verify_index(index, c)

    corpus_n = parse_corpus(text)
    corpus_n.sentences[2][1].truth = None
    corpus_i = clone(corpus_n)
    cfg = TrainerConfig(templates=T1, threshold=1)
    mn, tn, _ = train_naive(corpus_n, lex, cfg)
    mi, ti, _ = train_incremental(corpus_i, lex, cfg, audit=True)
    assert mn.rules == mi.rules == [rule]
    assert tn == ti
    assert corpus_n == corpus_i


def test_chained_rules_learned_in_order():
    text = "a/DT b/X c/Y\n"
    c = baselined(text, {"a": "DT", "b": "P", "c": "Q"}, "Z")
    cfg = TrainerConfig(templates=T1, threshold=1)
    model, _, _ = train_incremental(c, lex_of({"a": "DT", "b": "P", "c": "Q"}, "Z"), cfg)
    assert [r.canonical for r in model.rules] == ["P>X @ -1:DT", "Q>Y @ -1:X"]


def test_chaining_pass_by_pass():
    text = "a/DT b/X c/Y\n"
    lex = lex_of({"a": "DT", "b": "P", "c": "Q"}, "Z")
    c = parse_corpus(text)
    baseline_assign(c, lex)
    index = init_index(c, T1)

    first = Rule("P", "X", [(-1, "DT")])
    stale = Rule("Q", "Y", [(-1, "P")])
    assert index.table == {first: RuleScore(1, 0, 0), stale: RuleScore(1, 0, 0)}

    apply_and_update(index, c, first)
    # the first rewrite retired both initial rules and surfaced the chained one
    chained = Rule("Q", "Y", [(-1, "X")])
    assert index.table == {chained: RuleScore(1, 0, 0)}
    assert index.key_of(stale) not in index.keys
    assert _truths(index, chained) == {"Y": 1}
    verify_index(index, c)

    apply_and_update(index, c, chained)
    assert error_count(c) == 0
    assert index.table == {}
    verify_index(index, c)


def test_index_vs_fresh_rebuild_after_pass():
    # after every pass the live index equals one rebuilt from scratch
    c = _small_corpus(41, n_tokens=250)
    baseline_assign(c, build_lexicon(c, "T00"))
    index = init_index(c, T3)
    cfg = TrainerConfig(templates=T3, threshold=1)
    rng = random.Random(0)
    for _ in range(5):
        picked = select(index.table.items(), cfg, rng)
        if picked is None:
            break
        apply_and_update(index, c, picked[0])
        fresh = init_index(c, T3)
        assert _decoded(index) == _decoded(fresh)
        for attr in ("text", "truth"):
            assert [index.tags[code] for code in getattr(index, attr)] == [
                fresh.tags[code] for code in getattr(fresh, attr)
            ]
        assert index.starts == fresh.starts
        assert index.table == fresh.table
        verify_index(index, c)


# --- verify_index catches corruption ------------------------------------------------

TOY_RULE = Rule("MD", "NN", [(-1, "DT")])


def _fresh_index():
    c = baselined(TOY_TEXT, TOY_LEX, "NN")
    return init_index(c, T1), c


def _delist(index, cand) -> None:
    """Take a listed entry off its key's listing and off the draw list."""
    entries = index.listed[cand.key]
    del entries[cand.to]
    if not entries:
        del index.listed[cand.key]
    index.eligible.remove(cand)


def _toy_entry(index):
    (cand,) = index.eligible
    assert cand.rule == TOY_RULE
    return cand


def test_verify_index_catches_score_drift():
    # a listed entry's stored net score goes stale
    index, c = _fresh_index()
    _toy_entry(index).net += 1
    with pytest.raises(AuditError, match="listed at net score 3, recounted 2"):
        verify_index(index, c)


def test_verify_index_catches_missing_candidate():
    # a net-positive rule left unlisted
    index, c = _fresh_index()
    _delist(index, _toy_entry(index))
    with pytest.raises(AuditError, match="net-positive but not listed"):
        verify_index(index, c)


def test_verify_index_catches_extra_candidate():
    # MD>VBZ @ -1:DT is listed under a live key, but no site it matches is a VBZ
    index, c = _fresh_index()
    rule = Rule("MD", "VBZ", [(-1, "DT")])
    key, to = index.key_of(rule), index.codes["VBZ"]
    index.listed[key][to] = Candidate(rule, key, to, 1)
    with pytest.raises(AuditError, match="a name no candidate has"):
        verify_index(index, c)


def test_verify_index_catches_candidate_count_drift():
    index, c = _fresh_index()
    index.candidates += 1
    with pytest.raises(AuditError, match="candidate count 2 != recounted 1"):
        verify_index(index, c)


def test_verify_index_catches_a_listed_entry_not_its_names_rule():
    # the entry filed as (MD -1:DT, NN) carries another rule
    index, c = _fresh_index()
    _toy_entry(index).rule = Rule("MD", "NN", [(-1, "VBZ")])
    with pytest.raises(AuditError, match="not its name's rule"):
        verify_index(index, c)


def test_verify_index_catches_bucket_drift():
    index, c = _fresh_index()
    index.keys[index.key_of(TOY_RULE)][index.codes["NN"]] += 1
    with pytest.raises(AuditError, match="stored truth counts"):
        verify_index(index, c)


def test_verify_index_catches_tag_map_drift():
    # the code of NN decodes to VBZ, while the strings and counters stay right
    index, c = _fresh_index()
    index.tags[index.codes["NN"]] = "VBZ"
    with pytest.raises(AuditError):
        verify_index(index, c)


def test_verify_index_catches_candidates_of_a_dead_key():
    # an entry filed under a key no site observes
    index, c = _fresh_index()
    cand = _toy_entry(index)
    index.listed[(0, PAD, PAD)] = {cand.to: cand}
    with pytest.raises(AuditError, match="keys no site observes"):
        verify_index(index, c)


def test_verify_index_catches_link_total_drift():
    index, c = _fresh_index()
    index.n_tokens += 1  # links_total is n_tokens times the position sets
    with pytest.raises(AuditError, match="links_total"):
        verify_index(index, c)


def test_verify_index_catches_coded_string_drift():
    # site (0, 1) coded as VBZ in the current, then in the truth string
    for attr in ("text", "truth"):
        index, c = _fresh_index()
        text = getattr(index, attr)
        p = index.starts[0] + 1
        setattr(index, attr, text[:p] + index.codes["VBZ"] + text[p + 1 :])
        with pytest.raises(AuditError, match="coded"):
            verify_index(index, c)


def test_verify_index_catches_starts_drift():
    index, c = _fresh_index()
    index.starts[0] += 1
    with pytest.raises(AuditError, match="sentence starts"):
        verify_index(index, c)


def test_verify_index_holds_no_corpus_sized_decoded_list():
    # one long sentence makes the padding most of the coded strings; the
    # audit compares them in code space, not as lists of decoded tags
    spec = ChainSpec(sentence_len=(5, 5), structure_seed=7)
    lines = markov_corpus(spec, draw_seed=1, n_tokens=1000).splitlines()
    lines.insert(len(lines) // 2, " ".join(markov_corpus(spec, draw_seed=2, n_tokens=2000).split()))
    corpus = parse_corpus("\n".join(lines) + "\n")
    baseline_assign(corpus, build_lexicon(corpus, "T00"))
    index = init_index(corpus, parse_template_spec("-1; +1,+2000", window=2000))
    assert index.width == 2000
    tracemalloc.start()
    try:
        verify_index(index, corpus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(index.text)


def _listed_index():
    # two net-positive candidates and one at net score 0 (P>X @ -1:DT
    # fixes one site and breaks another)
    text = "a/DT b/X c/Y\na/DT b/P\nd/Z b/X\n"
    c = baselined(text, {"a": "DT", "b": "P", "c": "Q", "d": "Z"}, "Z")
    index = init_index(c, T1)
    verify_index(index, c)
    assert [cand.rule.canonical for cand in index.eligible] == [
        "P>X @ -1:Z",
        "Q>Y @ -1:P",
    ]
    assert index.table[Rule("P", "X", [(-1, "DT")])].pos == 1
    return index, c


def test_audit_catches_a_rewrite_that_stops_short(monkeypatch):
    # one neutral count dropped from the picked rule's key after the last
    # verify: the rewrite stops at the key's count, one site early
    text = "the/DT can/NN ./.\nthe/DT can/VB ./.\nthe/DT can/NN ./.\n"
    pick = TrainerIndex.pick

    def drop_neutral(index, config, rng):
        rule, sc = picked = pick(index, config, rng)
        assert (rule, sc) == (TOY_RULE, RuleScore(2, 0, 1))
        counts = index.keys[index.key_of(rule)]
        del counts[index.codes["VB"]]
        return picked

    monkeypatch.setattr(TrainerIndex, "pick", drop_neutral)
    cfg = TrainerConfig(templates=T1)
    with pytest.raises(AuditError, match=r"pass 1 rewrote 2 sites of 'MD>NN @ -1:DT',"
                                         r" find_sites matched 3"):
        train_incremental(parse_corpus(text), lex_of(TOY_LEX, "NN"), cfg, audit=True)


def test_verify_index_catches_missing_draw_entry():
    index, c = _listed_index()
    del index.eligible[0]
    with pytest.raises(AuditError, match="draw list"):
        verify_index(index, c)


def test_verify_index_catches_stale_draw_entry():
    # a candidate at net score 0 has no entry; one made for it is not drawn
    index, c = _listed_index()
    rule = Rule("P", "X", [(-1, "DT")])
    assert index.table[rule].score == 0
    key, to = index.key_of(rule), index.codes["X"]
    index.eligible.insert(0, Candidate(rule, key, to, 0))
    with pytest.raises(AuditError, match="draw list"):
        verify_index(index, c)


def test_verify_index_catches_swapped_draw_entries():
    index, c = _listed_index()
    index.eligible[0], index.eligible[1] = index.eligible[1], index.eligible[0]
    with pytest.raises(AuditError, match="draw list"):
        verify_index(index, c)


def test_verify_index_catches_foreign_draw_entry():
    index, c = _listed_index()
    # an equal-valued copy, not the listing's own candidate
    listed = index.eligible[1]
    index.eligible[1] = Candidate(listed.rule, listed.key, listed.to, listed.net)
    with pytest.raises(AuditError, match="draw list"):
        verify_index(index, c)


# --- full runs and engine equivalence -------------------------------------------------


def test_train_toy_both_engines_identical():
    lex = lex_of(TOY_LEX, "NN")
    cfg = TrainerConfig(threshold=2)
    cn = parse_corpus(TOY_TEXT)
    ci = parse_corpus(TOY_TEXT)
    mn, tn, cvn = train_naive(cn, lex, cfg)
    mi, ti, cvi = train_incremental(ci, lex, cfg)
    assert mn.rules == mi.rules == [Rule("MD", "NN", [(-1, "DT")])]
    assert tn == ti
    assert cvn == cvi
    assert cn == ci


def test_train_incremental_audit_mode():
    c = _small_corpus(7, n_tokens=150)
    lex = build_lexicon(c, "T00")
    cfg = TrainerConfig(templates=T3, threshold=1)
    model, trace, _ = train_incremental(c, lex, cfg, audit=True)
    assert len(model.rules) == len(trace)
    assert error_count(c) <= (1 - trace[-1].train_accuracy_after) * c.n_tokens + 1


def test_train_incremental_audit_log_format():
    c = _small_corpus(9, n_tokens=150)
    lex = build_lexicon(c, "T00")
    log: list[tuple[int, ...]] = []
    cfg = TrainerConfig(templates=T3, threshold=1)
    model, _, _ = train_incremental(c, lex, cfg, audit_log=log)
    assert len(log) == len(model.rules)
    for pass_no, row in enumerate(log, start=1):
        assert len(row) == len(AUDIT_LOG_COLUMNS) == 5
        assert row[0] == pass_no
        assert all(type(f) is int and f >= 0 for f in row)
    # after each pass the candidates are exactly the rules a fresh
    # enumeration finds once the learned rules so far are replayed
    replay = clone(c)
    baseline_assign(replay, lex)
    for rule, row in zip(model.rules, log):
        apply_rule(rule, replay)
        candidates, keys, new_keys, rechecked = row[1:]
        assert candidates == len(enumerate_candidates(replay, T3))
        assert keys == len(count_keys(replay, position_sets(T3), 1))
        assert new_keys <= keys
        assert 1 <= rechecked <= replay.n_tokens


def _equiv_config(draw_seed: int) -> TrainerConfig:
    rng = random.Random(draw_seed)
    return TrainerConfig(
        templates=T3,
        threshold=rng.choice([1, 1, 2]),
        strategy=rng.choice([Strategy.GREEDY, Strategy.RANDOM]),
        rng_seed=rng.randrange(100),
    )


@given(seed=st.integers(0, 10**6))
@settings(max_examples=15)
def test_engine_equivalence(seed):
    corpus_n = _small_corpus(seed, n_tokens=250)
    corpus_i = clone(corpus_n)
    lex = build_lexicon(corpus_n, "T00")
    cfg = _equiv_config(seed)

    mn, tn, cvn = train_naive(corpus_n, lex, cfg)
    mi, ti, cvi = train_incremental(corpus_i, lex, cfg)

    assert mn.rules == mi.rules
    assert tn == ti
    assert cvn == cvi
    assert corpus_n == corpus_i
    assert trace_tsv(tn) == trace_tsv(ti)


def _many_tags_input():
    """A 130-tag corpus, and a lexicon from another draw lacking some of its tags.

    Tags are coded from chr(1) up, so with this many of them the codes
    include characters a regular expression treats specially.
    """
    spec = ChainSpec(
        n_tags=130, words_per_tag=2, ambiguous_words=60, ambiguous_rate=0.5, structure_seed=5
    )
    corpus = parse_corpus(markov_corpus(spec, draw_seed=1, n_tokens=1000))
    lex = build_lexicon(parse_corpus(markov_corpus(spec, draw_seed=2, n_tokens=500)), "T00")
    truths = {tok.truth for sent in corpus.sentences for tok in sent}
    assert len(truths) > 120 and truths - lex.tags()
    return corpus, lex


def test_engine_equivalence_with_deps():
    small = _small_corpus(13, n_tokens=200)
    for corpus_n, lex in [(small, build_lexicon(small, "T00")), _many_tags_input()]:
        corpus_i = clone(corpus_n)
        cfg = TrainerConfig(templates=T3, threshold=1, record_deps=True)
        links_n, stream_n, on_rule_n = _recorder()
        links_i, stream_i, on_rule_i = _recorder()

        mn, _, _ = train_naive(corpus_n, lex, cfg, on_rule_n)
        mi, _, _ = train_incremental(corpus_i, lex, cfg, on_rule=on_rule_i, audit=True)
        assert mn.rules == mi.rules
        assert stream_n == stream_i
        assert dependency_report(links_n) == dependency_report(links_i)
        replayed = tag(mi, clone(corpus_i))
        assert replayed == corpus_i

    codes = tag_codes(mi.tagset())
    used = {codes[t] for rule in mi.rules for t in (rule.frm, rule.to, *dict(rule.ctx).values())}
    assert set("\n.[\\^|") <= used


def test_engine_equivalence_random_long():
    # random selection shuffles rule order, which exercises retirement and
    # revival paths the greedy order never hits
    corpus_n = _small_corpus(21, n_tokens=300)
    corpus_i = clone(corpus_n)
    lex = build_lexicon(corpus_n, "T00")
    for seed in range(4):
        cfg = TrainerConfig(
            templates=T3, threshold=1, strategy=Strategy.RANDOM, rng_seed=seed
        )
        mn, tn, _ = train_naive(clone(corpus_n), lex, cfg)
        mi, ti, _ = train_incremental(clone(corpus_i), lex, cfg)
        assert mn.rules == mi.rules
        assert tn == ti


# Tags holding '>' give distinct rules one canonical string: A>B>C @ -1:X is
# both A>B -> C and A -> B>C.
SHARED_CANONICAL_TEXT = (
    "w4/A w1/A w3/B>C\nw3/B>C\nw0/B w4/A>B w0/B>C\nw4/A w1/B w0/A\n"
    "w2/D w4/D w0/C\nw4/D w2/B>C\nw2/A>B w1/C w4/A>B w4/A>B\n"
    "w5/C w4/C w1/A>B w5/A w4/D\nw0/C w2/C w0/B w2/A>B w1/C w2/C\nw4/D\n"
    "w3/C w2/A>B w3/B>C w1/A>B\n"
)


def test_engines_agree_on_rules_sharing_a_canonical_string():
    # the two engines find candidates in different orders, so a tie left to
    # that order made them pick different rules at pass 6
    corpus_n = parse_corpus(SHARED_CANONICAL_TEXT)
    corpus_i = clone(corpus_n)
    lex = build_lexicon(corpus_n, "A")
    cfg = TrainerConfig(threshold=1, strategy=Strategy.RANDOM, rng_seed=34)
    mn, tn, _ = train_naive(corpus_n, lex, cfg)
    mi, ti, _ = train_incremental(corpus_i, lex, cfg)
    assert len(mn.rules) > 6
    assert mn.rules == mi.rules
    assert tn == ti
    assert corpus_n == corpus_i


def test_select_orders_rules_sharing_a_canonical_string():
    first = Rule("A", "B>C", [(-1, "X")])
    second = Rule("A>B", "C", [(-1, "X")])
    assert first.canonical == second.canonical
    cfg = TrainerConfig(threshold=1)
    for scored in ([(first, RuleScore(1)), (second, RuleScore(1))],
                   [(second, RuleScore(1)), (first, RuleScore(1))]):
        assert select(scored, cfg, random.Random(0))[0] is first


# --- the live pick, pass by pass against the oracle ----------------------------------


def _pick_pass_by_pass(corpus, cfg, audit: bool):
    """Run passes, checking each live pick against select over the table.

    Returns the final index, the number of passes, and how many of them
    picked among several rules at the highest net score.
    """
    index = init_index(corpus, cfg.templates)
    rng = random.Random(cfg.rng_seed)
    passes = ties = 0
    while True:
        before = rng.getstate()
        oracle_rng = random.Random()
        oracle_rng.setstate(before)
        want = select(index.table.items(), cfg, oracle_rng)
        got = index.pick(cfg, rng)
        assert got == want
        assert rng.getstate() == oracle_rng.getstate()
        if cfg.strategy is Strategy.GREEDY:
            assert rng.getstate() == before
        if got is None:
            # stopping draws nothing, and leaves no rule the strategy takes
            assert rng.getstate() == before
            floor = cfg.threshold if cfg.strategy is Strategy.GREEDY else 1
            assert all(c.pos - c.neg < floor for c in index.table.values())
            verify_index(index, corpus)
            return index, passes, ties
        # the picked rule is a listed entry's own
        assert any(got[0] is cand.rule for cand in index.eligible)
        best = got[1].score
        ties += sum(c.pos - c.neg == best for c in index.table.values()) > 1
        passes += 1
        apply_and_update(index, corpus, got[0])
        if audit:
            verify_index(index, corpus)


def _ambiguous_corpus():
    spec = ChainSpec(
        n_tags=20, words_per_tag=6, ambiguous_words=40, ambiguous_rate=0.5, structure_seed=11
    )
    corpus = parse_corpus(markov_corpus(spec, draw_seed=13, n_tokens=3000))
    baseline_assign(corpus, build_lexicon(corpus, "T00"))
    return corpus


def test_live_draw_matches_select_every_pass():
    cfg = TrainerConfig(strategy=Strategy.RANDOM, rng_seed=3)
    index, passes, _ = _pick_pass_by_pass(_ambiguous_corpus(), cfg, audit=False)
    assert passes > 100
    assert not index.eligible


@pytest.mark.parametrize("threshold", [1, 2, 3])
def test_live_greedy_pick_matches_select_every_pass(threshold):
    cfg = TrainerConfig(threshold=threshold)
    index, passes, ties = _pick_pass_by_pass(_ambiguous_corpus(), cfg, audit=False)
    assert passes > 20
    assert ties > 10
    # above threshold 1 the run stops with net-positive rules left on the list
    assert bool(index.eligible) == (threshold > 1)


@pytest.mark.parametrize("rng_seed", range(20))
def test_live_draw_matches_select_on_shared_canonicals(rng_seed):
    corpus = parse_corpus(SHARED_CANONICAL_TEXT)
    baseline_assign(corpus, build_lexicon(corpus, "A"))
    cfg = TrainerConfig(strategy=Strategy.RANDOM, rng_seed=rng_seed)
    _, passes, _ = _pick_pass_by_pass(corpus, cfg, audit=True)
    assert passes > 5


def test_live_greedy_pick_matches_select_on_shared_canonicals():
    corpus = parse_corpus(SHARED_CANONICAL_TEXT)
    baseline_assign(corpus, build_lexicon(corpus, "A"))
    _, passes, ties = _pick_pass_by_pass(corpus, TrainerConfig(threshold=1), audit=True)
    assert passes > 5
    assert ties > 5


def test_live_greedy_pick_breaks_a_tie_between_rules_sharing_a_canonical_string():
    # both rules fix one token and read "A>B>C @ -1:X"; rule_order puts source A first
    corpus = parse_corpus("x/X y/B>C\nw/W y/A\nw/W y/A\nx/X z/C\nw/W z/A>B\nw/W z/A>B\n")
    baseline_assign(corpus, build_lexicon(corpus, "W"))
    cfg = TrainerConfig(templates=T1, threshold=1)
    first = init_index(corpus, T1).pick(cfg, random.Random(0))
    assert first == (Rule("A", "B>C", [(-1, "X")]), RuleScore(1, 0, 0))
    _, passes, ties = _pick_pass_by_pass(corpus, cfg, audit=True)
    assert (passes, ties) == (2, 1)


# --- adversarial corpora the Markov generator never makes ---------------------------

# Spans up to 3, so most sentences are shorter than some template.
T_WIDE = parse_template_spec("-1; +1; -3; +2,+3; -2,-1")

# The cases of the index's plan: a set contained in two others, no set
# containing another, and T_WIDE's mix of counted and projected sets.  The
# fourth reaches past every sentence of most corpora, so the padding is
# capped at the longest one: the counted set -6,-5 and the projected -5 read
# only padding.  The last reaches past every short sentence but not past the
# long one of a long draw, which sets the padding for all of them.
ADVERSARIAL_TEMPLATES = (
    parse_template_spec("-1; -2,-1; -1,+1"),
    parse_template_spec("-3; +2"),
    T_WIDE,
    parse_template_spec("-6,-5; -5; +1", window=6),
    parse_template_spec("-1; +1,+8", window=8),
)


@st.composite
def _adversarial_corpus(draw, wide: bool = False, long: bool = False) -> tuple[str, list[int]]:
    """Tiny alphabets, 1-4 token sentences, and sometimes nothing to fix.

    Returns the text and the tokens, numbered through the text, whose truth
    is then taken away.  A wide draw takes 6 to 9 tags, more and longer
    sentences with always something to fix, and a few missing truths, so
    that candidates are listed and delisted many times in one run.  A long
    draw puts one sentence of 10 to 20 tokens among the short ones.
    """
    # '>' in tags lets distinct rules share a canonical string
    alphabet = ["A", "B", "C", "A>B", "B>C"]
    n_tags, n_words, n_lines, length, missing = (1, 3), 4, (1, 10), 4, st.just([])
    if wide:
        alphabet += ["D", "E", "F", "G"]
        n_tags, n_words, n_lines, length = (6, 9), 6, (4, 12), 6
        missing = st.lists(st.integers(0, 71), min_size=1, max_size=6)
    tags = draw(st.lists(st.sampled_from(alphabet), min_size=n_tags[0], max_size=n_tags[1],
                         unique=True))
    words = [f"w{i}" for i in range(n_words)][: draw(st.integers(1, n_words))]
    # one fixed tag per word makes the baseline exact: all tokens correct
    fixed = None if wide or long else draw(
        st.none() | st.fixed_dictionaries({w: st.sampled_from(tags) for w in words})
    )
    lengths = draw(st.lists(st.integers(1, length), min_size=n_lines[0], max_size=n_lines[1]))
    if long:
        lengths.insert(draw(st.integers(0, len(lengths))), draw(st.integers(10, 20)))
    lines = []
    for n in lengths:
        items = []
        for _ in range(n):
            word = draw(st.sampled_from(words))
            tag = fixed[word] if fixed else draw(st.sampled_from(tags))
            items.append(f"{word}/{tag}")
        lines.append(" ".join(items))
    return "\n".join(lines) + "\n", draw(missing)


_ADVERSARIAL_CORPORA = (
    _adversarial_corpus() | _adversarial_corpus(wide=True) | _adversarial_corpus(long=True)
)


def _adversarial_input(drawn):
    """The drawn corpus, with its missing truths taken away, and its lexicon."""
    text, missing = drawn
    corpus = parse_corpus(text)
    lex = build_lexicon(corpus, "A")
    tokens = [tok for sent in corpus.sentences for tok in sent]
    for i in missing:
        if i < len(tokens):
            tokens[i].truth = None
    return corpus, lex


@given(
    drawn=_ADVERSARIAL_CORPORA,
    templates=st.sampled_from(ADVERSARIAL_TEMPLATES),
    strategy=st.sampled_from([Strategy.GREEDY, Strategy.RANDOM]),
    threshold=st.integers(1, 2),
    rng_seed=st.integers(0, 99),
)
@settings(max_examples=150)
def test_engine_equivalence_adversarial(drawn, templates, strategy, threshold, rng_seed):
    corpus_n, lex = _adversarial_input(drawn)
    corpus_i = clone(corpus_n)
    base = dict(templates=templates, threshold=threshold, strategy=strategy, rng_seed=rng_seed)
    cfg = TrainerConfig(**base, record_deps=True)
    links_n, stream_n, on_rule_n = _recorder()
    links_i, stream_i, on_rule_i = _recorder()

    mn, tn, cvn = train_naive(corpus_n, lex, cfg, on_rule_n)
    mi, ti, cvi = train_incremental(corpus_i, lex, cfg, on_rule=on_rule_i, audit=True)

    assert mn.rules == mi.rules
    assert tn == ti
    assert cvn == cvi
    assert corpus_n == corpus_i
    assert stream_n == stream_i
    assert dependency_report(links_n) == dependency_report(links_i)


def _observed_keys(corpus, psets) -> set:
    """Every site's observation key, read tag by tag from the corpus."""
    keys = set()
    for sent in corpus.sentences:
        n = len(sent)
        for ti, tok in enumerate(sent):
            for pi, pset in enumerate(psets):
                ctx = [sent[ti + off].current if 0 <= ti + off < n else BOUNDARY for off in pset]
                keys.add((pi, tok.current, *ctx))
    return keys


def _reread(corpus, sites, psets) -> int:
    """Tokens with a changed site at offset 0 or at an offset of some set."""
    changed = set(sites)
    offsets = {0}.union(*psets)
    return sum(
        any((si, ti + off) in changed for off in offsets)
        for si, sent in enumerate(corpus.sentences)
        for ti in range(len(sent))
    )


@given(
    drawn=_ADVERSARIAL_CORPORA,
    templates=st.sampled_from(ADVERSARIAL_TEMPLATES + (DEFAULT_TEMPLATES,)),
    strategy=st.sampled_from([Strategy.GREEDY, Strategy.RANDOM]),
    rng_seed=st.integers(0, 99),
)
@settings(max_examples=150)
def test_pass_counters_match_a_recount(drawn, templates, strategy, rng_seed):
    # new_keys and sites_rechecked of the audit log, and every candidate's
    # counts, recounted by brute force: score_rule matches the rule at each
    # site through find_sites, not through observation keys
    corpus, lex = _adversarial_input(drawn)
    baseline_assign(corpus, lex)
    cfg = TrainerConfig(templates=templates, threshold=1, strategy=strategy, rng_seed=rng_seed)
    psets = position_sets(templates)
    index = init_index(corpus, templates)
    rng = random.Random(rng_seed)
    while (picked := index.pick(cfg, rng)) is not None:
        before = _observed_keys(corpus, psets)
        sites = apply_and_update(index, corpus, picked[0])
        assert index.last_unseen_added == len(_observed_keys(corpus, psets) - before)
        assert index.last_sites_rechecked == _reread(corpus, sites, psets)
        for rule, sc in index.table.items():
            assert sc == score_rule(rule, corpus)
        verify_index(index, corpus)
