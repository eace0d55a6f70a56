"""Corpus parsing, lexicons, baseline tagging, accuracy."""

import io
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tbltag.corpus import (
    BOUNDARY,
    Corpus,
    Lexicon,
    ParseError,
    accuracy,
    baseline_assign,
    build_lexicon,
    count_tagged,
    error_count,
    file_chunks,
    lexicon_of,
    parse_corpus,
    serialize_corpus,
    text_chunks,
)

from helpers import TOY_LEX, TOY_TEXT, baselined, clone, lex_of


# --- parsing -----------------------------------------------------------------


def test_parse_basic():
    c = parse_corpus("the/DT dog/NN\nruns/VBZ\n")
    assert len(c) == 2
    assert c.n_tokens == 3
    assert [(t.word, t.truth) for t in c.sentences[0]] == [("the", "DT"), ("dog", "NN")]
    assert c.sentences[1][0].word == "runs"
    # parsing initializes current to truth
    assert all(t.current == t.truth for s in c.sentences for t in s)


def test_parse_word_may_contain_slash():
    c = parse_corpus("a/b/NN\n")
    tok = c.sentences[0][0]
    assert tok.word == "a/b"
    assert tok.truth == "NN"


def test_parse_blank_lines_skipped():
    c = parse_corpus("\n\na/A\n\nb/B\n\n")
    assert len(c) == 2
    assert c.n_tokens == 2


def test_parse_untagged():
    c = parse_corpus("the dog runs\n", tagged=False)
    assert c.n_tokens == 3
    assert all(t.truth is None and t.current is None for t in c.sentences[0])


def test_parse_untagged_keeps_slashes():
    c = parse_corpus("a/b c\n", tagged=False)
    assert c.sentences[0][0].word == "a/b"


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("word\n", 1, 1),
        ("a/A word\n", 1, 5),
        ("a/A\nb/B noslash\n", 2, 5),
    ],
)
def test_parse_missing_tag_position(text, line, column):
    with pytest.raises(ParseError) as exc:
        parse_corpus(text)
    assert exc.value.line == line
    assert exc.value.column == column
    assert f"line {line}, column {column}" in str(exc.value)


def test_parse_empty_word():
    with pytest.raises(ParseError, match=r"^line 1, column 5: item '/NN' has an empty word$"):
        parse_corpus("a/A /NN\n")


def test_parse_empty_tag():
    with pytest.raises(ParseError, match=r"^line 2, column 1: item 'dog//' has an empty tag$"):
        parse_corpus("a/A\ndog// b/B\n")


def test_parse_reserved_boundary_tag():
    message = f"line 1, column 3: tag {BOUNDARY!r} is reserved for sentence boundaries"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_corpus(f"  dog/{BOUNDARY}\n")


@given(text=st.text(alphabet="ab \n\r\x1c\u2028"), chunk_chars=st.integers(1, 8))
def test_text_chunks_are_the_lines_of_the_text(text, chunk_chars):
    # io.StringIO translates no newline, as a file opened with newline="\n"
    for chunks in (text_chunks(text, chunk_chars), file_chunks(io.StringIO(text), chunk_chars)):
        lines = []
        for first, chunk in chunks:
            assert first == len(lines) + 1
            assert chunk
            lines += chunk
        assert lines == text.splitlines()


def test_parse_empty_text():
    c = parse_corpus("")
    assert len(c) == 0
    assert c.n_tokens == 0
    assert serialize_corpus(c) == ""


# --- serialization -----------------------------------------------------------


def test_serialize_truth_round_trip():
    text = "the/DT dog/NN\nruns/VBZ now/RB\n"
    assert serialize_corpus(parse_corpus(text)) == text


def test_serialize_current():
    c = parse_corpus("a/A b/B\n")
    c.sentences[0][0].current = "X"
    assert serialize_corpus(c, which="current") == "a/X b/B\n"
    assert serialize_corpus(c, which="truth") == "a/A b/B\n"


def test_serialize_rejects_bad_selector():
    with pytest.raises(ValueError):
        serialize_corpus(parse_corpus("a/A\n"), which="gold")


def test_serialize_untagged_current_fails():
    c = parse_corpus("a b\n", tagged=False)
    with pytest.raises(ValueError):
        serialize_corpus(c, which="current")


# printable non-space ASCII so no character is whitespace to \S or splitlines
_WORD = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=8,
)
_TAG = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126, exclude_characters="/"),
    min_size=1,
    max_size=4,
).filter(lambda t: t != BOUNDARY)


@given(
    st.lists(
        st.lists(st.tuples(_WORD, _TAG), min_size=1, max_size=6),
        min_size=0,
        max_size=5,
    )
)
def test_parse_serialize_round_trip(sentences):
    text = "".join(
        " ".join(f"{w}/{t}" for w, t in sent) + "\n" for sent in sentences
    )
    corpus = parse_corpus(text)
    assert serialize_corpus(corpus) == text
    again = parse_corpus(serialize_corpus(corpus))
    assert again == corpus


# --- lexicon -----------------------------------------------------------------


def test_lexicon_most_frequent_and_default():
    lex = Lexicon("NN")
    lex.add("can", "MD", 3)
    lex.add("can", "VB", 1)
    assert lex.most_frequent("can") == "MD"
    assert lex.most_frequent("unseen") == "NN"
    assert "can" in lex.counts
    assert "unseen" not in lex.counts


def test_lexicon_tie_breaks_lexicographically():
    lex = Lexicon("X")
    lex.add("w", "NN", 2)
    lex.add("w", "MD", 2)
    assert lex.most_frequent("w") == "MD"


def test_lexicon_add_after_query_updates():
    lex = Lexicon("X")
    lex.add("w", "B", 1)
    assert lex.most_frequent("w") == "B"
    lex.add("w", "A", 2)
    assert lex.most_frequent("w") == "A"


def test_lexicon_rejects_bad_default():
    with pytest.raises(ValueError):
        Lexicon("")
    with pytest.raises(ValueError):
        Lexicon(BOUNDARY)


@pytest.mark.parametrize("default", ["N N", "NN\n", "\u3000"])
def test_lexicon_refuses_default_tag_with_whitespace(default):
    # Lexicon.add refuses such a tag; no model file could carry it either
    with pytest.raises(ValueError):
        Lexicon(default)


@pytest.mark.parametrize(
    "word, tag",
    [("", "NN"), ("a b", "NN"), ("a\tb", "NN"), ("　", "NN"), ("w", ""), ("w", "N N"),
     ("w", "NN\n"), ("w", BOUNDARY)],
)
def test_lexicon_add_refuses_unwritable_items(word, tag):
    lex = Lexicon("X")
    lex.add("w", "NN")
    with pytest.raises(ValueError):
        lex.add(word, tag)
    assert lex.counts == {"w": {"NN": 1}}
    # the word BOUNDARY is a word like any other
    lex.add(BOUNDARY, "NN")
    assert lex.most_frequent(BOUNDARY) == "NN"


@pytest.mark.parametrize("tag", ["", "N N", BOUNDARY])
def test_lexicon_add_refused_tag_files_no_new_word(tag):
    # a new word's entry is made only once its first tag passes, so the
    # table holds no word without tags, which no model file could carry
    lex = Lexicon("X")
    with pytest.raises(ValueError):
        lex.add("w", tag)
    assert lex.counts == {}


def test_lexicon_tags():
    lex = lex_of({"a": "A", "b": "B"}, "D")
    assert lex.tags() == {"A", "B", "D"}


def test_build_lexicon_counts():
    c = parse_corpus("run/VB run/VB run/NN\n")
    lex = build_lexicon(c, "X")
    assert lex.counts["run"] == {"VB": 2, "NN": 1}
    assert lex.most_frequent("run") == "VB"


def test_build_lexicon_untagged_fails():
    c = parse_corpus("a b\n", tagged=False)
    with pytest.raises(ValueError):
        build_lexicon(c, "X")


def test_lexicon_of_the_text_holds_the_tokens_own_strings():
    # parse_corpus interns words and tags, and so does the lexicon counted
    # from the same text, so the reference trainer compares them by identity
    text = "the/DT dog/NN runs/VBZ\ndog/NN\n"
    corpus = parse_corpus(text)
    lexicon = lexicon_of(count_tagged(text_chunks(text)), "NN")
    baseline_assign(corpus, lexicon)
    for tok in corpus.sentences[0]:
        assert tok.current is tok.truth
        assert next(w for w in lexicon.counts if w == tok.word) is tok.word


# --- baseline ----------------------------------------------------------------


def test_baseline_assign_toy():
    c = parse_corpus(TOY_TEXT)
    errors = baseline_assign(c, lex_of(TOY_LEX, "NN"))
    # both "can" tokens get MD but truth is NN
    assert errors == 2
    assert [t.current for t in c.sentences[0]] == ["DT", "MD", "VBZ", "DT", "MD", "."]
    assert error_count(c) == 2


def test_baseline_assign_idempotent():
    c = parse_corpus("a/A b/B\n")
    lex = lex_of({"a": "A", "b": "B"}, "X")
    assert baseline_assign(c, lex) == 0
    assert baseline_assign(c, lex) == 0


def test_baseline_assign_untagged_counts_zero():
    c = parse_corpus("a b\n", tagged=False)
    assert baseline_assign(c, Lexicon("X")) == 0
    assert all(t.current == "X" for t in c.sentences[0])


# --- clone ---------------------------------------------------------------------


def test_clone_resets_state():
    c = baselined(TOY_TEXT, TOY_LEX, "NN")
    fresh = clone(c)
    assert fresh is not c
    assert [t.current for t in fresh.sentences[0]] == [
        t.truth for t in c.sentences[0]
    ]
    # mutating the clone leaves the original alone
    fresh.sentences[0][0].current = "Z"
    assert c.sentences[0][0].current == "DT"


def test_corpus_equality_compares_words_and_tags():
    a = parse_corpus("x/X\n")
    b = parse_corpus("x/X\n")
    assert a == b
    b.sentences[0][0].current = "Y"
    assert a != b
    assert a != "not a corpus"


# --- accuracy ------------------------------------------------------------------


def test_accuracy_two_thirds():
    c = parse_corpus("a/A b/B c/C\n")
    c.sentences[0][2].current = "X"
    assert accuracy(c) == 2 / 3
    assert error_count(c) == 1


def test_accuracy_empty_corpus():
    assert accuracy(Corpus([])) == 1.0
