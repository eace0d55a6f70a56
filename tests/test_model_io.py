"""Model file format: render, parse, round-trips, corruption handling."""

import os
from dataclasses import fields

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tbltag.corpus import Lexicon, build_lexicon, parse_corpus
from tbltag.rules import Rule, Template, decode_rule, parse_template_spec
from tbltag.synth import ChainSpec, markov_corpus
from tbltag.trainer_incremental import train_incremental
from tbltag.trainer_naive import train_naive
from tbltag.training import (
    Model,
    ModelFormatError,
    Strategy,
    TrainerConfig,
    config_pairs,
    format_model,
    load_model,
    parse_model,
    save_model,
)

from helpers import TOY_LEX, TOY_TEXT, lex_of


def _toy_model() -> Model:
    corpus = parse_corpus(TOY_TEXT)
    model, _, _ = train_naive(corpus, lex_of(TOY_LEX, "NN"), TrainerConfig(threshold=2))
    return model


def test_format_model_exact_layout():
    model = _toy_model()
    assert format_model(model) == (
        "tblmodel 1\n"
        "templates -1; -2; -2,-1; +1; +2; +1,+2; -1,+1\n"
        "threshold 2\n"
        "strategy greedy\n"
        "seed 0\n"
        "max-passes \n"
        "deps 0\n"
        "default-tag NN\n"
        "tags 5 . DT MD NN VBZ\n"
        "lexicon 4\n"
        ". . 1\n"
        "can MD 1\n"
        "holds VBZ 1\n"
        "the DT 1\n"
        "rules 1\n"
        "MD>NN @ -1:DT\n"
    )


def test_round_trip_bytes(tmp_path):
    model = _toy_model()
    path = tmp_path / "toy.model"
    save_model(model, str(path))
    loaded = load_model(str(path))
    path2 = tmp_path / "again.model"
    save_model(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_round_trip_preserves_everything(tmp_path):
    lex = Lexicon("X")
    lex.add("w", "A", 3)
    lex.add("w", "B", 1)
    lex.add("v", "C", 2)
    cfg = TrainerConfig(
        templates=parse_template_spec("-1; +2"),
        threshold=3,
        strategy=Strategy.RANDOM,
        rng_seed=42,
        max_passes=7,
        record_deps=True,
    )
    # every field off its default, so a field the file drops reads back changed
    names = [f.name for f in fields(TrainerConfig)]
    assert [name for name in names if getattr(cfg, name) == getattr(TrainerConfig(), name)] == []
    assert len(config_pairs(cfg)) == len(names)
    model = Model(lex, [Rule("A", "B", [(1, "C"), (-2, "X")])], cfg)
    path = tmp_path / "m.model"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.config == cfg
    assert loaded.rules == model.rules
    assert loaded.lexicon.counts == lex.counts
    assert loaded.default_tag == "X"
    assert loaded.record_deps is True
    # an audited run keeps its config, which reads back equal
    trained, _, _ = train_incremental(parse_corpus(TOY_TEXT), lex_of(TOY_LEX, "NN"), cfg,
                                      audit=True)
    assert trained.config == cfg
    assert parse_model(format_model(trained)).config == cfg


def test_round_trip_wide_template(tmp_path):
    # templates wider than the standard window must survive the file format
    cfg = TrainerConfig(templates=parse_template_spec("-9; +8", window=9), threshold=1)
    model = Model(Lexicon("T"), [Rule("A", "B", [(-9, "C")])], cfg)
    path = tmp_path / "wide.model"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.config.templates == cfg.templates
    assert loaded.rules == model.rules


@pytest.mark.parametrize(
    "rule",
    [
        Rule("A>B", "C", [(-1, "D")]),  # "A>B>C @ -1:D" reads back as A -> B>C
        Rule("A", "B", [(-1, "D,1:Q")]),  # the context tag reads back as two items
    ],
)
def test_format_model_rejects_rules_that_do_not_read_back(tmp_path, rule):
    assert decode_rule(rule.canonical) != rule
    model = Model(Lexicon("A"), [rule], TrainerConfig())
    with pytest.raises(ModelFormatError):
        format_model(model)
    path = tmp_path / "m.model"
    path.write_text("old\n")
    with pytest.raises(ModelFormatError):
        save_model(model, str(path))
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["m.model"]


def _lexicon_with_default(default: str, counts=None) -> Lexicon:
    """A lexicon whose default tag is set past the constructor's check."""
    lexicon = Lexicon("Z", counts)
    lexicon.default_tag = default
    return lexicon


@pytest.mark.parametrize(
    "model",
    [
        Model(_lexicon_with_default("N N"), [], TrainerConfig()),
        Model(Lexicon("Z", {"w": {"A\tB": 1}}), [], TrainerConfig()),
        Model(Lexicon("Z"), [Rule("A", "B", [(-1, "C\u2028D")])], TrainerConfig()),
    ],
    ids=["default", "lexicon", "rule"],
)
def test_format_model_rejects_tags_with_whitespace(model):
    # the tags and lexicon lines are split on whitespace when read back
    with pytest.raises(ModelFormatError, match="whitespace"):
        format_model(model)


@pytest.mark.parametrize(
    "word, tag, match",
    [
        (" a\u00e9", "A", "whitespace"),  # read back as 'a\u00e9'
        ("a b", "A", "whitespace"),  # read back as a malformed entry
        ("", "A", "empty word"),
        ("w", "", "empty tag"),
        # tagging would code it as the sentence edge, so a rule with the
        # boundary in its context would fire mid-sentence
        ("w", "<B>", "reserved"),
    ],
)
def test_format_model_rejects_unreadable_lexicon_items(word, tag, match):
    # Lexicon.add refuses these too; a lexicon built from counts does not
    model = Model(Lexicon("Z", {word: {tag: 1}}), [], TrainerConfig())
    with pytest.raises(ModelFormatError, match=match):
        format_model(model)


# Characters a whitespace split or a rule's text treats specially.
_ITEM_ALPHABET = ["a", "\u00e9", " ", "\t", "\x1c", "\x85", "\u2028", ">", ",", "1", ":", "<B>"]
_items = st.lists(st.sampled_from(_ITEM_ALPHABET), max_size=3).map("".join)


@given(
    default=_items,
    entries=st.lists(st.tuples(_items, _items, st.integers(1, 3)), max_size=4),
    rules=st.lists(st.tuples(_items, _items, _items), max_size=2),
)
@settings(max_examples=300)
def test_model_file_round_trips_or_is_refused(default, entries, rules):
    assume(default and default != "<B>")
    # built from counts and given its default tag after construction, as
    # the constructor and Lexicon.add would refuse some of these items
    counts = {}
    for word, tag, n in entries:
        by_tag = counts.setdefault(word, {})
        by_tag[tag] = by_tag.get(tag, 0) + n
    lexicon = _lexicon_with_default(default, counts)
    built = []
    for frm, to, ctx in rules:
        try:
            built.append(Rule(frm, to, [(-1, ctx)]))
        except ValueError:
            pass
    model = Model(lexicon, built, TrainerConfig())
    try:
        text = format_model(model)
    except ModelFormatError:
        return
    for word, tag, n in entries:
        # every item a model file carries, the constructor and Lexicon.add accept
        Lexicon(default).add(word, tag, n)
    back = parse_model(text)
    assert back.lexicon.default_tag == default
    assert back.lexicon.counts == lexicon.counts
    assert back.rules == model.rules
    assert back.config == model.config


@pytest.mark.parametrize(
    "counts",
    [{"w": {"A": 0}}, {"w": {"A": 1, "B": -2}}, {"w": {}}],
    ids=["zero", "negative", "no-tags"],
)
def test_format_model_refuses_entry_parse_model_would_refuse(counts):
    # a lexicon built from counts is checked only here; no corpus gives these
    with pytest.raises(ModelFormatError, match="'w' counts"):
        format_model(Model(Lexicon("Z", counts), [], TrainerConfig()))


def _mutate(text: str, how: str, at: int) -> str:
    """text with one edit of kind how, at a place chosen by at."""
    lines = text.splitlines(True)
    i = at % len(lines)
    if how == "swap adjacent lines":
        i = at % (len(lines) - 1)
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    elif how == "double a space":
        spaces = [k for k, ch in enumerate(text) if ch == " "]
        k = spaces[at % len(spaces)]
        return text[:k] + " " + text[k:]
    elif how == "append a space":
        lines[i] = lines[i][:-1] + " \n"
    elif how == "duplicate a line":
        lines.insert(i, lines[i])
    elif how == "append a blank line":
        lines.append("\n")
    elif how == "drop the final newline":
        return text[:-1]
    return "".join(lines)


_MUTATIONS = [
    "swap adjacent lines",
    "double a space",
    "append a space",
    "duplicate a line",
    "append a blank line",
    "drop the final newline",
]
_templates = st.lists(
    st.frozensets(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=1, max_size=3),
    min_size=1,
    max_size=3,
).map(lambda groups: tuple(Template(g) for g in groups))


@given(
    draw_seed=st.integers(0, 10**6),
    templates=_templates,
    strategy=st.sampled_from(list(Strategy)),
    record_deps=st.booleans(),
    how=st.sampled_from(_MUTATIONS),
    at=st.integers(0, 10**6),
)
@settings(max_examples=60)
def test_parse_model_accepts_only_what_saving_writes(
    draw_seed, templates, strategy, record_deps, how, at
):
    corpus = parse_corpus(markov_corpus(ChainSpec(structure_seed=2), draw_seed, n_tokens=300))
    config = TrainerConfig(
        templates=templates, threshold=1, strategy=strategy, rng_seed=draw_seed,
        record_deps=record_deps,
    )
    model, _, _ = train_incremental(corpus, build_lexicon(corpus, "T00"), config)
    text = format_model(model)
    assert format_model(parse_model(text)) == text
    mutated = _mutate(text, how, at)
    try:
        back = parse_model(mutated)
    except ModelFormatError:
        return
    # an edit that leaves a valid model, such as swapping two rules
    assert format_model(back) == mutated


def test_save_model_failed_write_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "toy.model"
    path.write_text("old\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        save_model(_toy_model(), str(path))
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["toy.model"]


def test_save_model_replaces_existing_file(tmp_path):
    path = tmp_path / "toy.model"
    path.write_text("old\n")
    save_model(_toy_model(), str(path))
    assert path.read_text() == format_model(_toy_model())
    assert os.listdir(tmp_path) == ["toy.model"]


def test_tagset_merges_lexicon_and_rules():
    lex = lex_of({"a": "A", "b": "B"}, "D")
    model = Model(lex, [Rule("B", "C", [(-1, "E"), (1, "<B>")])], TrainerConfig())
    assert model.tagset() == ["A", "B", "C", "D", "E"]


def _toy_lines() -> list[str]:
    return format_model(_toy_model()).splitlines()


def _parse_edited(edit) -> Model:
    lines = _toy_lines()
    edit(lines)
    return parse_model("\n".join(lines) + "\n")


def test_parse_model_rejects_wrong_magic():
    with pytest.raises(ModelFormatError):
        _parse_edited(lambda ls: ls.__setitem__(0, "notamodel 1"))


def test_parse_model_rejects_wrong_version():
    with pytest.raises(ModelFormatError):
        _parse_edited(lambda ls: ls.__setitem__(0, "tblmodel 2"))


def test_parse_model_rejects_missing_setting():
    with pytest.raises(ModelFormatError):
        _parse_edited(lambda ls: ls.__delitem__(1))


def test_parse_model_rejects_bad_threshold():
    with pytest.raises(ModelFormatError):
        _parse_edited(lambda ls: ls.__setitem__(2, "threshold zero"))
    with pytest.raises(ModelFormatError):
        _parse_edited(lambda ls: ls.__setitem__(2, "threshold 0"))


def test_parse_model_rejects_bad_strategy():
    with pytest.raises(ModelFormatError):
        _parse_edited(lambda ls: ls.__setitem__(3, "strategy clever"))


def test_parse_model_rejects_bad_tag_count():
    with pytest.raises(ModelFormatError):
        _parse_edited(lambda ls: ls.__setitem__(8, "tags 9 . DT MD NN VBZ"))
    with pytest.raises(ModelFormatError):
        _parse_edited(lambda ls: ls.__setitem__(8, "tags x . DT"))


def test_parse_model_rejects_malformed_lexicon_entry():
    with pytest.raises(ModelFormatError):
        _parse_edited(lambda ls: ls.__setitem__(10, ". ."))
    with pytest.raises(ModelFormatError):
        _parse_edited(lambda ls: ls.__setitem__(10, ". . notanumber"))


def test_parse_model_rejects_reserved_lexicon_tag():
    with pytest.raises(ModelFormatError, match="reserved"):
        _parse_edited(lambda ls: ls.__setitem__(10, ". <B> 1"))


def test_parse_model_rejects_tags_line_other_than_the_tagset():
    # the toy model's tags are . DT MD NN VBZ; format_model would write them back
    for tags in ("tags 2 X Y", "tags 4 . DT MD NN", "tags 5 DT . MD NN VBZ"):
        with pytest.raises(ModelFormatError, match="line 9 reads"):
            _parse_edited(lambda ls: ls.__setitem__(8, tags))


@pytest.mark.parametrize("count", ["0", "-5"])
def test_parse_model_rejects_count_below_one(count):
    with pytest.raises(ModelFormatError, match="counts"):
        _parse_edited(lambda ls: ls.__setitem__(10, f". . {count}"))


def test_parse_model_rejects_tag_repeated_in_an_entry():
    # Lexicon.add would sum the two into one count of 2
    with pytest.raises(ModelFormatError, match="line 11 reads"):
        _parse_edited(lambda ls: ls.__setitem__(10, ". . 1 . 1"))


def test_parse_model_rejects_word_repeated_across_entries():
    def repeat_word(lines):
        lines[9] = "lexicon 5"
        lines.insert(11, ". . 1")

    with pytest.raises(ModelFormatError, match="line 10 reads"):
        _parse_edited(repeat_word)


def test_parse_model_rejects_bad_rule():
    with pytest.raises(ModelFormatError):
        _parse_edited(lambda ls: ls.__setitem__(15, "not a rule"))


def test_parse_model_rejects_truncation():
    lines = _toy_lines()
    with pytest.raises(ModelFormatError):
        parse_model("\n".join(lines[:-1]) + "\n")


def test_parse_model_rejects_trailing_content():
    lines = _toy_lines() + ["surplus"]
    with pytest.raises(ModelFormatError):
        parse_model("\n".join(lines) + "\n")


def test_parse_model_rejects_empty():
    with pytest.raises(ModelFormatError):
        parse_model("")


def test_load_model_from_training(tmp_path):
    corpus = parse_corpus(TOY_TEXT)
    lex = build_lexicon(corpus, "NN")
    model, _, _ = train_naive(corpus, lex, TrainerConfig(threshold=1))
    path = tmp_path / "trained.model"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.rules == model.rules
    assert loaded.lexicon.counts == model.lexicon.counts
    assert format_model(loaded) == format_model(model)


def test_parse_model_decodes_each_rule_once(monkeypatch):
    # a rule decoded from its line always reads back as itself, so loading
    # compares the text with the model's rendering and decodes no rule again
    corpus = parse_corpus(markov_corpus(ChainSpec(structure_seed=7), draw_seed=1, n_tokens=2000))
    model, _, _ = train_incremental(corpus, build_lexicon(corpus, "T00"), TrainerConfig())
    text = format_model(model)
    decoded = []

    def counting_decode(line):
        decoded.append(line)
        return decode_rule(line)

    monkeypatch.setattr("tbltag.training.decode_rule", counting_decode)
    assert parse_model(text).rules == model.rules
    assert decoded == text.splitlines()[-len(model.rules):]
    assert len(model.rules) > 1
