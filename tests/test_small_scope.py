"""Both engines on every small corpus, not only on drawn ones.

Every corpus of at most three tokens over the words ``a`` and ``b`` and
the tags ``X``, ``Y`` and ``Z``, in every split into sentences, is
trained under four configs.  Templates that reach past every sentence
make each corpus a padding test too.  CI's "Small-scope run" makes the
same per-corpus checks, ``check_engines_agree``, up to five tokens.
"""

from itertools import product

import pytest

from tbltag.corpus import build_lexicon, count_tagged, lexicon_of, parse_corpus, text_chunks
from tbltag.rules import parse_template_spec
from tbltag.trainer_incremental import train_incremental, train_text
from tbltag.trainer_naive import train_naive
from tbltag.training import Strategy, TrainerConfig, format_model, parse_model

from helpers import replayed, streamed

ITEMS = [f"{word}/{tag}" for word in "ab" for tag in "XYZ"]

CONFIGS = {
    "narrow-greedy-1": TrainerConfig(templates=parse_template_spec("-1; +1; -2,+1"), threshold=1),
    "default-greedy-2": TrainerConfig(),
    "wide-random": TrainerConfig(templates=parse_template_spec("-3; +1,+4; -1,+2"),
                                 strategy=Strategy.RANDOM),
    "default-random": TrainerConfig(strategy=Strategy.RANDOM),
}


def small_corpora(max_tokens: int = 3):
    """Each corpus of 1 to max_tokens items, one of each ``a``<->``b`` mirror pair."""
    for n in range(1, max_tokens + 1):
        for items in product(ITEMS, repeat=n):
            if items[0].startswith("a"):  # the mirror image starts with b
                for ends in product((" ", "\n"), repeat=n - 1):
                    yield "".join(item + end for item, end in zip(items, (*ends, "\n")))


def test_small_corpora_are_every_corpus_up_to_mirror_images():
    corpora = list(small_corpora())
    assert len(corpora) == len(set(corpora)) == (6 * 1 + 36 * 2 + 216 * 4) // 2 == 471
    mirror = str.maketrans("ab", "ba")
    assert not {text.translate(mirror) for text in corpora} & set(corpora)


def check_engines_agree(text: str, config: TrainerConfig) -> None:
    """Both engines learn the same model, trace and curve from the corpus, audited;
    the model round-trips, and ``tag_stream`` replays it as ``evaluate.tag`` does."""
    lexicon = lexicon_of(count_tagged(text_chunks(text)), "X")
    model, trace, curve = train_text(text, lexicon, config, audit=True)
    naive, naive_trace, naive_curve = train_naive(parse_corpus(text), lexicon, config)
    written = format_model(model)
    assert (written, trace, curve) == (format_model(naive), naive_trace, naive_curve), text
    assert format_model(parse_model(written)) == written, text
    assert streamed(model, text) == replayed(model, text), text


@pytest.mark.parametrize("name", CONFIGS)
def test_engines_agree_on_every_small_corpus(name):
    for text in small_corpora():
        check_engines_agree(text, CONFIGS[name])


@pytest.mark.parametrize("name", CONFIGS)
def test_engines_agree_on_every_small_corpus_with_an_untagged_token(name):
    # the untagged token is no rule's target, but a neutral match of every
    # rule matching it; each corpus leaves its last token untagged
    config = CONFIGS[name]
    for text in small_corpora():
        corpus = parse_corpus(text)
        lexicon = build_lexicon(corpus, "X")
        corpus.sentences[-1][-1].truth = None
        naive = parse_corpus(text)
        naive.sentences[-1][-1].truth = None
        got = train_incremental(corpus, lexicon, config, audit=True)
        want = train_naive(naive, lexicon, config)
        assert format_model(got[0]) == format_model(want[0]) and got[1:] == want[1:], text
        assert corpus == naive, text
