"""Synthetic corpus generators: determinism and learnable structure."""

import hashlib

import pytest

from tbltag.corpus import baseline_assign, build_lexicon, error_count, parse_corpus
from tbltag.synth import ChainSpec, markov_corpus, random_family_corpus


def test_markov_corpus_deterministic():
    spec = ChainSpec(structure_seed=11)
    assert markov_corpus(spec, 3, 500) == markov_corpus(spec, 3, 500)


def test_markov_corpus_draw_seed_varies_text_not_language():
    spec = ChainSpec(structure_seed=11)
    a = markov_corpus(spec, 1, 500)
    b = markov_corpus(spec, 2, 500)
    assert a != b
    # same language: the two samples share most of their vocabulary
    words_a = {item.rsplit("/", 1)[0] for line in a.splitlines() for item in line.split()}
    words_b = {item.rsplit("/", 1)[0] for line in b.splitlines() for item in line.split()}
    assert len(words_a & words_b) > len(words_a) / 2


def test_markov_corpus_structure_seed_changes_language():
    a = markov_corpus(ChainSpec(structure_seed=1), 3, 300)
    b = markov_corpus(ChainSpec(structure_seed=2), 3, 300)
    assert a != b


def test_markov_corpus_token_count():
    spec = ChainSpec(structure_seed=5)
    corpus = parse_corpus(markov_corpus(spec, 7, 800))
    assert corpus.n_tokens == 800


def test_markov_corpus_parses_with_expected_tags():
    spec = ChainSpec(n_tags=6, structure_seed=0)
    corpus = parse_corpus(markov_corpus(spec, 0, 400))
    tags = {t.truth for s in corpus.sentences for t in s}
    assert tags <= {f"T{i:02d}" for i in range(6)}
    assert len(tags) >= 3


def test_markov_corpus_baseline_makes_errors():
    # ambiguous words guarantee the most-frequent-tag baseline is imperfect
    spec = ChainSpec(n_tags=8, ambiguous_words=10, ambiguous_rate=0.5, structure_seed=2)
    corpus = parse_corpus(markov_corpus(spec, 9, 1000))
    lex = build_lexicon(corpus, "T00")
    errors = baseline_assign(corpus, lex)
    assert errors > 0
    assert errors == error_count(corpus)
    assert errors < corpus.n_tokens / 2


def test_random_family_deterministic():
    text1, params1 = random_family_corpus(123)
    text2, params2 = random_family_corpus(123)
    assert text1 == text2
    assert params1 == params2


def test_random_family_varies_by_seed():
    text1, params1 = random_family_corpus(1)
    text2, params2 = random_family_corpus(2)
    assert text1 != text2
    assert params1["seed"] == 1
    assert params2["seed"] == 2


def test_random_family_within_documented_ranges():
    for seed in range(10):
        text, params = random_family_corpus(seed)
        corpus = parse_corpus(text)
        assert corpus.n_tokens == params["n_tokens"]
        assert 200 <= params["n_tokens"] <= 2000
        assert 5 <= params["n_tags"] <= 20


CHAIN_A = ChainSpec(
    n_tags=12, words_per_tag=8, ambiguous_words=24, ambiguous_rate=0.4, structure_seed=3
)
CHAIN_B = ChainSpec(
    n_tags=20, words_per_tag=6, ambiguous_words=40, ambiguous_rate=0.5, structure_seed=11
)
PENN = ChainSpec(
    n_tags=45, words_per_tag=800, ambiguous_words=3000, ambiguous_rate=0.4, structure_seed=3
)


# The benchmark's and CI's inputs: a change to how synth draws must leave
# every corpus byte-identical, or no measurement compares with the last.
@pytest.mark.parametrize(
    "spec, draw, n_tokens, digest",
    [
        (CHAIN_A, 5, 50_000, "0963952239a95bf7c1eb08efe62f235175b360e8a4b3301293cd79b67791b300"),
        (CHAIN_B, 13, 30_000, "0cf7e8a51fcb0986e9d8cfa6725e84a8efb9b6cbbbe5637a319701e546024342"),
        (PENN, 5, 10_000, "85aa46b7081a043644a40380f333fba07fcbe368df200c0e987b588ecd532af1"),
        (ChainSpec(structure_seed=7), 3, 3_000,
         "b626fa28e96615716961b54f84f04d6bfebb10c15fbd684e16b465440e55a36d"),
        (ChainSpec(sentence_len=(5, 5), structure_seed=7), 1, 30_000,
         "e40016f4bd6e559ac28845847db7de1112840d606b3fc88774ea5cbe79b9a9e5"),
    ],
)
def test_markov_corpus_digests_are_pinned(spec, draw, n_tokens, digest):
    text = markov_corpus(spec, draw, n_tokens)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


FAMILY_DIGESTS = [
    "b7b856837da3b2dad17002af1d1ec55a0d66ff531cb873371ff6eae25ed8e534",
    "eb55a2ee6d2446e170e1ecc1aa375c80a24119f6fd9dff02836a4c10551a62c9",
    "9d36fd5c08e4edb482d090d1cef8e12605eddb55594d62cb14ca6435f888af69",
    "b7af13eda89d93c4555c39254b5ea61a7fb3bea5459a41e03700c8ba10a820bc",
    "62095d9dc716f18d7dbb554f43e5806934f137d497243071cd7ad0f4656767ea",
    "a4f91a93828003add51729106f9a61e4c165f9712b2d7369f3e0ef17cb0c14fb",
    "56e4bac25ffff8435dbd7ab60f9ae4088a19a3a0d98be030c7f40da549450746",
    "c9f687c1fb0190111b594bd71d130b69494ca47c1f267bb3013d27096eec83d2",
    "b8373dba25e8fea3290d37c9284f5501fc70f4aae9d04e5e73689652aa41557a",
    "03159fe06b9c4013a9e3b4a37224ee36afb95271b7e55218bdbd5048ec7aaa0e",
]


def test_random_family_digests_are_pinned():
    digests = [
        hashlib.sha256(random_family_corpus(seed)[0].encode()).hexdigest() for seed in range(10)
    ]
    assert digests == FAMILY_DIGESTS
