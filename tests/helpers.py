"""Shared builders for the test suite."""

from tbltag.corpus import Corpus, Lexicon, Token, baseline_assign, parse_corpus
from tbltag.rules import Rule, RuleScore, find_sites


def corpus_of(text: str) -> Corpus:
    return parse_corpus(text)


def clone(corpus: Corpus) -> Corpus:
    """Fresh copy with current reset to truth and dep links cleared."""
    return Corpus([[Token(t.word, t.truth, t.truth) for t in sent] for sent in corpus.sentences])


def score_rule(rule: Rule, corpus: Corpus) -> RuleScore:
    """Tally the truth tags at the rule's sites over the whole corpus."""
    sentences = corpus.sentences
    truths = [sentences[si][ti].truth for si, ti in find_sites(rule, corpus)]
    pos = truths.count(rule.to)
    neg = truths.count(rule.frm)
    return RuleScore(pos, neg, len(truths) - pos - neg)


def lex_of(mapping: dict[str, str], default: str) -> Lexicon:
    """Lexicon with one observation per (word, tag) pair."""
    lex = Lexicon(default)
    for word, tag in mapping.items():
        lex.add(word, tag)
    return lex


def baselined(text: str, mapping: dict[str, str], default: str) -> Corpus:
    corpus = parse_corpus(text)
    baseline_assign(corpus, lex_of(mapping, default))
    return corpus


# The two-rule toy: baseline tags both "can" MD, one context rule fixes both.
TOY_TEXT = "the/DT can/NN holds/VBZ the/DT can/NN ./.\n"
TOY_LEX = {"the": "DT", "can": "MD", "holds": "VBZ", ".": "."}
