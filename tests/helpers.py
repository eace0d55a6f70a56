"""Shared builders for the test suite."""

import io

from tbltag.corpus import (Corpus, Lexicon, Token, baseline_assign, parse_corpus, serialize_corpus,
                           text_chunks)
from tbltag.dependency import record_pass
from tbltag.evaluate import tag, tag_stream
from tbltag.rules import Rule, RuleScore, find_sites


def corpus_of(text: str) -> Corpus:
    return parse_corpus(text)


def clone(corpus: Corpus) -> Corpus:
    """Fresh copy with current reset to truth."""
    return Corpus([[Token(t.word, t.truth, t.truth) for t in sent] for sent in corpus.sentences])


def streamed(model, text: str, tagged: bool = True) -> str:
    """The text tagged by the fast replay, ``evaluate.tag_stream``."""
    out = io.StringIO()
    tag_stream(model, text_chunks(text), out, tagged)
    return out.getvalue()


def replayed(model, text: str, tagged: bool = True) -> str:
    """The text tagged by ``evaluate.tag``, the plain replay ``streamed`` is checked against."""
    return serialize_corpus(tag(model, parse_corpus(text, tagged)), "current")


def score_rule(rule: Rule, corpus: Corpus) -> RuleScore:
    """Tally the truth tags at the rule's sites over the whole corpus."""
    sentences = corpus.sentences
    truths = [sentences[si][ti].truth for si, ti in find_sites(rule, corpus)]
    pos = truths.count(rule.to)
    neg = truths.count(rule.frm)
    return RuleScore(pos, neg, len(truths) - pos - neg)


def node_count(node) -> int:
    """Number of distinct dependency nodes reachable from node, itself included."""
    seen = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.children.values())
    return len(seen)


def links_of(trace) -> dict:
    """The dependency links of a training run, ``record_pass`` of each trace record in turn."""
    links = {}
    for r in trace:
        record_pass(links, r.pass_no, r.rule, r.sites)
    return links


def stream_of(trace) -> list:
    """Each pass's ``(pass_no, rule, sites)``, as the dependency layer reads a trace."""
    return [(r.pass_no, r.rule, r.sites) for r in trace]


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
