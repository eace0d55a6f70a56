"""Dependency nodes, tree keys, rendering, and the interaction report."""

from functools import partial

import pytest

from tbltag.corpus import build_lexicon, parse_corpus
from tbltag.dependency import (
    DependencyNode,
    canonical_key,
    collect_classes,
    dependency_report,
    record_pass,
    render_tree,
)
from tbltag.rules import Rule, parse_template_spec
from tbltag.trainer_incremental import train_incremental
from tbltag.training import TrainerConfig

from helpers import lex_of, node_count

T1 = parse_template_spec("-1")
R1 = Rule("A", "B", [(-1, "X")])
R2 = Rule("B", "C", [(-1, "Y")])
R3 = Rule("C", "D", [(1, "Z")])


# --- node construction ----------------------------------------------------------


def test_node_rejects_future_children():
    leaf = DependencyNode(R1, 2, {})
    with pytest.raises(ValueError):
        DependencyNode(R2, 2, {0: leaf})
    with pytest.raises(ValueError):
        DependencyNode(R2, 1, {0: leaf})
    parent = DependencyNode(R2, 3, {0: leaf})
    assert parent.children[0] is leaf


def test_node_count_shares_subtrees():
    leaf = DependencyNode(R1, 1, {})
    mid = DependencyNode(R2, 2, {0: leaf})
    root = DependencyNode(R3, 3, {0: mid, -1: leaf})
    assert node_count(leaf) == 1
    assert node_count(mid) == 2
    # leaf reachable twice but counted once
    assert node_count(root) == 3


# --- record_pass ------------------------------------------------------------------


def test_record_application_links_prior_and_context():
    links = {}
    first = record_pass(links, 1, R1, [(0, 1)])[0]
    assert first.children == {}
    assert links[0, 1] is first
    # second change at the same site: prior node becomes the offset-0 child
    second = record_pass(links, 2, R2, [(0, 1)])[0]
    assert second.children == {0: first}
    # a later change whose context covers the site picks it up at the offset
    third = record_pass(links, 3, R3, [(0, 0)])[0]
    assert third.children == {1: second}


def test_record_pass_snapshot_within_pass():
    # two sites changed by one pass must not see each other's new nodes
    links = {}
    rule = Rule("A", "B", [(-1, "A"), (1, "A")])
    n0 = record_pass(links, 1, R1, [(0, 0)])[0]
    nodes = record_pass(links, 2, rule, [(0, 0), (0, 1)])
    assert nodes[0].children == {0: n0}
    # site 1 sees site 0's OLD node, not the pass-2 node just built for it
    assert nodes[1].children == {-1: n0}
    assert links[0, 0] is nodes[0]
    assert links[0, 1] is nodes[1]


def test_record_pass_out_of_sentence_offsets_ignored():
    links = {}
    node = record_pass(links, 1, Rule("A", "B", [(-1, "X"), (1, "Y")]), [(0, 0)])[0]
    assert node.children == {}


# --- canonical_key -----------------------------------------------------------------


def test_canonical_key_structure():
    leaf = DependencyNode(R1, 1, {})
    root = DependencyNode(R2, 2, {-1: leaf})
    assert canonical_key(leaf) == "A>B @ -1:X|1()"
    assert canonical_key(root) == "B>C @ -1:Y|2(-1:A>B @ -1:X|1())"
    assert canonical_key(root, include_pass=False) == "B>C @ -1:Y(-1:A>B @ -1:X())"


def test_canonical_key_equal_for_equal_shapes():
    a = DependencyNode(R2, 2, {-1: DependencyNode(R1, 1, {})})
    b = DependencyNode(R2, 2, {-1: DependencyNode(R1, 1, {})})
    assert canonical_key(a) == canonical_key(b)


def test_canonical_key_pass_sensitivity():
    a = DependencyNode(R2, 2, {-1: DependencyNode(R1, 1, {})})
    b = DependencyNode(R2, 3, {-1: DependencyNode(R1, 1, {})})
    assert canonical_key(a) != canonical_key(b)
    assert canonical_key(a, include_pass=False) == canonical_key(b, include_pass=False)


def test_canonical_key_orders_offsets():
    kids = {1: DependencyNode(R1, 1, {}), -2: DependencyNode(R2, 1, {})}
    node = DependencyNode(R3, 2, dict(kids))
    # children listed by ascending offset regardless of insertion order
    assert canonical_key(node) == "C>D @ 1:Z|2(-2:B>C @ -1:Y|1(),1:A>B @ -1:X|1())"


# --- render_tree --------------------------------------------------------------------


def test_render_tree_single_node():
    node = DependencyNode(Rule("TO", "IN", [(1, "AT")]), 4, {})
    assert render_tree(node) == ["0: — — TO/IN AT — (4)"]


def test_render_tree_orders_by_pass_and_offset():
    leaf = DependencyNode(R1, 1, {})
    root = DependencyNode(R2, 2, {-1: leaf})
    assert render_tree(root) == [
        "-1: — X A/B — — (1)",
        "0: — Y B/C — — (2)",
    ]


def test_render_tree_cumulative_offsets():
    inner = DependencyNode(R1, 1, {})
    mid = DependencyNode(R2, 2, {-1: inner})
    root = DependencyNode(R3, 3, {1: mid})
    # inner sits at +1 + -1 = 0 relative to the root
    assert render_tree(root) == [
        "0: — X A/B — — (1)",
        "+1: — Y B/C — — (2)",
        "0: — — C/D Z — (3)",
    ]


def test_render_tree_root_last():
    leaf = DependencyNode(R1, 1, {})
    root = DependencyNode(R2, 5, {-1: leaf, 0: DependencyNode(R3, 2, {})})
    lines = render_tree(root)
    assert lines[-1] == "0: — Y B/C — — (5)"
    assert len(lines) == 3


# --- end-to-end structures -----------------------------------------------------------


def _chain_links():
    text = "a/DT b/X c/Y\n"
    lex = lex_of({"a": "DT", "b": "P", "c": "Q"}, "Z")
    corpus = parse_corpus(text)
    cfg = TrainerConfig(templates=T1, threshold=1, record_deps=True)
    links = {}
    model, _, _ = train_incremental(corpus, lex, cfg, on_rule=partial(record_pass, links))
    return links, model


def test_chaining_structure():
    links, model = _chain_links()
    assert [r.canonical for r in model.rules] == ["P>X @ -1:DT", "Q>Y @ -1:X"]
    b_node = links[0, 1]
    c_node = links[0, 2]
    assert b_node.pass_no == 1 and b_node.children == {}
    assert c_node.pass_no == 2
    assert c_node.children == {-1: b_node}
    assert node_count(c_node) == 2


def test_chaining_report():
    links, _ = _chain_links()
    report = dependency_report(links)
    assert "sites-changed\t2" in report
    assert "multi-node-sites\t1" in report
    assert "leverage\t0.5" in report
    blocks = report.strip().split("\n\n")
    assert blocks[1].splitlines() == ["x1", "0: — DT P/X — — (1)"]
    assert blocks[2].splitlines() == [
        "x1",
        "-1: — DT P/X — — (1)",
        "0: — X Q/Y — — (2)",
    ]


def test_correction_structure():
    # site (2,1) is retagged twice: its second node must hold the first at
    # offset 0
    text = "a/D b/X c/F\na/D b/X c/F\na/D b/Y c2/E\ng/Z b/P g2/Z2\ng/Z b/P g2/Z2\ng/Z b/P g2/Z2\n"
    corpus = parse_corpus(text)
    lex = build_lexicon(corpus, "D")
    cfg = TrainerConfig(templates=parse_template_spec("-1; +1"), threshold=1, record_deps=True)
    links = {}
    model, _, _ = train_incremental(corpus, lex, cfg, on_rule=partial(record_pass, links))
    assert [r.canonical for r in model.rules] == ["P>X @ -1:D", "X>Y @ 1:E"]
    twice = links[2, 1]
    assert twice.pass_no == 2
    assert set(twice.children) == {0}
    assert twice.children[0].pass_no == 1
    report = dependency_report(links)
    assert "sites-changed\t3" in report
    assert "multi-node-sites\t1" in report


def test_collect_classes_counts_and_order():
    links, _ = _chain_links()
    classes = collect_classes(links)
    assert [tc.count for tc in classes] == [1, 1]
    assert sum(tc.count for tc in classes) == 2
    keys = [tc.key for tc in classes]
    assert keys == sorted(keys)


def test_report_without_changes():
    report = dependency_report({})
    assert report == "sites-changed\t0\nmulti-node-sites\t0\nleverage\t0.0\n"
