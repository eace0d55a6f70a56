"""Rule-application dependency structures.

Every tag change gets an immutable node naming the rule and the training
pass.  A node's children are the previous node at the same site (offset 0)
and the nodes at the rule's context offsets, all read as they stood before
the pass began.  ``partial(record_pass, links)``, the ``on_rule`` of the
trainers and of ``evaluate.tag_stream``, keeps each site's most recent node
in the dict ``links``, so the final links form per-site trees (really DAGs,
since a node can be shared) whose shapes show how rules fed each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Site
from .rules import Rule, display_rule
from .training import tsv


class DependencyNode:
    """One tag change: a rule, the pass it fired in, and what it built on."""

    __slots__ = ("rule", "pass_no", "children")

    def __init__(self, rule: Rule, pass_no: int, children: dict[int, "DependencyNode"]):
        for off, child in children.items():
            if child.pass_no >= pass_no:
                raise ValueError(
                    f"child at offset {off} from pass {child.pass_no} cannot "
                    f"precede a pass-{pass_no} node"
                )
        self.rule = rule
        self.pass_no = pass_no
        self.children = children

    def __repr__(self):
        return f"DependencyNode({self.rule.canonical!r}, pass={self.pass_no})"


Links = dict[Site, DependencyNode]  # each changed site's most recent node


def record_pass(links: Links, pass_no: int, rule: Rule, sites: list[Site]) -> list[DependencyNode]:
    """Create and install nodes for all sites one rule changes in one pass.

    Child links are gathered for every site before any node is installed,
    so sites changed together see each other's previous nodes, never the
    new ones.  A neighbour outside the sentence is never a site, so it has
    no link to read.  Returns the new nodes, in the order of the sites.
    """
    offsets = (0, *[off for off, _ in rule.ctx])
    get = links.get
    gathered = []
    for si, ti in sites:
        children: dict[int, DependencyNode] = {}
        for off in offsets:
            child = get((si, ti + off))
            if child is not None:
                children[off] = child
        gathered.append(children)
    nodes = [DependencyNode(rule, pass_no, children) for children in gathered]
    links.update(zip(sites, nodes))
    return nodes


def canonical_key(node: DependencyNode, include_pass: bool = True, _memo=None) -> str:
    """Deterministic serialization of a tree's shape, rules, and offsets.

    Two structurally identical trees get equal keys; shared subtrees are
    not distinguished from equal copies.  Pass numbers are part of the key
    unless ``include_pass`` is false.
    """
    if _memo is None:
        _memo = {}
    key = _memo.get(id(node))
    if key is not None:
        return key
    inner = ",".join(
        f"{off}:{canonical_key(child, include_pass, _memo)}"
        for off, child in sorted(node.children.items())
    )
    head = node.rule.canonical
    if include_pass:
        head = f"{head}|{node.pass_no}"
    key = f"{head}({inner})"
    _memo[id(node)] = key
    return key


def render_tree(node: DependencyNode) -> list[str]:
    """Flatten a tree to lines ``offset: rule (pass)`` in pass order.

    Offsets are cumulative relative to the root's site; the root is always
    the last line since children strictly precede their parents in pass
    order.  Shared nodes reached at the same cumulative offset print once.
    """
    entries = []
    seen = set()

    def walk(n: DependencyNode, cum: int):
        if (id(n), cum) in seen:
            return
        seen.add((id(n), cum))
        entries.append((n.pass_no, cum, n.rule))
        for off, child in n.children.items():
            walk(child, cum + off)

    walk(node, 0)
    entries.sort(key=lambda e: (e[0], e[1]))
    return [
        f"{off:+d}: {display_rule(rule)} ({pass_no})" if off else f"0: {display_rule(rule)} ({pass_no})"
        for pass_no, off, rule in entries
    ]


@dataclass(slots=True)
class TreeClass:
    """All final site trees sharing one canonical key."""

    key: str
    count: int
    representative: DependencyNode


def collect_classes(links: Links, include_pass: bool = True) -> list[TreeClass]:
    """Group final per-site trees by canonical key.

    Sorted by descending count, then ascending key.  Counts sum to the
    number of sites whose tag was changed at least once.
    """
    memo: dict[int, str] = {}
    classes: dict[str, TreeClass] = {}
    for _, node in sorted(links.items()):  # corpus order: a class keeps its first site
        key = canonical_key(node, include_pass, memo)
        tc = classes.get(key)
        if tc is None:
            classes[key] = TreeClass(key, 1, node)
        else:
            tc.count += 1
    return sorted(classes.values(), key=lambda tc: (-tc.count, tc.key))


def dependency_report(links: Links, include_pass: bool = True) -> str:
    """Text report of the links: change counts, leverage, and every tree class.

    The links are those ``partial(record_pass, links)`` kept over a whole
    run; ``{}`` reports no change, so the caller makes sure it recorded.
    """
    classes = collect_classes(links, include_pass)
    changed = sum(tc.count for tc in classes)
    multi = sum(tc.count for tc in classes if tc.representative.children)
    leverage = multi / changed if changed else 0.0
    lines = []
    for tc in classes:
        lines += ["", f"x{tc.count}", *render_tree(tc.representative)]
    counts = tsv([("sites-changed", changed), ("multi-node-sites", multi), ("leverage", leverage)])
    return counts + "".join(line + "\n" for line in lines)
