"""Rule-application dependency structures.

Every tag change gets an immutable node naming the rule and the training
pass.  A node's children are the previous node at the same site (offset 0)
and the nodes at the rule's context offsets, all read as they stood before
the pass began.  ``record_pass``, called per record of a training trace or
as the ``on_rule`` of ``evaluate.tag_stream``, keeps each site's latest node
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
    unless ``include_pass`` is false.  Nodes are keyed in pass order, each
    child before its parent, so a tree of any depth is keyed.
    """
    if _memo is None:
        _memo = {}
    todo, stack = {}, [node]
    while stack:
        n = stack.pop()
        if id(n) not in _memo and id(n) not in todo:
            todo[id(n)] = n
            stack.extend(n.children.values())
    for n in sorted(todo.values(), key=lambda n: n.pass_no):
        inner = ",".join(f"{off}:{_memo[id(child)]}" for off, child in sorted(n.children.items()))
        head = n.rule.canonical
        if include_pass:
            head = f"{head}|{n.pass_no}"
        _memo[id(n)] = f"{head}({inner})"
    return _memo[id(node)]


def render_tree(node: DependencyNode) -> list[str]:
    """Flatten a tree to lines ``offset: rule (pass)`` in pass order.

    Offsets are cumulative relative to the root's site; the root is always
    the last line since children strictly precede their parents in pass
    order.  Shared nodes reached at the same cumulative offset print once,
    and a tree of any depth is rendered.
    """
    entries = []
    seen = set()
    stack = [(node, 0)]
    while stack:
        n, cum = stack.pop()
        if (id(n), cum) not in seen:
            seen.add((id(n), cum))
            entries.append((n.pass_no, cum, n.rule))
            stack.extend((child, cum + off) for off, child in n.children.items())
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

    The links are those ``record_pass`` kept over a whole run; ``{}``
    reports no change, so the caller makes sure it recorded.
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
