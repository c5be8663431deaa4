"""No loop in `collgraph` reads an enum member through its class.

A read such as `NodeKind.COMP` is a class attribute lookup through the
Enum metaclass, several times the cost of reading a local or a module
constant. Loops over nodes and messages compare kinds with module
constants (`trace._SEND`, `_RECV`, `_COMP`, `_COLL`) or with locals bound
before the loop. This check, written with the standard library's `ast`
alone, fails on such a read in a `for` or `while` body, a `while` test or
a comprehension, also inside a function or lambda defined there. The
iterable of a `for` and the first iterable of a comprehension are
evaluated once, so they may read a member.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "collgraph"
MODULES = sorted(SOURCE.glob("*.py"))
ENUMS = {"NodeKind", "CollKind", "TopologyKind", "Algorithm"}


def _per_iteration(node: ast.AST) -> list[ast.AST]:
    """The parts of `node` that run once per iteration, if it is a loop."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return node.body
    if isinstance(node, ast.While):
        return [node.test, *node.body]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        first = node.generators[0]
        return [part for part in ast.iter_child_nodes(node) if part is not first] + \
            [part for part in ast.iter_child_nodes(first) if part is not first.iter]
    return []


def enum_reads_in_loops(text: str) -> list[tuple[int, str]]:
    """(line, `Enum.MEMBER`) of each enum member read inside a loop of `text`."""
    reads = set()
    for loop in ast.walk(ast.parse(text)):
        for part in _per_iteration(loop):
            for node in ast.walk(part):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id in ENUMS):
                    reads.add((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(reads)


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_loop_reads_an_enum_member(path):
    assert enum_reads_in_loops(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_enum_read_in_a_loop():
    text = ("SEND = NodeKind.COMM_SEND\n"
            "kinds = [n.kind for n in (NodeKind.COMP, NodeKind.COMM_RECV)]\n"
            "for node in nodes:\n"
            "    def key_of(n):\n"
            "        return n.kind is CollKind.ALL_REDUCE\n"
            "    ok = node.kind is SEND\n"
            "while node.kind is not TopologyKind.RING:\n"
            "    pass\n"
            "names = [a.value for a in Algorithm if a is not Algorithm.RING_ALL_GATHER]\n")
    assert enum_reads_in_loops(text) == [(5, "CollKind.ALL_REDUCE"), (7, "TopologyKind.RING"),
                                         (9, "Algorithm.RING_ALL_GATHER")]
