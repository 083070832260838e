"""Typed syntax tree.

Every node is a slots dataclass carrying its source span (keyword-only so
positional fields stay readable at construction sites).  Nodes are
immutable by convention: nothing assigns to a field after construction.
They are not frozen, since frozen construction costs an
``object.__setattr__`` call per field, so they are not hashable either.
``to_dict`` encodes a tree, spans included, as plain dicts and lists for
``json.dumps``; ``osc2c dump --what ast`` writes it.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .diagnostics import Span


@dataclass(slots=True, kw_only=True)
class Node:
    span: Span


# expressions

@dataclass(slots=True)
class NumberLiteral(Node):
    value: float


@dataclass(slots=True)
class QuantityLiteral(Node):
    value: float
    unit: str


@dataclass(slots=True)
class StringLiteral(Node):
    value: str


@dataclass(slots=True)
class Identifier(Node):
    name: str


@dataclass(slots=True)
class MemberAccess(Node):
    receiver: Node
    member: str


@dataclass(slots=True)
class MethodCall(Node):
    receiver: Node
    method: str
    args: list[Node]


@dataclass(slots=True)
class Argument(Node):
    name: str | None
    value: Node


@dataclass(slots=True)
class Binary(Node):
    op: str
    lhs: Node
    rhs: Node


@dataclass(slots=True)
class Unary(Node):
    op: str
    operand: Node


# wait conditions

@dataclass(slots=True)
class EventRef(Node):
    name: str


@dataclass(slots=True)
class RiseCondition(Node):
    expr: Node


@dataclass(slots=True)
class FallCondition(Node):
    expr: Node


@dataclass(slots=True)
class ElapsedCondition(Node):
    duration: Node


@dataclass(slots=True)
class BoolCondition(Node):
    expr: Node


# behaviors

@dataclass(slots=True)
class ModifierApplication(Node):
    name: str
    args: list[Node]


@dataclass(slots=True)
class ActionInvocation(Node):
    actor: str
    action: str
    args: list[Node]
    modifiers: list[Node]


@dataclass(slots=True)
class WaitStatement(Node):
    condition: Node


@dataclass(slots=True)
class EmitStatement(Node):
    event: str


@dataclass(slots=True)
class Composition(Node):
    kind: str  # serial | parallel | one_of
    children: list[Node]


# declarations

@dataclass(slots=True)
class KeepConstraint(Node):
    expr: Node


@dataclass(slots=True)
class FieldDecl(Node):
    name: str
    type_name: str
    constraints: list[Node]


@dataclass(slots=True)
class VarDecl(Node):
    name: str
    type_name: str
    init: Node


@dataclass(slots=True)
class DoBlock(Node):
    root: Composition


@dataclass(slots=True)
class ScenarioDecl(Node):
    name: str
    members: list[Node]
    body: DoBlock | None


@dataclass(slots=True)
class ImportDecl(Node):
    path: str


@dataclass(slots=True)
class UseDecl(Node):
    name: str


@dataclass(slots=True)
class Program(Node):
    imports: list[Node]
    uses: list[Node]
    scenarios: list[Node]


def to_dict(node: Node) -> dict:
    """Encode a tree as plain dicts/lists suitable for json.dumps."""
    span = node.span
    data: dict = {
        "node": type(node).__name__,
        "span": [span.line, span.col, span.end_line, span.end_col],
    }
    for f in dataclasses.fields(node):
        if f.name == "span":
            continue
        data[f.name] = _encode(getattr(node, f.name))
    return data


def _encode(value):
    if isinstance(value, Node):
        return to_dict(value)
    if isinstance(value, list):
        return [_encode(v) for v in value]
    return value


def dump_json(node: Node) -> str:
    return json.dumps(to_dict(node), indent=2)

