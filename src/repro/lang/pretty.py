"""Pretty printer for history expressions.

Produces the concrete syntax of :mod:`repro.lang.parser`; parsing the
output of :func:`pretty` yields a structurally equal term (round-trip),
provided policy objects are given printable identifiers via the
*policy_names* table (otherwise ``str(policy)`` is used, which is
readable but not necessarily re-parseable).
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.core.actions import Event, Send
from repro.core.syntax import (ClosePending, Epsilon, EventNode,
                               ExternalChoice, FrameClosePending, Framing,
                               HistoryExpression, InternalChoice, Mu, Request,
                               Seq, Var, chain_children, fold)


def pretty(term: HistoryExpression,
           policy_names: Mapping[object, str] | None = None) -> str:
    """Render *term* in the surface syntax."""
    return printer(policy_names)(term)


def printer(policy_names: Mapping[object, str] | None = None
            ) -> Callable[[HistoryExpression], str]:
    """A renderer whose calls share one memo of rendered nodes.

    Each call is one :func:`~repro.core.syntax.fold`, so a term of any
    depth renders without recursion and each distinct sub-term once.
    Terms rendered by the same renderer share their common sub-terms'
    text: a witness uses one renderer for all the residuals of its
    trace.  The memo lives as long as the renderer."""
    names = policy_names or {}
    memo: dict = {}

    def policy(value: object) -> str:
        name = names.get(value)
        return str(value) if name is None else name

    def leave(node, memo) -> str:
        cls = node.__class__
        if cls is Seq:
            return " ; ".join([memo[part] for part in chain_children(node)])
        if cls is ExternalChoice or cls is InternalChoice:
            rendered = []
            for label, cont in node.branches:
                sigil = "!" if label.__class__ is Send else "?"
                if cont.__class__ is Epsilon:
                    rendered.append(f"{sigil}{label.channel}")
                elif cont.__class__ is Seq:
                    rendered.append(
                        f"{sigil}{label.channel} . {{ {memo[cont]} }}")
                else:
                    rendered.append(f"{sigil}{label.channel} . {memo[cont]}")
            if len(rendered) == 1:
                return rendered[0]
            operator = " + " if cls is ExternalChoice else " ++ "
            return "(" + operator.join(rendered) + ")"
        if cls is EventNode:
            return _event(node.event)
        if cls is Var:
            return node.name
        if cls is Epsilon:
            return "eps"
        if cls is Mu:
            return f"mu {node.var} {{ {memo[node.body]} }}"
        if cls is Request:
            with_policy = ("" if node.policy is None
                           else f" with {policy(node.policy)}")
            return (f"open {node.request}{with_policy} "
                    f"{{ {memo[node.body]} }}")
        if cls is Framing:
            return f"frame {policy(node.policy)} {{ {memo[node.body]} }}"
        if cls is ClosePending:
            closed = "0" if node.policy is None else policy(node.policy)
            return f"<close {node.request},{closed}>"
        if cls is FrameClosePending:
            return f"<]{policy(node.policy)}>"
        raise TypeError(f"unknown history expression node {node!r}")

    return lambda term: fold(term, leave, memo, chain_children)


def _event(item: Event) -> str:
    if not item.params:
        return f"@{item.name}"
    inner = ", ".join(_literal(param) for param in item.params)
    return f"@{item.name}({inner})"


def _literal(value: object) -> str:
    if isinstance(value, bool):
        return f'"{value}"'
    if isinstance(value, (int, float)):
        return str(value)
    text = str(value)
    if text.isidentifier():
        return text
    return f'"{text}"'
