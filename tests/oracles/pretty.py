"""The recursive pretty printer: the differential oracle of
:mod:`repro.lang.pretty`, which folds the term's DAG instead.

Produces the concrete syntax of :mod:`repro.lang.parser`; parsing the
output of :func:`pretty` yields a structurally equal term (round-trip),
provided policy objects are given printable identifiers via the
*policy_names* table (otherwise ``str(policy)`` is used, which is
readable but not necessarily re-parseable).
"""

from __future__ import annotations

from typing import Mapping

from repro.core.actions import Event, Receive, Send
from repro.core.syntax import (ClosePending, Epsilon, EventNode,
                               ExternalChoice, FrameClosePending, Framing,
                               HistoryExpression, InternalChoice, Mu, Request,
                               Seq, Var)


def pretty(term: HistoryExpression,
           policy_names: Mapping[object, str] | None = None) -> str:
    """Render *term* in the surface syntax."""
    printer = _Printer(policy_names or {})
    return printer.render(term)


class _Printer:
    def __init__(self, policy_names: Mapping[object, str]) -> None:
        self._policy_names = policy_names

    def render(self, term: HistoryExpression) -> str:
        if isinstance(term, Epsilon):
            return "eps"
        if isinstance(term, Var):
            return term.name
        if isinstance(term, EventNode):
            return self._event(term.event)
        if isinstance(term, Seq):
            parts = []
            node: HistoryExpression = term
            while isinstance(node, Seq):
                parts.append(self.render(node.first))
                node = node.second
            parts.append(self.render(node))
            return " ; ".join(parts)
        if isinstance(term, ExternalChoice):
            return self._choice(term.branches, "+")
        if isinstance(term, InternalChoice):
            return self._choice(term.branches, "++")
        if isinstance(term, Mu):
            return f"mu {term.var} {{ {self.render(term.body)} }}"
        if isinstance(term, Request):
            policy = ("" if term.policy is None
                      else f" with {self._policy(term.policy)}")
            return (f"open {term.request}{policy} "
                    f"{{ {self.render(term.body)} }}")
        if isinstance(term, Framing):
            return (f"frame {self._policy(term.policy)} "
                    f"{{ {self.render(term.body)} }}")
        if isinstance(term, ClosePending):
            policy = ("0" if term.policy is None
                      else self._policy(term.policy))
            return f"<close {term.request},{policy}>"
        if isinstance(term, FrameClosePending):
            return f"<]{self._policy(term.policy)}>"
        raise TypeError(f"unknown history expression node {term!r}")

    def _event(self, item: Event) -> str:
        if not item.params:
            return f"@{item.name}"
        inner = ", ".join(self._literal(param) for param in item.params)
        return f"@{item.name}({inner})"

    @staticmethod
    def _literal(value: object) -> str:
        if isinstance(value, bool):
            return f'"{value}"'
        if isinstance(value, (int, float)):
            return str(value)
        text = str(value)
        if text.isidentifier():
            return text
        return f'"{text}"'

    def _choice(self, branches, operator: str) -> str:
        rendered = []
        for label, continuation in branches:
            sigil = "!" if isinstance(label, Send) else "?"
            assert isinstance(label, (Send, Receive))
            if isinstance(continuation, Epsilon):
                rendered.append(f"{sigil}{label.channel}")
            else:
                body = self.render(continuation)
                if isinstance(continuation, Seq):
                    body = f"{{ {body} }}"
                rendered.append(f"{sigil}{label.channel} . {body}")
        if len(rendered) == 1:
            return rendered[0]
        return "(" + f" {operator} ".join(rendered) + ")"

    def _policy(self, policy: object) -> str:
        name = self._policy_names.get(policy)
        if name is not None:
            return name
        return str(policy)
