"""Extraction of service requests from history expressions (Section 4).

"First we manipulate the syntactic structure of a service in order to
identify and pick up all the requests, i.e. the subterms of the form
``open_{r,φ} H1 close_{r,φ}``."

Besides the flat list, :func:`request_tree` recovers the *nesting*
structure — which requests can only be opened from inside which other
sessions — which the planner uses to resolve the requests of the services
a plan selects.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.syntax import HistoryExpression, Request, requests_of
from repro.observability.cache_stats import memo_table


@dataclass(frozen=True)
class RequestInfo:
    """One request occurrence: its identifier, the policy the client
    imposes on the session, and the client-side session body."""

    request: str
    policy: object | None
    body: HistoryExpression

    @staticmethod
    def of(node: Request) -> "RequestInfo":
        """Build from a :class:`~repro.core.syntax.Request` node."""
        return RequestInfo(node.request, node.policy, node.body)


@dataclass(frozen=True)
class RequestTree:
    """The requests of a term, with nesting.

    ``direct`` are the requests not enclosed in any other request of the
    same term; each entry pairs the request with the tree of requests
    nested in its body.
    """

    direct: tuple[tuple[RequestInfo, "RequestTree"], ...] = ()

    def all_requests(self) -> tuple[RequestInfo, ...]:
        """Flatten the tree, outermost-first."""
        flat: list[RequestInfo] = []
        for info, subtree in self.direct:
            flat.append(info)
            flat.extend(subtree.all_requests())
        return tuple(flat)

    def __len__(self) -> int:
        return len(self.all_requests())


@memo_table("analysis.extract_requests", 4096)
def extract_requests(term: HistoryExpression) -> tuple[RequestInfo, ...]:
    """All requests of *term* (nested included), in pre-order.

    Memoised: the planner re-extracts the requests of the same client and
    services once per candidate plan, and terms are immutable.
    """
    return tuple(RequestInfo.of(node) for node in requests_of(term))



def request_tree(term: HistoryExpression) -> RequestTree:
    """The nesting structure of the requests of *term*."""
    direct: list[tuple[RequestInfo, RequestTree]] = []
    _collect_direct(term, direct)
    return RequestTree(tuple(direct))


def _collect_direct(term: HistoryExpression,
                    out: list[tuple[RequestInfo, RequestTree]]) -> None:
    if isinstance(term, Request):
        out.append((RequestInfo.of(term), request_tree(term.body)))
        return
    for child in term.children():
        _collect_direct(child, out)
