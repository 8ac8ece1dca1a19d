"""Basic Process Algebra (BPA) processes.

Section 3.1: "the history expression Ĥ is naturally rendered as a BPA
process, while finite state automata check its validity against the
policies to be enforced".  This module provides the BPA term language

    p ::= 0 | a | p·p | p + p | X          (X ≜ p in a definition set Δ)

with its standard operational semantics.  Atomic actions ``a`` are the
labels of the calculus (events, framings, communications).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.core.errors import WellFormednessError
from repro.contracts.lts import DEFAULT_STATE_LIMIT, LTS, build_lts


class BPAProcess:
    """Abstract base class of BPA terms."""

    __slots__ = ()

    def __str__(self) -> str:  # pragma: no cover - simple rendering
        return _render(self)


@dataclass(frozen=True, slots=True)
class BPAZero(BPAProcess):
    """The terminated process ``0``."""


#: Shared ``0`` instance.
ZERO = BPAZero()


@dataclass(frozen=True, slots=True)
class BPAAction(BPAProcess):
    """An atomic action ``a``."""

    label: object


@dataclass(frozen=True, slots=True)
class BPASeq(BPAProcess):
    """Sequential composition ``p·q`` (use :func:`bpa_seq` to build)."""

    left: BPAProcess
    right: BPAProcess


@dataclass(frozen=True, slots=True)
class BPAChoice(BPAProcess):
    """Nondeterministic choice ``p + q``."""

    left: BPAProcess
    right: BPAProcess


@dataclass(frozen=True, slots=True)
class BPAVar(BPAProcess):
    """A process variable ``X``, bound in a :class:`BPASystem`."""

    name: str


def bpa_seq(left: BPAProcess, right: BPAProcess) -> BPAProcess:
    """``p·q`` normalising the unit: ``0·q ≡ q`` and ``p·0 ≡ p``."""
    if isinstance(left, BPAZero):
        return right
    if isinstance(right, BPAZero):
        return left
    return BPASeq(left, right)


def bpa_choice(*parts: BPAProcess) -> BPAProcess:
    """The n-ary choice ``p1 + … + pn`` (``0`` for the empty family)."""
    if not parts:
        return ZERO
    result = parts[-1]
    for part in reversed(parts[:-1]):
        result = BPAChoice(part, result)
    return result


def _render(process: BPAProcess) -> str:
    if isinstance(process, BPAZero):
        return "0"
    if isinstance(process, BPAAction):
        return str(process.label)
    if isinstance(process, BPAVar):
        return process.name
    if isinstance(process, BPASeq):
        return f"{_render(process.left)}·{_render(process.right)}"
    if isinstance(process, BPAChoice):
        return f"({_render(process.left)} + {_render(process.right)})"
    raise TypeError(f"unknown BPA term {process!r}")


@dataclass(frozen=True)
class BPASystem:
    """A root process with its recursive definitions ``Δ = {X ≜ p}``."""

    root: BPAProcess
    definitions: tuple[tuple[str, BPAProcess], ...] = ()

    def definition_of(self, name: str) -> BPAProcess:
        for var, body in self.definitions:
            if var == name:
                return body
        raise WellFormednessError(f"undefined BPA variable {name!r}")

    def step(self, process: BPAProcess,
             _depth: int = 0) -> Iterator[tuple[object, BPAProcess]]:
        """The transitions ``p --a--> p'`` of *process* under Δ."""
        if _depth > 64:
            raise WellFormednessError(
                "unguarded BPA recursion (too many variable expansions "
                "while computing one step)")
        if isinstance(process, BPAZero):
            return
        if isinstance(process, BPAAction):
            yield process.label, ZERO
            return
        if isinstance(process, BPAVar):
            yield from self.step(self.definition_of(process.name),
                                 _depth + 1)
            return
        if isinstance(process, BPAChoice):
            yield from self.step(process.left, _depth)
            yield from self.step(process.right, _depth)
            return
        if isinstance(process, BPASeq):
            for label, successor in self.step(process.left, _depth):
                yield label, bpa_seq(successor, process.right)
            return
        raise TypeError(f"unknown BPA term {process!r}")

    def lts(self, max_states: int = DEFAULT_STATE_LIMIT
            ) -> LTS[BPAProcess, object]:
        """The reachable transition system of the root process."""
        return build_lts(self.root, self.step, max_states=max_states)


def substitute_definitions(process: BPAProcess,
                           mapping: Mapping[str, BPAProcess]) -> BPAProcess:
    """Replace free variables by processes (used by tests to unfold)."""
    if isinstance(process, BPAVar):
        return mapping.get(process.name, process)
    if isinstance(process, BPASeq):
        return bpa_seq(substitute_definitions(process.left, mapping),
                       substitute_definitions(process.right, mapping))
    if isinstance(process, BPAChoice):
        return BPAChoice(substitute_definitions(process.left, mapping),
                         substitute_definitions(process.right, mapping))
    return process
