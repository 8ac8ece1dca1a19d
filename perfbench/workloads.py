"""The three workloads: what set-up imports and builds, what one op is,
how the program is made cold between ops, and how each output is checked
against its known answer.

Each workload object is used inside one worker process: ``prepare``
generates the inputs set-up needs (not counted in ``setup_s``),
``setup`` builds what must exist before the first timed op (counted),
``generate`` writes the op inputs, ``ops`` yields the op stream, ``run``
is the timed call and ``check`` compares its output with the known
answer, returning an error or ``None``.  ``after`` and
``known_defects`` run outside the timed window.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import itertools
import json
import os
import random

import gen

#: Reset by :func:`cold_reset` besides ``clear_contract_caches()``:
#: memo tables that outlive it.  Each is an ``lru_cache`` function; one
#: the program no longer has is skipped (the cold-reset self-check of
#: the traced run shows whether the reset is still complete).
LEAKY_CACHES = (("repro.core.compliance", "_cached_contract"),
                ("repro.analysis.requests", "extract_requests"))


def cold_reset(full: bool = True) -> None:
    """Drop every cache an op could reuse, as a fresh ``repro`` process
    would see it.  ``full=False`` is ``clear_contract_caches()`` alone
    (kept for the cold-reset self-check)."""
    from repro.contracts.contract import clear_contract_caches
    clear_contract_caches()
    if full:
        for module_name, attr in LEAKY_CACHES:
            cache = getattr(importlib.import_module(module_name), attr,
                            None)
            if cache is not None:
                cache.cache_clear()
    gc.collect()


def call_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``repro`` invocation with stdout captured."""
    import repro.cli
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = repro.cli.main(argv)
    return code, buffer.getvalue()


class Workload:
    """Defaults shared by the workloads: a cycled pool of generated
    inputs (``cases``), nothing to prepare or set up, no checks outside
    the timed window."""

    cold = True

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.cases: list = []
        self.paths: list[str] = []

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        pass

    def _write(self, name: str, source: str) -> str:
        path = os.path.join(self.workdir, f"{name}.sus")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source)
        return path

    def ops(self):
        return itertools.cycle(range(len(self.cases)))

    def after(self, first_output) -> list[tuple[str, bool, str]]:
        return []

    def known_defects(self) -> list[tuple[str, bool, str]]:
        return []


class CertifyCold(Workload):
    """``repro analyze --format json`` on seeded Figure-2 booking
    modules, each op from cold."""

    name = "certify-cold"
    #: More modules than a run's ops, so each run samples the seed's
    #: contents widely; trace blocks cover every shape once.
    pool_size = 16 * len(gen.CERTIFY_SHAPES)
    block = len(gen.CERTIFY_SHAPES)
    reuse_modules = 2

    def generate(self) -> str:
        self.cases = gen.certify_inputs(self.seed, self.pool_size)
        self.paths = [self._write(case.name, case.source)
                      for case in self.cases]
        return gen.digest([case.source for case in self.cases])

    def run(self, index: int):
        return call_cli(["analyze", "--format", "json", self.paths[index]])

    def check(self, index: int, output) -> str | None:
        case = self.cases[index]
        code, text = output
        if code != case.exit_code:
            return f"{case.name}: exit {code}, expected {case.exit_code}"
        report = json.loads(text)
        pairs = {(p["owner"], p["request"], p["service"]): p["compliant"]
                 for p in report["pairs"]}
        plans = {p["client"]: p["valid"] for p in report["plans"]}
        if pairs != case.compliant:
            wrong = sorted(k for k in case.compliant
                           if pairs.get(k) != case.compliant[k])
            return f"{case.name}: compliance flags differ on {wrong[:3]}"
        if plans != case.plans:
            return f"{case.name}: plans {plans}, expected {case.plans}"
        if report["ok"] != case.ok:
            return f"{case.name}: ok={report['ok']}, expected {case.ok}"
        return None

    def known_defects(self) -> list[tuple[str, bool, str]]:
        """Request-id-reuse modules, run outside the timed window: the
        known answer is "not accepted" (exit 1 or 2)."""
        rng = random.Random(f"request-id-reuse/{self.seed}")
        results = []
        for index in range(self.reuse_modules):
            name = f"reuse{index}"
            source = gen.request_id_reuse_module(rng, name)
            cold_reset()
            code, _ = call_cli(["analyze", "--format", "json",
                                self._write(name, source)])
            results.append((f"request-id reuse {name}", code != 0,
                            f"exit {code}; known answer: not accepted"))
        return results


class ChaosCold(Workload):
    """``repro chaos --format json`` campaigns of a few seeded crash,
    drop and stall trials on resilient booking networks, each op from
    cold."""

    name = "chaos-cold"
    pool_size = 21 * len(gen.CHAOS_SHAPES)
    block = len(gen.CHAOS_SHAPES)
    trials = 4

    def generate(self) -> str:
        self.cases = gen.chaos_inputs(self.seed, self.pool_size)
        self.paths = [self._write(case.name, case.source)
                      for case in self.cases]
        return gen.digest([(case.source, case.seed) for case in self.cases])

    def run(self, index: int):
        return call_cli(["chaos", "--format", "json", "--trials",
                         str(self.trials), "--seed",
                         str(self.cases[index].seed), self.paths[index]])

    def check(self, index: int, output) -> str | None:
        code, text = output
        name = self.cases[index].name
        if code != 0:
            return f"{name}: exit {code}, expected 0"
        report = json.loads(text)
        if not report["invariant_holds"]:
            return f"{name}: chaos invariant broken: {report['outcomes']}"
        if len(report["results"]) != self.trials:
            return f"{name}: {len(report['results'])} trials reported"
        return None

    def after(self, first_output) -> list[tuple[str, bool, str]]:
        """Fault-free simulation of every module terminates, and the
        first op repeats byte for byte."""
        stuck = []
        for case, path in zip(self.cases, self.paths):
            cold_reset()
            code, text = call_cli(["simulate", path, "--seed", "1"])
            if code != 0 or "terminated: True" not in text:
                stuck.append(case.name)
        cold_reset()
        again = self.run(0)
        return [("fault-free simulate terminates", not stuck,
                 f"{len(self.cases) - len(stuck)} of {len(self.cases)} "
                 f"modules"),
                ("same-seed op repeats byte for byte", again == first_output,
                 f"{len(again[1])} bytes")]


def build_term(spec):
    """The history expression of a :func:`gen.contract` spec."""
    from repro.core.syntax import EPSILON, Seq, external, internal, mu
    kind = spec[0]
    if kind == "eps":
        return EPSILON
    if kind in ("int", "ext"):
        choice = internal if kind == "int" else external
        return choice(*((chan, build_term(cont)) for chan, cont in spec[1]))
    if kind == "mu":
        choice = internal if spec[1] == "int" else external
        return mu("h", choice((spec[2], build_term(spec[3]))))
    return Seq(build_term(spec[1]), build_term(spec[2]))


class DiscoverWarm(Workload):
    """Discovery queries and writes against one long-lived
    ``ContractRegistry`` holding more contracts than the program's own
    1024-entry canon and compiled caches."""

    name = "discover-warm"
    cold = False
    members = 2000
    stream_length = 8000
    block = 64
    sample = 4

    def prepare(self) -> None:
        self.inputs = gen.discover_inputs(self.seed, self.members,
                                          self.stream_length)
        self.population = [(name, build_term(spec))
                           for name, spec in self.inputs.members]

    def setup(self) -> None:
        from repro.registry import ContractRegistry
        self.registry = ContractRegistry()
        for name, term in self.population:
            self.registry.add(name, term)

    def generate(self) -> str:
        self.cases = [(kind, name, build_term(spec), expect)
                      for kind, name, spec, expect in self.inputs.ops]
        return gen.digest([self.inputs.members, self.inputs.ops])

    def run(self, index: int):
        kind, name, term, _ = self.cases[index]
        if kind == "compliant":
            return self.registry.find_compliant(term)
        if kind == "substitutable":
            return self.registry.find_substitutable(term)
        if kind == "add":
            return self.registry.add(name, term)
        return self.registry.update(name, term)

    def check(self, index: int, output) -> str | None:
        kind, name, _, expect = self.cases[index]
        if kind in ("add", "update"):
            if output.name != name or name not in self.registry:
                return f"{kind} {name}: entry missing"
            return None
        if expect is not None and expect not in output.matches:
            return f"{kind} query of {expect}: member not matched"
        return None

    def after(self, first_output) -> list[tuple[str, bool, str]]:
        """Indexed match sets equal the all-pairs baselines on a seeded
        sample of the stream's queries."""
        rng = random.Random(f"discover-sample/{self.seed}")
        queries = [op for op in self.cases
                   if op[0] in ("compliant", "substitutable")]
        results = []
        for kind, _, term, _ in rng.sample(queries, self.sample):
            if kind == "compliant":
                indexed = self.registry.find_compliant(term).matches
                baseline = self.registry.exhaustive_compliant(term)
            else:
                indexed = self.registry.find_substitutable(term).matches
                baseline = self.registry.exhaustive_substitutable(term)
            results.append((f"{kind} matches == exhaustive",
                            tuple(indexed) == tuple(baseline),
                            f"{len(indexed)} match(es)"))
        return results


WORKLOADS = {workload.name: workload
             for workload in (CertifyCold, ChaosCold, DiscoverWarm)}
