"""Command-line driver.

Networks are described in TOML::

    [policies.phi]
    schema = "hotel"                      # a schema from the registry
    args = { bl = [1], p = 45, t = 100 }

    [services.lbr]
    term = "?Req . open r3 { !IdC . (?Bok + ?UnA) } ; (!CoBo . ?Pay ++ !NoAv)"

    [clients.lc1]
    term = "open r1 with phi { !Req . (?CoBo . !Pay + ?NoAv) }"

Networks can equivalently be written in the surface-language module
format (``.sus`` files; see :mod:`repro.lang.module`).

Commands::

    repro check NETWORK.{toml,sus}        # parse + well-formedness + lint
    repro lint NETWORK.sus [...]          # static diagnostics (SUS0xx)
    repro analyze NETWORK.{toml,sus}      # whole-network static certifier
    repro canon NETWORK.{toml,sus}        # quotients, fingerprints, dups
    repro registry NETWORK.{toml,sus} [--query-compliant NAME]
                                          # signature-indexed discovery
    repro verify NETWORK.toml             # plan synthesis (Section 5)
    repro compliance NETWORK.toml A B [--reversible]
                                          # is A's first request ⊢ B?
    repro simulate NETWORK.toml [--seed N] [--unmonitored] [--trace]
    repro chaos NETWORK.toml [--seed N] [--trials N] [--faults KINDS]
    repro report NETWORK.toml [--seed N] [--format json] [--wall]
    repro explain NETWORK.toml CLIENT     # narrate each candidate plan
    repro dot NETWORK.toml NAME           # policy automaton / contract dot
    repro trace NETWORK.toml [--out F]    # verify + simulate, emit spans

``repro --stats <command> …`` enables telemetry for the run and prints
the metrics table (counters, span timings, memo-table hit rates)
afterwards; the ``REPRO_TELEMETRY`` environment variable enables
telemetry for every run.

Exit status (uniform across commands):

* ``0`` — success: parsed/verified/compliant, or lint found nothing at
  the failing threshold;
* ``1`` — a negative verdict: verification or compliance failed, or
  lint reported errors (warnings too under ``lint --strict``);
* ``2`` — usage or input errors (unreadable file, parse error, unknown
  name); the message goes to stderr as ``error: file:line:col: ...``.
"""

from __future__ import annotations

import argparse
import sys
import tomllib
from pathlib import Path

from repro.core.compliance import check_compliance
from repro.core.errors import ParseError, ReproError
from repro.observability import runtime as _telemetry
from repro.observability.cache_stats import cache_stats
from repro.core.syntax import HistoryExpression
from repro.core.wellformed import check_well_formed
from repro.analysis.requests import extract_requests
from repro.analysis.verification import verify_network
from repro.lang.module import Module
from repro.lang.parser import parse
from repro.network.config import Component, Configuration
from repro.network.repository import Repository
from repro.network.simulator import Simulator
from repro.policies import library
from repro.policies.usage_automata import Policy

#: Registry of policy schemas available to TOML files: name → callable
#: returning a parametric automaton (instantiated with the TOML args).
SCHEMAS = {
    "hotel": lambda: library.hotel_policy_automaton(),
    "never_after": library.never_after_automaton,
    "forbid": library.forbid_automaton,
    "blacklist": library.blacklist_automaton,
    "at_most": library.at_most_automaton,
    "require_before": library.require_before_automaton,
    "chinese_wall": library.chinese_wall_automaton,
}


class NetworkFile:
    """A parsed network description."""

    def __init__(self, policies: dict[str, Policy],
                 services: dict[str, HistoryExpression],
                 clients: dict[str, HistoryExpression]) -> None:
        self.policies = policies
        self.services = services
        self.clients = clients

    @property
    def repository(self) -> Repository:
        return Repository(self.services)

    def term(self, name: str) -> HistoryExpression:
        """Look up a client or service by location name."""
        if name in self.clients:
            return self.clients[name]
        if name in self.services:
            return self.services[name]
        raise ReproError(f"no client or service named {name!r}")


def load_module(path: str | Path) -> Module:
    """Parse a network description into a :class:`Module`.

    ``.toml`` files are read through the schema registry and wrapped in
    a span-less module; everything else (conventionally ``.sus``) goes
    through the surface-language parser, which records source spans for
    every declaration.  Parse errors carry the file path so the CLI can
    report ``error: file:line:col: message``.
    """
    tel = _telemetry.active()
    if tel is None:
        return _load_module(path)
    with tel.tracer.span("parse.load_module",
                         module=Path(path).name) as span:
        module = _load_module(path)
        span.set(clients=len(module.clients),
                 services=len(module.services),
                 policies=len(module.policies))
        tel.emit("parse.module", module=Path(path).name,
                 clients=len(module.clients),
                 services=len(module.services))
        return module


def _load_module(path: str | Path) -> Module:
    if Path(path).suffix != ".toml":
        from repro.lang.module import parse_module
        # Read as text mode reads: "\r\n" and a lone "\r" end lines.
        source = _read_text(path).replace("\r\n", "\n").replace("\r", "\n")
        try:
            return parse_module(source, path=str(path))
        except ParseError as error:
            error.path = str(path)
            raise
    network = _load_toml(Path(path))
    return Module(policies=network.policies, clients=network.clients,
                  services=network.services, path=str(path))


def load_network(path: str | Path) -> NetworkFile:
    """Parse a network description: TOML, or the surface-language module
    format (any non-``.toml`` extension, conventionally ``.sus``)."""
    if Path(path).suffix != ".toml":
        module = load_module(path)
        return NetworkFile(module.policies, module.services,
                           module.clients)
    return _load_toml(Path(path))


def _read_text(path: str | Path) -> str:
    """The UTF-8 text of *path*; any other bytes are an input error."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as error:
        raise ReproError(f"{path}: invalid UTF-8: {error.reason} at byte "
                         f"offset {error.start}") from None


def _load_toml(path: Path) -> NetworkFile:
    try:
        data = tomllib.loads(_read_text(path))
    except tomllib.TOMLDecodeError as error:
        raise ReproError(f"{path}: invalid TOML: {error}") from error

    policies: dict[str, Policy] = {}
    for entry, name, spec in _toml_tables(path, data, "policies"):
        schema_name = spec.get("schema")
        if not isinstance(schema_name, str) or schema_name not in SCHEMAS:
            raise ReproError(
                f"{path}: {entry}: unknown schema {schema_name!r} "
                f"(known: {', '.join(sorted(SCHEMAS))})")
        ctor_args = spec.get("schema_args", [])
        instantiation = spec.get("args", {})
        if not isinstance(ctor_args, list):
            raise ReproError(f"{path}: {entry}: schema_args must be an "
                             f"array, not {_toml_type(ctor_args)}")
        if not isinstance(instantiation, dict):
            raise ReproError(f"{path}: {entry}: args must be a table, "
                             f"not {_toml_type(instantiation)}")
        try:
            automaton = SCHEMAS[schema_name](*ctor_args)
        except (TypeError, ValueError) as error:
            # A wrong number or kind of schema arguments.
            raise ReproError(f"{path}: {entry}: bad schema_args for schema "
                             f"{schema_name!r}: {error}") from None
        try:
            policies[name] = automaton.instantiate(**instantiation)
        except ReproError as error:
            raise ReproError(f"{path}: {entry}: {error}") from None
        try:
            # Terms key their policies by value.
            hash(policies[name])
        except TypeError as error:
            # A table, or an array holding one, among the args.
            raise ReproError(f"{path}: {entry}: args: {error}") from None

    def parse_section(section: str) -> dict[str, HistoryExpression]:
        terms: dict[str, HistoryExpression] = {}
        for entry, name, spec in _toml_tables(path, data, section):
            term = spec.get("term")
            if not isinstance(term, str):
                raise ReproError(
                    f"{path}: {entry}: missing term" if term is None else
                    f"{path}: {entry}: term must be a string, not "
                    f"{_toml_type(term)}")
            try:
                terms[name] = parse(term, policies=policies)
            except ParseError as error:
                raise ReproError(f"{path}: {entry}: term: {error}") from None
        return terms

    return NetworkFile(policies, parse_section("services"),
                       parse_section("clients"))


def _toml_tables(path: Path, data: dict, section: str):
    """``(entry, name, table)`` for each ``[section.name]`` table; any
    other shape is an input error naming the entry."""
    tables = data.get(section, {})
    if not isinstance(tables, dict):
        raise ReproError(f"{path}: {section}: must be a table, not "
                         f"{_toml_type(tables)}")
    for name, spec in tables.items():
        entry = f"{section}.{name}"
        if not isinstance(spec, dict):
            raise ReproError(f"{path}: {entry}: must be a table, not "
                             f"{_toml_type(spec)}")
        yield entry, name, spec


def _toml_type(value: object) -> str:
    """The TOML name of *value*'s type."""
    names = {bool: "a boolean", int: "an integer", float: "a float",
             str: "a string", list: "an array", dict: "a table"}
    return names.get(type(value), "a date or time")


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.lint import Severity, lint_module
    module = load_module(args.network)
    for name, term in {**module.clients, **module.services}.items():
        check_well_formed(term)
        print(f"{name}: well formed")
    diagnostics = lint_module(module, min_severity=Severity.ERROR)
    for diagnostic in diagnostics:
        print(diagnostic.format(module.path or str(args.network)),
              file=sys.stderr)
    if diagnostics:
        print(f"{len(diagnostics)} error(s) — run `repro lint "
              f"{args.network}` for the full diagnosis", file=sys.stderr)
        return 1
    return 0


def _parse_rule_codes(spec: str | None) -> list[str] | None:
    if spec is None:
        return None
    codes = [code.strip().upper() for code in spec.split(",")]
    return [code for code in codes if code]


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (Severity, default_registry, lint_module,
                            render_json, worst_severity)
    registry = default_registry()
    if args.list_rules:
        for rule in registry.rules():
            print(f"{rule.code}  {rule.name:<24} {rule.severity.label:<8} "
                  f"{rule.description}")
        return 0
    if not args.networks:
        raise ReproError("lint needs at least one module "
                         "(or --list-rules)")
    select = _parse_rule_codes(args.select)
    ignore = _parse_rule_codes(args.ignore)
    results: dict[str, list] = {}
    for path in args.networks:
        module = load_module(path)
        results[str(path)] = lint_module(module, registry,
                                         select=select, ignore=ignore)
    everything = [d for diags in results.values() for d in diags]
    if args.format == "json":
        print(render_json(results, registry))
    else:
        counts = {Severity.ERROR: 0, Severity.WARNING: 0, Severity.INFO: 0}
        for path, diagnostics in results.items():
            for diagnostic in diagnostics:
                print(diagnostic.format(path))
                counts[diagnostic.severity] += 1
        summary = ", ".join(
            f"{count} {severity.label}(s)"
            for severity, count in counts.items() if count) or "clean"
        print(f"{len(results)} module(s) linted: {summary}")
    threshold = Severity.WARNING if args.strict else Severity.ERROR
    worst = worst_severity(everything)
    return 1 if worst is not None and worst >= threshold else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Whole-network abstract interpretation (repro.staticcheck)."""
    import json as _json

    from repro.staticcheck import analyze_module
    module = load_module(args.network)
    analysis = analyze_module(module, max_plans=args.max_plans)
    if args.format == "json":
        print(_json.dumps(analysis.to_json(), indent=2, sort_keys=True))
    else:
        print(analysis.render_text())
    return 0 if analysis.ok else 1


def _client_body(term: HistoryExpression) -> HistoryExpression:
    """The contract a client declaration exposes: its first request body
    (matching ``repro compliance``), or the term itself when there is no
    request wrapper.  Service terms are canonicalised whole — projection
    handles any nested requests/framings."""
    requests = extract_requests(term)
    return requests[0].body if requests else term


def _cmd_canon(args: argparse.Namespace) -> int:
    """Canonical analysis of every declared contract: quotient size,
    fingerprint, signature, and duplicate (bisimilar) groups."""
    import json as _json

    from repro.canon import canonicalize
    module = load_module(args.network)
    contracts = []
    by_key: dict[tuple, list[str]] = {}
    for kind, table in (("client", module.clients),
                        ("service", module.services)):
        for name, term in table.items():
            body = _client_body(term) if kind == "client" else term
            form = canonicalize(body)
            contracts.append((name, kind, form))
            by_key.setdefault(form.key, []).append(name)
    contracts.sort(key=lambda row: row[0])
    duplicates = tuple(tuple(sorted(group))
                       for group in sorted(by_key.values())
                       if len(group) >= 2)
    if args.format == "json":
        print(_json.dumps({
            "schema": "repro-canon.v1",
            "module": Path(args.network).name,
            "contracts": [
                dict(name=name, kind=kind, **form.to_json())
                for name, kind, form in contracts],
            "duplicates": [list(group) for group in duplicates],
        }, indent=2, sort_keys=True))
        return 0
    for name, kind, form in contracts:
        shape = ("minimal" if form.n_blocks == form.n_source_states
                 else f"reducible {form.n_source_states}→{form.n_blocks}")
        print(f"{name} ({kind}): {form.n_blocks} block(s), {shape}, "
              f"{form.signature.mode} mode, "
              f"fingerprint {form.fingerprint[:16]}")
    if duplicates:
        for group in duplicates:
            print(f"duplicate contracts (bisimilar): {', '.join(group)}")
    else:
        print("no duplicate contracts")
    return 0


def _cmd_registry(args: argparse.Namespace) -> int:
    """Index the module's services in a signature-bucketed registry and
    (optionally) answer discovery queries with pruning statistics.

    Exits 1 when any requested query matches nothing; 0 otherwise.
    """
    import json as _json

    from repro.registry import ContractRegistry
    network = load_network(args.network)
    registry = ContractRegistry()
    for name, term in network.services.items():
        registry.add(name, term)

    def query_term(name: str) -> HistoryExpression:
        term = network.term(name)
        return _client_body(term) if name in network.clients else term

    queries = []
    if args.query_compliant:
        queries.append((args.query_compliant,
                        registry.find_compliant(
                            query_term(args.query_compliant))))
    if args.query_substitutable:
        queries.append((args.query_substitutable,
                        registry.find_substitutable(
                            query_term(args.query_substitutable))))

    if args.format == "json":
        print(_json.dumps({
            "schema": "repro-registry.v1",
            "module": Path(args.network).name,
            "registry": registry.stats(),
            "entries": [
                {"name": entry.name,
                 "fingerprint": entry.fingerprint,
                 "blocks": entry.canonical.n_blocks,
                 "mode": entry.signature.mode}
                for entry in registry.entries()],
            "queries": [dict(name=name, **result.to_json())
                        for name, result in queries],
        }, indent=2, sort_keys=True))
    else:
        stats = registry.stats()
        print(f"{stats['entries']} service(s) in {stats['buckets']} "
              f"signature bucket(s), {stats['canonical_classes']} "
              f"canonical class(es)")
        for group in registry.duplicate_groups():
            print(f"  duplicates: {', '.join(group)}")
        for name, result in queries:
            matched = ", ".join(result.matches) or "none"
            print(f"{result.kind} with {name}: {matched} "
                  f"({result.candidates}/{result.total} candidate(s) "
                  f"after pruning, {result.product_checks} check(s))")
    return 1 if any(not result.matches for _, result in queries) else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    network = load_network(args.network)
    verdict = verify_network(network.clients, network.repository,
                             max_plans=args.max_plans)
    print(verdict.report())
    return 0 if verdict.verified else 1


def _cmd_compliance(args: argparse.Namespace) -> int:
    network = load_network(args.network)
    client = network.term(args.client)
    server = network.term(args.server)
    requests = extract_requests(client)
    body = requests[0].body if requests else client
    if args.reversible:
        from repro.core.reversible import check_reversible
        result = check_reversible(body, server)
    else:
        result = check_compliance(body, server)
    if result.compliant:
        print(f"{args.client} ⊢ {args.server}: compliant")
        return 0
    print(f"{args.client} ⊬ {args.server}: NOT compliant")
    if result.trace:
        print(f"  stuck after {len(result.trace) - 1} synchronisations")
    return 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    network = load_network(args.network)
    verdict = verify_network(network.clients, network.repository,
                             max_plans=args.max_plans)
    if not verdict.verified:
        print(verdict.report())
        return 1
    plans = verdict.plan_vector()
    configuration = Configuration.of(*(
        Component.client(location, term)
        for location, term in network.clients.items()))
    simulator = Simulator(configuration, plans, network.repository,
                          monitored=not args.unmonitored, seed=args.seed)
    simulator.run(max_steps=args.max_steps)
    if args.trace:
        from repro.network.trace_render import render_run
        print(render_run(simulator))
    for index, (location, _) in enumerate(network.clients.items()):
        history = simulator.configuration[index].history
        print(f"{location}: {history}")
    print(f"ran {len(simulator.log)} steps under ~π = {plans}; "
          f"terminated: {simulator.is_terminated()}")
    return 0


def _parse_fault_kinds(spec: str) -> tuple[str, ...]:
    from repro.resilience import FAULT_KINDS
    kinds = tuple(kind.strip() for kind in spec.split(",")
                  if kind.strip())
    unknown = [kind for kind in kinds if kind not in FAULT_KINDS]
    if unknown:
        raise ReproError(f"unknown fault kind(s): {', '.join(unknown)} "
                         f"(known: {', '.join(FAULT_KINDS)})")
    return kinds


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Verify, then run seeded fault-injection trials with recovery."""
    from repro.resilience import (RollbackPolicy, UnverifiedModuleError,
                                  run_chaos)
    network = load_network(args.network)
    kinds = _parse_fault_kinds(args.faults)
    rollback = RollbackPolicy(enabled=not args.no_rollback,
                              max_rollbacks=args.max_rollbacks)
    try:
        report = run_chaos(network.clients, network.repository,
                           trials=args.trials, seed=args.seed, kinds=kinds,
                           max_faults=args.max_faults,
                           max_steps=args.max_steps,
                           recover=not args.no_recover,
                           rollback=rollback,
                           module=str(args.network))
    except UnverifiedModuleError as error:
        print(error.verdict.report())
        return 1
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    return 0 if report.invariant_holds else 1


def _cmd_report(args: argparse.Namespace) -> int:
    """Run a seeded chaos campaign under a fresh telemetry scope and
    print the merged observability report: per-layer attribution, causal
    chains, flight-recorder counters, metrics.

    The JSON rendering is deterministic for a fixed (module, seed,
    trials, faults) tuple unless ``--wall`` adds wall-clock timings.
    """
    from repro.observability.report import build_report
    from repro.resilience import run_chaos
    kinds = _parse_fault_kinds(args.faults)
    with _telemetry.telemetry_session() as tel:
        network = load_network(args.network)
        from repro.resilience import RollbackPolicy
        rollback = RollbackPolicy(enabled=not args.no_rollback,
                                  max_rollbacks=args.max_rollbacks)
        chaos = run_chaos(network.clients, network.repository,
                          trials=args.trials, seed=args.seed,
                          kinds=kinds, max_faults=args.max_faults,
                          max_steps=args.max_steps,
                          rollback=rollback,
                          module=Path(args.network).name)
        merged = build_report(tel, module=Path(args.network).name,
                              chaos=chaos.to_dict(), wall=args.wall)
    output = (merged.to_json() if args.format == "json"
              else merged.render_text())
    if args.out:
        Path(args.out).write_text(output + "\n", encoding="utf-8")
        print(f"wrote report to {args.out}")
    else:
        print(output)
    return 0 if chaos.invariant_holds else 1


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.analysis.diagnostics import explain_plan
    from repro.analysis.planner import analyze_plan, enumerate_plans
    network = load_network(args.network)
    if args.client not in network.clients:
        raise ReproError(f"no client named {args.client!r}")
    client = network.clients[args.client]
    repository = network.repository
    any_valid = False
    for plan in enumerate_plans(client, repository):
        analysis = analyze_plan(client, plan, repository,
                                location=args.client)
        any_valid = any_valid or analysis.valid
        print(explain_plan(analysis))
        print()
    return 0 if any_valid else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    """Verify, simulate, and emit the span tree of the whole run."""
    network = load_network(args.network)
    with _telemetry.telemetry_session() as tel:
        verdict = verify_network(network.clients, network.repository,
                                 max_plans=args.max_plans)
        if not verdict.verified:
            print(verdict.report())
            return 1
        plans = verdict.plan_vector()
        configuration = Configuration.of(*(
            Component.client(location, term)
            for location, term in network.clients.items()))
        simulator = Simulator(configuration, plans, network.repository,
                              seed=args.seed)
        simulator.run(max_steps=args.max_steps)
        if args.out:
            Path(args.out).write_text(tel.tracer.export_jsonl() + "\n",
                                      encoding="utf-8")
            print(f"wrote {len(tel.tracer)} span(s) to {args.out}")
        print(tel.tracer.render_tree())
        print()
        print(tel.metrics.render_table(tel.tracer.timings()))
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    network = load_network(args.network)
    if args.name in network.policies:
        print(network.policies[args.name].automaton.to_dot())
        return 0
    from repro.contracts.contract import Contract
    term = network.term(args.name)
    print(Contract(term).lts.to_dot(name=args.name))
    return 0


def _count(text: str) -> int:
    """The argparse type of every count option: an integer ``>= 0``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must not be negative, got {value}")
    return value


def _plan_bound(text: str) -> int:
    """The argparse type of ``--max-plans``: an integer ``>= 1``.  A
    planner pass over no plan cannot say whether a valid plan exists."""
    value = _count(text)
    if value == 0:
        raise argparse.ArgumentTypeError(
            "must be at least 1, got 0 (no plan would be analysed)")
    return value


#: The subcommands, in the order ``repro --help`` lists them.
COMMANDS = ("check", "lint", "analyze", "canon", "registry", "verify",
            "compliance", "simulate", "chaos", "report", "explain", "dot",
            "trace")


class _Unbuilt:
    """Stands in for the parser of a subcommand that is not built: the
    arguments it is given are dropped."""

    def add_argument(self, *args, **kwargs) -> None:
        pass

    set_defaults = add_argument


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argparse command tree (exposed for the tests).

    With a *command*, only that subcommand's parser is built.  The tree
    then parses that command's arguments, and prints its help, usage and
    errors, exactly as the full tree does: the usage line still names
    every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Secure and Unfailing Services — verification toolkit")
    parser.add_argument("--stats", action="store_true",
                        help="enable telemetry and print the metrics "
                             "table after the command")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(COMMANDS) + "}")

    def add(name: str, **kwargs):
        if command is None or name == command:
            return sub.add_parser(name, **kwargs)
        return _Unbuilt()

    check = add("check", help="parse and validate a network "
                              "(error-severity lint included)")
    check.add_argument("network")
    check.set_defaults(func=_cmd_check)

    lint = add(
        "lint", help="run the SUS0xx static diagnostics over modules")
    lint.add_argument("networks", nargs="*", metavar="NETWORK",
                      help="module files to lint (.sus or .toml)")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="output format: human text (default) or "
                           "SARIF-style JSON")
    lint.add_argument("--strict", action="store_true",
                      help="exit 1 on warnings, not just errors")
    lint.add_argument("--select", default=None, metavar="CODES",
                      help="comma-separated rule codes to run exclusively "
                           "(e.g. SUS011,SUS030)")
    lint.add_argument("--ignore", default=None, metavar="CODES",
                      help="comma-separated rule codes to skip")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule table and exit")
    lint.set_defaults(func=_cmd_lint)

    analyze = add(
        "analyze", help="statically certify validity, compliance and "
                        "plans, with counterexample witnesses")
    analyze.add_argument("network")
    analyze.add_argument("--format", choices=("text", "json"),
                         default="text",
                         help="output format: human text (default) or "
                              "deterministic JSON (repro-analyze.v1)")
    analyze.add_argument("--max-plans", type=_plan_bound, default=None,
                         help="bound on the candidate plans per client")
    analyze.set_defaults(func=_cmd_analyze)

    canon = add(
        "canon", help="canonical contract analysis: bisimulation "
                      "quotients, fingerprints, duplicate detection")
    canon.add_argument("network")
    canon.add_argument("--format", choices=("text", "json"),
                       default="text",
                       help="output format: human text (default) or "
                            "deterministic JSON (repro-canon.v1)")
    canon.set_defaults(func=_cmd_canon)

    registry = add(
        "registry", help="signature-indexed service registry: index the "
                         "module's services and answer discovery queries")
    registry.add_argument("network")
    registry.add_argument("--query-compliant", default=None, metavar="NAME",
                          help="find every registered service this "
                               "client/contract is compliant with")
    registry.add_argument("--query-substitutable", default=None,
                          metavar="NAME",
                          help="find every registered service refining "
                               "this advertised contract")
    registry.add_argument("--format", choices=("text", "json"),
                          default="text",
                          help="output format: human text (default) or "
                               "deterministic JSON (repro-registry.v1)")
    registry.set_defaults(func=_cmd_registry)

    verify = add("verify", help="synthesise valid plans")
    verify.add_argument("network")
    verify.add_argument("--max-plans", type=_plan_bound, default=None)
    verify.set_defaults(func=_cmd_verify)

    compliance = add("compliance", help="check one client/service pair")
    compliance.add_argument("network")
    compliance.add_argument("client")
    compliance.add_argument("server")
    compliance.add_argument("--reversible", action="store_true",
                            help="decide the weaker checkpoint/rollback "
                                 "relation: can rollback always avoid a "
                                 "stuck pair?")
    compliance.set_defaults(func=_cmd_compliance)

    simulate = add("simulate", help="verify, then run one computation")
    simulate.add_argument("network")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--max-steps", type=_count, default=10_000)
    simulate.add_argument("--max-plans", type=_plan_bound, default=None)
    simulate.add_argument("--unmonitored", action="store_true")
    simulate.add_argument("--trace", action="store_true",
                          help="print the Figure-3-style step trace")
    simulate.set_defaults(func=_cmd_simulate)

    chaos = add(
        "chaos", help="verify, then run seeded fault-injection trials "
                      "and check the resilience invariant")
    chaos.add_argument("network")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--trials", type=_count, default=20)
    chaos.add_argument("--faults", default="crash,drop,stall",
                       metavar="KINDS",
                       help="comma-separated fault kinds to inject "
                            "(crash, drop, stall, byzantine)")
    chaos.add_argument("--max-faults", type=_count, default=3,
                       help="maximum faults sampled per trial")
    chaos.add_argument("--max-steps", type=_count, default=400,
                       help="per-trial step budget")
    chaos.add_argument("--no-rollback", action="store_true",
                       help="disable rollback-first recovery (pure "
                            "compensate/replan, the pre-reversible ladder)")
    chaos.add_argument("--max-rollbacks", type=_count, default=8,
                       help="rollback attempts per recovery episode "
                            "(default: 8)")
    chaos.add_argument("--no-recover", action="store_true",
                       help="disable retry/failover (diagnosis only)")
    chaos.add_argument("--format", choices=("text", "json"),
                       default="text")
    chaos.set_defaults(func=_cmd_chaos)

    report = add(
        "report", help="run a seeded chaos campaign under telemetry and "
                       "print one merged observability report "
                       "(layers, causal chains, flight recorder)")
    report.add_argument("network")
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--trials", type=_count, default=20)
    report.add_argument("--faults", default="crash,drop,stall",
                        metavar="KINDS",
                        help="comma-separated fault kinds to inject")
    report.add_argument("--max-faults", type=_count, default=3)
    report.add_argument("--max-steps", type=_count, default=400)
    report.add_argument("--no-rollback", action="store_true",
                        help="disable rollback-first recovery")
    report.add_argument("--max-rollbacks", type=_count, default=8)
    report.add_argument("--format", choices=("text", "json"),
                        default="text")
    report.add_argument("--wall", action="store_true",
                        help="include wall-clock timings (makes the "
                             "report non-reproducible)")
    report.add_argument("--out", default=None,
                        help="write the report to this file instead of "
                             "stdout")
    report.set_defaults(func=_cmd_report)

    explain = add(
        "explain", help="narrate why each candidate plan is (in)valid")
    explain.add_argument("network")
    explain.add_argument("client")
    explain.set_defaults(func=_cmd_explain)

    dot = add("dot", help="Graphviz output for a policy or contract")
    dot.add_argument("network")
    dot.add_argument("name")
    dot.set_defaults(func=_cmd_dot)

    trace = add(
        "trace", help="verify + simulate with telemetry on; print the "
                      "span tree (and write it as JSONL with --out)")
    trace.add_argument("network")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--max-steps", type=_count, default=10_000)
    trace.add_argument("--max-plans", type=_plan_bound, default=None)
    trace.add_argument("--out", default=None,
                       help="write the spans as JSONL to this file")
    trace.set_defaults(func=_cmd_trace)
    return parser


def _invoked(argv: list[str]) -> str | None:
    """The subcommand *argv* runs, when its first argument after any
    ``--stats`` names one; otherwise ``None`` (help, or an error that
    lists every subcommand), which needs the full tree."""
    for arg in argv:
        if arg != "--stats":
            return arg if arg in COMMANDS else None
    return None


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(_invoked(argv)).parse_args(argv)
    try:
        if args.stats:
            with _telemetry.telemetry_session() as tel:
                status = args.func(args)
                print()
                print("-- metrics --")
                print(tel.metrics.render_table(tel.tracer.timings()))
                for name, stats in sorted(cache_stats().items()):
                    print(f"cache {name}: {stats['hits']} hit(s), "
                          f"{stats['misses']} miss(es), "
                          f"{stats['currsize']} entries")
                from repro.compiled.tables import label_table_stats
                tables = label_table_stats()
                print(f"compiled tables: {tables['labels']} label(s), "
                      f"{tables['channels']} channel(s), "
                      f"{tables['compiled_contracts']} compiled "
                      f"contract(s)")
                for kind, count in tel.events.counters().items():
                    print(f"event {kind}: {count}")
            return status
        return args.func(args)
    except (ReproError, OSError) as error:
        # Uniform failure channel: diagnostics go to stderr, stdout
        # stays machine-consumable (e.g. `lint --format json`).
        print(f"error: {error}", file=sys.stderr)
        return 2
    except RecursionError:
        # The passes over terms are iterative folds, but the parser
        # recurses once per nested prefix, choice or group, so source
        # nested deeper than the interpreter allows is an input the tool
        # cannot take, not a rejected one.
        source = getattr(args, "network", None) or " ".join(
            getattr(args, "networks", None) or ["input"])
        print(f"error: {source}: term nested too deeply (over the Python "
              f"recursion limit of {sys.getrecursionlimit()})",
              file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
