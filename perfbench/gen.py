"""Seeded input generators for the three benchmark workloads.

Everything here is plain Python over ``random.Random(seed)``: the program
under test only ever sees the generated ``.sus`` text (``certify-cold``,
``chaos-cold``) or the generated contract terms (``discover-warm``), and
every known answer is derived from how the input was built, never from
running the program.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field

#: The broker's nested hotel request.  Client request ids are 1..3, so
#: they never collide with it -- except in the request-id-reuse probes.
BROKER_REQUEST = 9

CLIENT_SESSION = "!Req . (?CoBo . !Pay + ?NoAv)"
BROKER_TAIL = "(!CoBo . ?Pay ++ !NoAv)"


# -- protocol shapes (the S1 wide_client / wide_server family) --------------

def wide_client(width: int, depth: int) -> str:
    """*depth* rounds of an internal choice among *width* messages, each
    answered by one of *width* branch-specific acknowledgements."""
    term = ""
    for level in range(depth):
        tail = f" . {term}" if term else ""
        answers = " + ".join(f"?ans_{level}_{i} . !fin_{level}_{i}{tail}"
                             for i in range(width))
        term = "(" + " ++ ".join(f"!msg_{level}_{i} . ({answers})"
                                 for i in range(width)) + ")"
    return term


def wide_server(width: int, depth: int, surprise: int | None = None) -> str:
    """The dual of :func:`wide_client`.  With *surprise* set, round
    *surprise* (counted inside-out, 0 = deepest) also sends one answer the
    client never handles, so the pair is not compliant."""
    term = ""
    for level in range(depth):
        tail = f" . {term}" if term else ""
        replies = [f"!ans_{level}_{i} . ?fin_{level}_{i}{tail}"
                   for i in range(width)]
        if level == surprise:
            replies.append(f"!surprise_{level}")
        choice = " ++ ".join(replies)
        term = "(" + " + ".join(f"?msg_{level}_{i} . ({choice})"
                                for i in range(width)) + ")"
    return term


# -- certify-cold ------------------------------------------------------------

#: (clients, hotels, width, depth) shapes cycled through by every seed, so
#: the size mix -- and with it the latency quantiles -- is the same for
#: every seed; the seed varies policies, hotel data and defects.  A
#: quarter of the ops are the wider or deeper shapes, which set
#: ``op_p90_ms``; the rest set ``op_p50_ms``.
CERTIFY_SHAPES = (
    (1, 3, 2, 2), (2, 3, 2, 2), (1, 4, 2, 2), (3, 3, 2, 2),
    (1, 3, 2, 2), (2, 4, 2, 2), (1, 5, 2, 2), (2, 3, 2, 2),
    (1, 3, 2, 2), (1, 3, 3, 2), (2, 3, 2, 3), (1, 4, 2, 3),
)


@dataclass
class Hotel:
    name: str
    sgn: int
    price: int
    rating: int
    surprise: int | None  # None: complies with the broker


@dataclass
class Client:
    name: str
    request: int
    blacklist: tuple[int, ...]
    price: int
    rating: int


@dataclass
class CertifyCase:
    """One generated module and its known ``repro analyze`` answer."""

    name: str
    source: str
    compliant: dict = field(default_factory=dict)  # (owner, req, svc) -> bool
    plans: dict = field(default_factory=dict)      # client -> has valid plan
    ok: bool = True
    exit_code: int = 0


def secure(client: Client, hotel: Hotel) -> bool:
    """φ(bl, p, t) of Figure 1 accepts the hotel's events iff its
    signature is not black-listed and it is not both over price and under
    rating."""
    return (hotel.sgn not in client.blacklist
            and not (hotel.price > client.price
                     and hotel.rating < client.rating))


def _policy_for(rng: random.Random, hotels: list[Hotel],
                want_plan: bool) -> tuple[tuple[int, ...], int, int]:
    """Black list and thresholds that leave some compliant hotel secure
    (*want_plan*) or none."""
    good = [h for h in hotels if h.surprise is None]
    if want_plan and good:
        chosen = rng.choice(good)
        others = [h.sgn for h in hotels if h is not chosen]
        blacklist = tuple(sorted(rng.sample(others,
                                            rng.randint(0, len(others)))))
        if rng.random() < 0.5:
            return blacklist, chosen.price + rng.randint(0, 20), \
                rng.randint(50, 100)
        return blacklist, rng.randint(30, 100), \
            chosen.rating - rng.randint(0, 20)
    # No plan: black-list some compliant hotels, price the rest out.
    blacklist = tuple(sorted(h.sgn for h in good if rng.random() < 0.5))
    rest = [h for h in good if h.sgn not in blacklist]
    price = min((h.price for h in rest), default=100) - 1
    rating = max((h.rating for h in rest), default=50) + 1
    return blacklist, price, rating


def certify_module(rng: random.Random, name: str, clients: int,
                   hotels: int, width: int, depth: int,
                   number: int = 0) -> CertifyCase:
    """A Figure-2 booking module scaled up: *clients* clients behind one
    broker whose nested request fans out to *hotels* hotels speaking the
    width x depth protocol.  Planted defects: deep and shallow
    non-compliance, black-listed hotels, hotels over price and under
    rating, and clients left without a valid plan.  How many of each is
    fixed by the shape and the module's *number*; the seed picks which
    hotels and clients, and all the data."""
    defects = max(1, round(0.4 * hotels))
    surprises = [None] * (hotels - defects) + [
        (0, depth - 1)[(number + k) % 2] for k in range(defects)]
    rng.shuffle(surprises)
    hotel_list = [Hotel(f"ls{index}", index, rng.randint(30, 100),
                        rng.randint(50, 100), surprise)
                  for index, surprise in enumerate(surprises, start=1)]
    client_list = []
    for index in range(1, clients + 1):
        blacklist, price, rating = _policy_for(
            rng, hotel_list, (number + index) % 4 != 0)
        client_list.append(Client(f"lc{index}", index, blacklist, price,
                                  rating))
    return _certify_case(name, client_list, hotel_list, width, depth)


def _certify_case(name: str, clients: list[Client], hotels: list[Hotel],
                  width: int, depth: int) -> CertifyCase:
    lines = [f"# perfbench certify-cold module {name}"]
    for client in clients:
        bl = ", ".join(str(s) for s in client.blacklist)
        lines.append(f"policy phi{client.request} = hotel(bl = {{{bl}}}, "
                     f"p = {client.price}, t = {client.rating})")
    for client in clients:
        lines.append(f"client {client.name} = open {client.request} with "
                     f"phi{client.request} {{ {CLIENT_SESSION} }}")
    lines.append(f"service lbr = ?Req ; open {BROKER_REQUEST} "
                 f"{{ {wide_client(width, depth)} }} ; {BROKER_TAIL}")
    for hotel in hotels:
        lines.append(f"service {hotel.name} = @sgn({hotel.sgn}) ; "
                     f"@p({hotel.price}) ; @ta({hotel.rating}) ; "
                     f"{wide_server(width, depth, hotel.surprise)}")
    case = CertifyCase(name, "\n".join(lines) + "\n")
    services = ["lbr"] + [hotel.name for hotel in hotels]
    for client in clients:
        for service in services:
            case.compliant[(client.name, str(client.request), service)] = \
                service == "lbr"
    for service in services:
        case.compliant[("lbr", str(BROKER_REQUEST), service)] = any(
            h.name == service and h.surprise is None for h in hotels)
    for client in clients:
        case.plans[client.name] = any(
            h.surprise is None and secure(client, h) for h in hotels)
    case.ok = all(case.plans.values())
    case.exit_code = 0 if case.ok else 1
    return case


def certify_inputs(seed: int, count: int) -> list[CertifyCase]:
    """*count* modules cycling through :data:`CERTIFY_SHAPES`."""
    rng = random.Random(f"certify-cold/{seed}")
    return [certify_module(rng, f"m{index:03d}",
                           *CERTIFY_SHAPES[index % len(CERTIFY_SHAPES)],
                           number=index)
            for index in range(count)]


def request_id_reuse_module(rng: random.Random, name: str) -> str:
    """The source of a module whose client reuses the broker's nested
    request id, so a plan cannot route the client's session to the
    broker and the broker's session to a hotel; ``repro simulate`` gets
    stuck on it.  The known answer is "not accepted" (exit 1 or 2)."""
    hotels = [Hotel(f"ls{i}", i, rng.randint(30, 60), rng.randint(80, 100),
                    None) for i in range(1, 3)]
    client = Client("lc1", BROKER_REQUEST, (), 100, 50)
    return _certify_case(name, [client], hotels, 2, 2).source


# -- chaos-cold --------------------------------------------------------------

#: (clients, requests per client) shapes cycled through by every seed.
#: Two thirds of the ops are one-client networks, so ``op_p50_ms`` lies
#: inside their mode and ``op_p90_ms`` inside the two-client one rather
#: than on the boundary between them.
CHAOS_SHAPES = ((1, 2), (1, 2), (2, 2))


@dataclass
class ChaosCase:
    name: str
    source: str
    seed: int


def chaos_module(rng: random.Random, name: str, clients: int,
                 requests: int) -> ChaosCase:
    """A resilient booking network: every request has two interchangeable
    brokers and every broker session two hotels the policy accepts, and
    each client opens *requests* sequential requests with unique ids."""
    lines = [f"# perfbench chaos-cold module {name}",
             "policy phi = hotel(bl = {1}, p = 60, t = 80)"]
    for index in range(1, clients + 1):
        ids = [10 * index + r for r in range(requests)]
        body = " ; ".join(f"open {rid} with phi {{ {CLIENT_SESSION} }}"
                          for rid in ids)
        lines.append(f"client lc{index} = {body}")
    for broker in ("lbr1", "lbr2"):
        lines.append(f"service {broker} = ?Req ; open 3 "
                     f"{{ !IdC . (?Bok + ?UnA) }} ; {BROKER_TAIL}")
    for index, sgn in enumerate(rng.sample(range(2, 9), 2), start=1):
        lines.append(f"service ls{index} = @sgn({sgn}) ; "
                     f"@p({rng.randint(30, 60)}) ; @ta({rng.randint(80, 100)})"
                     f" ; ?IdC . (!Bok ++ !UnA)")
    return ChaosCase(name, "\n".join(lines) + "\n",
                     rng.randrange(1, 10 ** 6))


def chaos_inputs(seed: int, count: int) -> list[ChaosCase]:
    rng = random.Random(f"chaos-cold/{seed}")
    return [chaos_module(rng, f"c{index:03d}",
                         *CHAOS_SHAPES[index % len(CHAOS_SHAPES)])
            for index in range(count)]


# -- discover-warm -----------------------------------------------------------

CHANNELS = "abcdefgh"


def contract(rng: random.Random, depth: int, kind: int | None = None):
    """A contract of the S4 registry family as a nested tuple:
    ``("eps",)``, ``("int"|"ext", ((chan, cont), ...))``, ``("mu", pol,
    chan, cont)`` (a binder over a one-branch choice of polarity *pol*)
    or ``("seq", first, second)``; *kind* (0-3, in that order) fixes the
    top-level node."""
    if depth == 0:
        return ("eps",)
    if kind is None:
        kind = rng.randrange(4)
    chans = rng.sample(CHANNELS, rng.randint(1, 3))
    if kind < 2:
        return ("int" if kind == 0 else "ext",
                tuple((c, contract(rng, depth - 1)) for c in chans))
    if kind == 2:
        return ("mu", "int", chans[0], contract(rng, depth - 1))
    return ("seq", contract(rng, depth - 1), contract(rng, depth - 1))


def dual(spec):
    """Swap inputs and outputs (the client every member complies with)."""
    kind = spec[0]
    flip = {"int": "ext", "ext": "int"}
    if kind == "eps":
        return spec
    if kind in flip:
        return (flip[kind], tuple((c, dual(cont)) for c, cont in spec[1]))
    if kind == "mu":
        return ("mu", flip[spec[1]], spec[2], dual(spec[3]))
    return ("seq", dual(spec[1]), dual(spec[2]))


def has_action(spec) -> bool:
    if spec[0] in ("int", "ext", "mu"):
        return True
    return spec[0] == "seq" and (has_action(spec[1]) or has_action(spec[2]))


def service_contracts(rng: random.Random, max_depth: int):
    """Contracts of the family with at least one action, cycling through
    every (depth, top-level kind) class so each seed draws the same mix
    of shapes.  Action-free contracts behave as ``eps``, which complies
    with and is refined by every entry: one such query checks the whole
    registry."""
    # A depth-1 seq is seq(eps, eps), which never has an action.
    classes = [(depth, kind) for depth in range(1, max_depth + 1)
               for kind in range(4) if (depth, kind) != (1, 3)]
    for depth, kind in itertools.cycle(classes):
        while True:
            spec = contract(rng, depth, kind)
            if has_action(spec):
                yield spec
                break


@dataclass
class DiscoverInputs:
    members: list   # (name, spec) registered at set-up
    ops: list       # (kind, name, spec, expect): expect is a member name
    #                 the query must match, or None


#: Op mix of the discover-warm stream, as (kind, weight).
DISCOVER_MIX = (("compliant-dual", 25), ("compliant-fresh", 10),
                ("substitutable-member", 25), ("substitutable-fresh", 10),
                ("add", 10), ("update", 10), ("repeat", 10))


#: A repeated query re-asks one of the last this many queries, so the
#: share of answers the verdict memo already holds stays level over a run.
REPEAT_WINDOW = 64


def discover_inputs(seed: int, members: int, ops: int) -> DiscoverInputs:
    """*members* contracts registered at set-up, then a stream of *ops*
    queries and writes.  A dual-of-member query expects its member among
    the matches and a member query expects the member itself; the
    generator tracks the registry contents so a repeated query keeps its
    expectation only while its member is unchanged.  Members are queried
    in a shuffled order, each at most once per kind until all have been,
    so an op late in the stream is no likelier than an early one to find
    its answer memoised."""
    rng = random.Random(f"discover-warm/{seed}")
    services = service_contracts(rng, 4)
    fresh = service_contracts(rng, 3)
    population = [(f"svc{index:05d}", next(services))
                  for index in range(members)]
    current = dict(population)
    names = [name for name, _ in population]
    unasked: dict[str, list] = {"compliant-dual": [],
                                "substitutable-member": []}
    kinds = [kind for kind, weight in DISCOVER_MIX for _ in range(weight)]
    stream: list = []
    queries: list = []
    for _ in range(ops):
        kind = rng.choice(kinds)
        if kind == "repeat" and queries:
            query, name, spec, expect = rng.choice(queries[-REPEAT_WINDOW:])
            if expect is not None and current[expect] not in (spec,
                                                              dual(spec)):
                expect = None
            stream.append((query, name, spec, expect))
            continue
        if kind == "repeat":
            kind = "substitutable-member"
        if kind in unasked:
            if not unasked[kind]:
                unasked[kind] = rng.sample(names, len(names))
            name = unasked[kind].pop()
            if kind == "compliant-dual":
                op = ("compliant", name, dual(current[name]), name)
            else:
                op = ("substitutable", name, current[name], name)
            queries.append(op)
        elif kind in ("compliant-fresh", "substitutable-fresh"):
            op = (kind.split("-")[0], None, next(fresh), None)
            queries.append(op)
        elif kind == "add":
            name = f"new{len(names):05d}"
            names.append(name)
            current[name] = next(services)
            op = ("add", name, current[name], None)
        else:
            name = rng.choice(names)
            current[name] = next(services)
            op = ("update", name, current[name], None)
        stream.append(op)
    return DiscoverInputs(population, stream)


def digest(payload) -> str:
    """A short digest of generated inputs, printed so two runs can show
    they used the same traffic."""
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
