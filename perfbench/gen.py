"""Seeded program generator with answers known by construction.

Every definition comes from a template whose type under the default
configuration (FreezeML, variable strategy, value restriction on) is
fixed without running the checker:

* rows marked ✓ in the paper's Figure 1, with an earlier definition
  standing in for ``id``/``ids`` (``poly ~d``, ``single ~d``,
  ``revapp ~d poly``, ``map poly ds``, ...);
* ``sig``-annotated System F bindings (the B1/B2 rows as definitions);
* construction over the Figure 2 prelude: ``length``, ``fst``/``snd``,
  ``+``, ``choose``, ``::``/``++`` applied to earlier definitions of a
  known type.

``main`` is a nested pair of recent definitions, so its printed type is
known too.  A fixed share of programs carries one planted ill-typed
definition: a ✕ row of Figure 1, a negative example of Sections 2 and
3.2, or a ⋆ row with its mandatory freeze removed.  Those programs must
be rejected with a type error (``FML1xx``) located on the planted line.

The checker only ever sees the generated source text.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# -- the known types --------------------------------------------------------
#
# A type is a printed string plus whether it needs parentheses as a pair
# component (arrows, quantified types and pairs do).

INT, BOOL, INTF, ID, IDS, PAIR, PAIRS, HPOLY, HLIST = (
    "Int", "Bool", "Int -> Int", "forall a. a -> a", "List (forall a. a -> a)",
    "Int * Bool", "List (Int * Bool)", "(forall a. a -> a) -> Int * Bool",
    "List (forall a. a -> a) -> Int * Bool",
)
_COMPOUND = {INTF, ID, PAIR, HPOLY, HLIST}

#: What a kind means when no definition of it exists yet: a prelude
#: expression of exactly that type.
_FALLBACK = {
    INT: "1", BOOL: "true", INTF: "inc", ID: "id", IDS: "ids",
    PAIR: "poly ~id", PAIRS: "map poly ids", HPOLY: "poly",
    HLIST: "(fun (xs : List (forall a. a -> a)) -> poly (head xs))",
}


def pair_type(left: str, right: str, *, right_is_pair: bool = False) -> str:
    """How the checker prints ``left * right``: components that are
    arrows, quantified types or pairs are parenthesised."""
    wrap = lambda t: f"({t})" if t in _COMPOUND else t  # noqa: E731
    return f"{wrap(left)} * {f'({right})' if right_is_pair else wrap(right)}"


# -- templates ----------------------------------------------------------------
#
# (result kind, source lines).  ``{n}`` is the new name; ``{INT}`` etc.
# are references to earlier definitions of that kind; ``{LIT}`` is a
# small integer literal.  The comment names the row each one comes from.

TEMPLATES: tuple[tuple[str, str], ...] = (
    (ID, "sig {n} : forall a. a -> a\ndef {n} x = x"),          # System F binding
    (ID, "sig {n} : forall a. a -> a\ndef {n} x = {ID} x"),      # scoped, via earlier def
    (ID, "def {n} x = x"),                                       # let-generalised value
    (ID, "def {n} = $(fun x -> x)"),                             # F1
    (ID, "def {n} = fun x -> {ID} ({ID} x)"),                    # value, generalised
    (INT, "def {n} = length {IDS}"),                             # C1
    (INT, "def {n} = runST ~argST"),                             # D3
    (INT, "def {n} = app runST ~argST"),                         # D4
    (INT, "def {n} = {INTF} {INT}"),
    (INT, "def {n} = {ID} {INT}"),                               # Var instantiates
    (INT, "def {n} = fst {PAIR}"),
    (INT, "def {n} = {INT} + {INT}"),
    (INT, "def {n} = length {PAIRS}"),
    (INT, "def {n} = {LIT}"),
    (BOOL, "def {n} = snd {PAIR}"),
    (BOOL, "def {n} = not {BOOL}"),
    (BOOL, "def {n} = {ID} {BOOL}"),
    (BOOL, "def {n} = choose true {BOOL}"),
    (INTF, "def {n} x = x + {INT}"),
    (INTF, "sig {n} : Int -> Int\ndef {n} x = {INTF} x"),
    (INTF, "def {n} = choose inc {INTF}"),
    (PAIR, "def {n} = poly ~{ID}"),                              # A10
    (PAIR, "def {n} = app poly ~{ID}"),                          # D1
    (PAIR, "def {n} = revapp ~{ID} poly"),                       # D2
    (PAIR, "def {n} = poly $(fun x -> x)"),                      # A11
    (PAIR, "def {n} = id poly $(fun x -> x)"),                   # A12
    (PAIR, "def {n} = ({INT}, {BOOL})"),
    (PAIR, "def {n} = {HPOLY} ~{ID}"),                           # B1 applied
    (PAIR, "def {n} = {HLIST} {IDS}"),                           # B2 applied
    (IDS, "def {n} = single ~{ID}"),                             # C4*
    (IDS, "def {n} = ~{ID} :: {IDS}"),                           # C5
    (IDS, "def {n} = $(fun x -> x) :: {IDS}"),                   # C6
    (IDS, "def {n} = tail {IDS}"),                               # C2
    (IDS, "def {n} = {IDS} ++ {IDS}"),
    (IDS, "def {n} = choose [] {IDS}"),                          # A3
    (IDS, "def {n} = map head (single {IDS})"),                  # C10
    (PAIRS, "def {n} = map poly {IDS}"),                         # C9
    (PAIRS, "def {n} = single {PAIR}"),
    (HPOLY, "sig {n} : (forall a. a -> a) -> Int * Bool\ndef {n} f = (f {INT}, f {BOOL})"),  # B1
    (HPOLY, "sig {n} : (forall a. a -> a) -> Int * Bool\ndef {n} f = poly ~f"),               # A4*
    (HLIST, "sig {n} : List (forall a. a -> a) -> Int * Bool\ndef {n} xs = poly (head xs)"),  # B2
)

#: Planted ill-typed definitions (one line each).
DEFECTS: tuple[str, ...] = (
    "def {n} = choose id auto'",                 # A8 ✕
    "def {n} = auto {ID}",                       # `auto id` ✕ (Section 2)
    "def {n} = fun f -> (f 42, f true)",         # bad
    "def {n} = let f = fun x -> x in ~f 42",     # bad5
    "def {n} = poly {ID}",                       # A10 without its ⋆ freeze
    "def {n} = {INT} + {BOOL}",
    "def {n} = length {INT}",
)

#: Kinds ``main`` may combine (each printed as a pair component).
_MAIN_KINDS = (INT, BOOL, INTF, PAIR, IDS, PAIRS)

#: Share of programs that carry one planted defect.
PLANTED_SHARE = 0.2


@dataclass(frozen=True)
class Program:
    """A generated program and its known verdict.

    ``main_type`` is the printed type of ``main`` for a well-typed
    program; for a planted one it is ``None`` and ``defect_line`` is
    the 1-based line of the ill-typed definition."""

    name: str
    source: str
    defs: int
    main_type: str | None
    defect_line: int | None = None

    @property
    def ok(self) -> bool:
        return self.main_type is not None


def _fill(rng: random.Random, template: str, name: str, pool: dict[str, list[str]]) -> str:
    def ref(kind: str) -> str:
        names = pool.get(kind)
        return rng.choice(names) if names else _FALLBACK[kind]

    out = template.replace("{n}", name)
    while "{" in out:
        start = out.index("{")
        end = out.index("}", start)
        key = out[start + 1:end]
        value = str(rng.randint(0, 99)) if key == "LIT" else ref(
            {"INT": INT, "BOOL": BOOL, "INTF": INTF, "ID": ID, "IDS": IDS,
             "PAIR": PAIR, "PAIRS": PAIRS, "HPOLY": HPOLY, "HLIST": HLIST}[key]
        )
        out = out[:start] + _paren(value) + out[end + 1:]
    return out


def generate(rng: random.Random, name: str, defs: int, defect_at: int | None) -> Program:
    """One program of ``defs`` definitions (plus ``main``), with a
    planted defect as definition ``defect_at`` unless that is ``None``."""
    pool: dict[str, list[str]] = {}
    lines: list[str] = [f"# {name}: {defs} definitions"]
    planted = defect_at is not None
    defect_line = None
    deck: list[tuple[str, str]] = []
    for i in range(defs):
        def_name = f"d{i}"
        if i == defect_at:
            lines.append(_fill(rng, rng.choice(DEFECTS), def_name, pool))
            defect_line = len(lines)
            continue
        # Templates are dealt from a shuffled deck, so every program of a
        # given size has nearly the same mix of them (less seed noise).
        if not deck:
            deck = list(TEMPLATES)
            rng.shuffle(deck)
        kind, template = deck.pop()
        lines.extend(_fill(rng, template, def_name, pool).split("\n"))
        pool.setdefault(kind, []).append(def_name)
    parts = []
    for _ in range(3):
        kind = rng.choice(_MAIN_KINDS)
        parts.append((kind, pool[kind][-1] if kind in pool else _FALLBACK[kind]))
    (k1, e1), (k2, e2), (k3, e3) = parts
    lines.append(f"main = ({_paren(e1)}, ({_paren(e2)}, {_paren(e3)}))")
    main_type = None if planted else pair_type(
        k1, pair_type(k2, k3), right_is_pair=True
    )
    return Program(name, "\n".join(lines) + "\n", defs, main_type, defect_line)


def _paren(expr: str) -> str:
    """Parenthesise a compound reference so it stays one argument."""
    return f"({expr})" if " " in expr and not expr.startswith("(") else expr


def program_set(seed: int, tag: str, count: int, lo: int, hi: int) -> list[Program]:
    """``count`` programs whose sizes are stratified log-uniform over
    ``[lo, hi]`` definitions (the midpoint of each of ``count`` equal
    strata of ``log(size)``), in seeded order.
    One stratum in every ``1 / PLANTED_SHARE`` carries a planted
    defect.  Sizes, which strata are planted and the definition each
    defect replaces are the same for every seed; only the content and
    the order vary.  So every seed has the same number of programs
    that outgrow the recursion limit before their defect is reached,
    and the failure count of a run does not depend on the seed."""
    rng = random.Random(f"{tag}:{seed}")
    sizes = [
        round(lo * math.exp(math.log(hi / lo) * (i + 0.5) / count))
        for i in range(count)
    ]
    # Every k-th size stratum is planted, so the planted programs spread
    # evenly over the size range.
    period = round(1 / PLANTED_SHARE)
    defect_at = {
        i: random.Random(f"{tag}:defect:{i}").randrange(sizes[i])
        for i in range(period // 2, count, period)
    }
    order = list(range(count))
    rng.shuffle(order)
    return [
        generate(rng, f"{tag}-{seed}-{slot}", sizes[i], defect_at.get(i))
        for slot, i in enumerate(order)
    ]


#: Figure 1 rows (and the Section 2 negatives) as bare terms, with the
#: paper's verdict in the checker's printed syntax (``None`` = ✕).
#: Serving traffic repeats these, so they are the cache-hit path.
FIGURE1: tuple[tuple[str, str, str | None], ...] = (
    ("A3", "choose [] ids", IDS),
    ("A5", "id auto", "(forall a. a -> a) -> (forall a. a -> a)"),
    ("A7", "choose id auto", "(forall a. a -> a) -> (forall a. a -> a)"),
    ("A8", "choose id auto'", None),
    ("A10", "poly ~id", PAIR),
    ("A11", "poly $(fun x -> x)", PAIR),
    ("B1", "fun (f : forall a. a -> a) -> (f 1, f true)", HPOLY),
    ("C1", "length ids", INT),
    ("C2", "tail ids", IDS),
    ("C3", "head ids", ID),
    ("C4*", "single ~id", IDS),
    ("C5", "~id :: ids", IDS),
    ("C7", "single inc ++ single id", "List (Int -> Int)"),
    ("C9", "map poly (single ~id)", PAIRS),
    ("D1", "app poly ~id", PAIR),
    ("D2", "revapp ~id poly", PAIR),
    ("D3", "runST ~argST", INT),
    ("D5", "revapp ~argST runST", INT),
    ("F5", "auto ~id", ID),
    ("F7", "(head ids)@ 3", INT),
    ("F9", "let f = revapp ~id in f poly", PAIR),
    ("auto-id", "auto id", None),
    ("bad", "fun f -> (f 42, f true)", None),
    ("bad5", "let f = fun x -> x in ~f 42", None),
)


def figure1_program(index: int) -> Program:
    """Figure 1 row ``index`` as a one-line bare-term program."""
    row, source, expected = FIGURE1[index % len(FIGURE1)]
    return Program(f"fig1-{row}", source + "\n", 0, expected, None if expected else 1)
