"""Shared helpers for the test suite."""

from __future__ import annotations

import sys
from contextlib import contextmanager

from repro.core.env import TypeEnv
from repro.core.infer import infer_type
from repro.core.kinds import Kind, KindEnv
from repro.corpus.compare import equivalent_types
from repro.corpus.signatures import prelude
from repro.syntax.parser import parse_term, parse_type

PRELUDE = prelude()


def t(source: str):
    """Parse a type."""
    return parse_type(source)


def e(source: str):
    """Parse a term."""
    return parse_term(source)


def infer(source: str, env: TypeEnv | None = None, **options):
    """Parse + infer against the prelude (or a given env)."""
    return infer_type(parse_term(source), PRELUDE if env is None else env, **options)


def assert_infers(source: str, expected: str, env: TypeEnv | None = None, **options):
    actual = infer(source, env, **options)
    assert equivalent_types(actual, t(expected)), (
        f"{source}\n  expected: {expected}\n  actual:   {actual}"
    )


def fixed(*names: str) -> KindEnv:
    return KindEnv((n, Kind.MONO) for n in names)


def flexible(**kinds: str) -> KindEnv:
    return KindEnv(
        (n, Kind.MONO if k in ("mono", "•") else Kind.POLY) for n, k in kinds.items()
    )


@contextmanager
def recursion_limit(limit: int):
    """Run the block under ``sys.setrecursionlimit(limit)``."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)
