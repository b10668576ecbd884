"""Induction of how-parts: compositions of primitive functions that
reproduce a demonstrated value.

Set chaining evaluates the primitive functions in waves over the set of
unique values seen so far, recording every (function, argument-values) way
each new value is produced.  Once the goal value appears, all grounded
compositions are rebuilt by tracing the records backward.  Values are
strings throughout; numeric primitives parse to int and are inapplicable
on parse failure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class PrimitiveFunction:
    name: str
    arity: int
    apply: callable  # (*str) -> str | None


def _as_int(s: str) -> int | None:
    if s and (s.isdigit() or (s[0] == "-" and s[1:].isdigit())):
        return int(s)
    return None


def _numeric(fn):
    def wrapped(*args):
        ints = [_as_int(a) for a in args]
        if any(v is None for v in ints):
            return None
        return str(fn(*ints))

    return wrapped


ADD = PrimitiveFunction("Add", 2, _numeric(lambda a, b: a + b))
MULTIPLY = PrimitiveFunction("Multiply", 2, _numeric(lambda a, b: a * b))
ADD3 = PrimitiveFunction("Add3", 3, _numeric(lambda a, b, c: a + b + c))
ONES_DIGIT = PrimitiveFunction("OnesDigit", 1, _numeric(lambda a: abs(a) % 10))
TENS_DIGIT = PrimitiveFunction("TensDigit", 1, _numeric(lambda a: (abs(a) // 10) % 10))

FRACTIONS_FUNCS = [ADD, MULTIPLY]
MC_ADDITION_FUNCS = [ONES_DIGIT, TENS_DIGIT, ADD3, ADD]


@dataclass(frozen=True)
class Composition:
    """Term tree: a function call, an element/variable leaf, or a constant."""

    fn: str | None = None
    args: tuple["Composition", ...] = ()
    ref: str | None = None  # element id (grounded) or "ArgN" (variablized)
    const: str | None = None

    @staticmethod
    def call(fn: str, args) -> "Composition":
        return Composition(fn=fn, args=tuple(args))

    @staticmethod
    def leaf(ref: str) -> "Composition":
        return Composition(ref=ref)

    @staticmethod
    def constant(value: str) -> "Composition":
        return Composition(const=value)

    def render(self) -> str:
        if self.fn is not None:
            return f"{self.fn}({','.join(a.render() for a in self.args)})"
        if self.ref is not None:
            return self.ref
        return f'"{self.const}"'

    def n_ops(self) -> int:
        if self.fn is None:
            return 0
        return 1 + sum(a.n_ops() for a in self.args)

    def leaf_refs(self) -> list[str]:
        """Leaf references in left-to-right order, with repeats."""
        if self.fn is not None:
            return [r for a in self.args for r in a.leaf_refs()]
        if self.ref is not None:
            return [self.ref]
        return []

    def depth(self) -> int:
        if self.fn is None:
            return 0
        return 1 + max(a.depth() for a in self.args)


def set_chaining(
    goal: str,
    leaves: list[tuple[str, str]],
    funcs: list[PrimitiveFunction],
    max_depth: int = 2,
) -> list[Composition] | None:
    """All grounded compositions reaching `goal` at the earliest wave.

    Returns None if the goal is not producible within `max_depth` waves.
    Values rediscovered at later waves are not re-recorded, so every
    subterm of a returned composition is a minimal-depth derivation of its
    value.
    """
    sources: dict[str, list[str]] = {}
    for eid, value in leaves:
        sources.setdefault(value, []).append(eid)
    wave = {v: 0 for v in sources}
    records: dict[str, list[tuple[str, tuple[str, ...]]]] = {v: [] for v in sources}
    if goal in wave:
        return _backtrace(goal, sources, records, {})

    for _k in range(1, max_depth + 1):
        vals = sorted(wave)
        new: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
        for f in funcs:
            for argvals in itertools.product(vals, repeat=f.arity):
                out = f.apply(*argvals)
                if out is None or out in wave:
                    continue
                new.setdefault(out, []).append((f.name, argvals))
        for v, recs in new.items():
            wave[v] = _k
            records[v] = recs
        if goal in new:
            return _backtrace(goal, sources, records, {})
    return None


def _backtrace(value: str, sources: dict, records: dict, memo: dict) -> list[Composition]:
    """Every composition that derives `value` from the recorded waves."""
    if value in memo:
        return memo[value]
    comps = [Composition.leaf(eid) for eid in sources.get(value, [])]
    for fn_name, argvals in records.get(value, []):
        subs = (_backtrace(a, sources, records, memo) for a in argvals)
        for sub in itertools.product(*subs):
            comps.append(Composition.call(fn_name, sub))
    memo[value] = comps
    return comps


def select_parsimonious(candidates: list[Composition]) -> Composition:
    """Fewest operations, then fewest distinct leaves, then rendering."""
    if not candidates:
        raise ValueError("no candidate compositions")
    return min(
        candidates,
        key=lambda c: (c.n_ops(), len(set(c.leaf_refs())), c.render()),
    )


def variablize(comp: Composition) -> tuple[Composition, list[str]]:
    """Replace leaf element references with Arg0..ArgN by first occurrence."""
    mapping: dict[str, str] = {}

    def walk(c: Composition) -> Composition:
        if c.fn is not None:
            return Composition.call(c.fn, [walk(a) for a in c.args])
        if c.ref is not None:
            if c.ref not in mapping:
                mapping[c.ref] = f"Arg{len(mapping)}"
            return Composition.leaf(mapping[c.ref])
        return c

    return walk(comp), list(mapping)


def constant_howpart(value: str) -> Composition:
    return Composition.constant(value)


def evaluate(
    howpart: Composition,
    binding: tuple[str, ...] | list[str],
    state,
    funcs: list[PrimitiveFunction],
) -> str | None:
    """Evaluate a variablized how-part against bound element values.

    Returns None when inapplicable: an empty bound value or a failing
    primitive (e.g. non-numeric parse).
    """
    by_name = {f.name: f.apply for f in funcs}

    values = []
    for eid in binding:
        v = state.value(eid)
        if v == "":
            return None
        values.append(v)

    n_vars = len({r for r in howpart.leaf_refs()})
    if n_vars != len(values):
        raise ValueError("binding arity mismatch")
    return _apply(howpart, values, by_name)


def _apply(c: Composition, values: list[str], by_name: dict) -> str | None:
    if c.const is not None:
        return c.const
    if c.ref is not None:
        i = int(c.ref[3:])
        if i >= len(values):
            raise ValueError("binding arity mismatch")
        return values[i]
    sub = [_apply(a, values, by_name) for a in c.args]
    if any(s is None for s in sub):
        return None
    return by_name[c.fn](*sub)
