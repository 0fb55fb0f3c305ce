"""Dotted compositions: the index set of every basis in this package.

A dotted composition is a finite sequence of parts, each either a positive
integer or a "dotted" nonnegative integer (d0 is legal).  Total degree n sums
the values, fermionic degree m counts the dots.  This module carries the two
refinement orders, the D/E/F set coordinates, and the structural operations
(reverse, concatenation, near concatenation, column decomposition).
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional


class CompositionParseError(ValueError):
    """Raised on malformed composition text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position
        self.message = message


class InconsistentDefSetsError(ValueError):
    """Raised when (n, m, D, F) does not describe any dotted composition."""


class DottedPart(NamedTuple):
    value: int
    dotted: bool

    def __str__(self) -> str:
        return f"d{self.value}" if self.dotted else str(self.value)

    def latex(self) -> str:
        return rf"\dot{{{self.value}}}" if self.dotted else str(self.value)

    def to_json(self) -> dict:
        return {"v": self.value, "dot": self.dotted}


def _as_int(v) -> int:
    """v as an int: only a number equal to its int is one, so that a bool is
    not read as 0/1, text such as "3" is not parsed, and 2.5 is not cut to 2."""
    if type(v) is int:
        return v
    if isinstance(v, bool) or not isinstance(v, numbers.Number):
        raise TypeError(f"expected an integer, got {v!r}")
    i = int(v)
    if i != v:
        raise ValueError(f"expected an integer, got {v!r}")
    return i


def _as_flag(f) -> bool:
    """f as a dot flag: only a bool or the int 0 or 1 is one, so that an
    object such as "False" or None is refused rather than read by its truth
    value."""
    if isinstance(f, bool):
        return f
    if type(f) is int and f in (0, 1):
        return f == 1
    raise TypeError(f"expected a bool dot flag, got {f!r}")


def _coerce_part(p, min_plain: int = 1) -> DottedPart:
    """Read a part from a DottedPart, a (value, dotted) pair, an int or text
    like "d3"; a non-dotted value below `min_plain` is rejected."""
    if isinstance(p, DottedPart):
        part = p
    elif isinstance(p, tuple) and len(p) == 2:
        part = DottedPart(_as_int(p[0]), _as_flag(p[1]))
    elif isinstance(p, int) and not isinstance(p, bool):
        part = DottedPart(p, False)
    elif isinstance(p, str):
        parts, _ = _scan(p, 0, "")
        if len(parts) != 1:
            raise ValueError(f"expected one dotted part, got {p!r}")
        part = parts[0]
    else:
        raise TypeError(f"cannot interpret {p!r} as a dotted part")
    if part.dotted:
        if part.value < 0:
            raise ValueError(f"dotted part must be >= 0, got {part.value}")
    elif part.value < min_plain:
        raise ValueError(f"non-dotted part must be >= {min_plain}, got {part.value}")
    return part


class DottedComposition(tuple):
    """Immutable tuple of dotted parts; hashable, usable as a basis key."""

    __slots__ = ()

    def __new__(cls, parts: Iterable = ()):
        return tuple.__new__(cls, (_coerce_part(p) for p in parts))

    # wraps a tuple of valid DottedParts the package built itself, without
    # re-reading them
    _of = classmethod(tuple.__new__)

    @property
    def parts(self) -> tuple[DottedPart, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return str(self)

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self) + "]"

    # -- statistics ----------------------------------------------------------

    @property
    def length(self) -> int:
        return len(self)

    @property
    def total_degree(self) -> int:
        return sum(p.value for p in self)

    @property
    def fermionic_degree(self) -> int:
        return sum(1 for p in self if p.dotted)

    def degrees(self) -> tuple[int, int]:
        """(n, m) with alpha |- (n, m)."""
        return (self.total_degree, self.fermionic_degree)

    def eta(self) -> tuple[int, ...]:
        """0/1 indicator of dotted positions."""
        return tuple(1 if p.dotted else 0 for p in self)

    def is_empty(self) -> bool:
        return not self

    # -- structural operations ------------------------------------------------

    def reverse(self) -> "DottedComposition":
        return DottedComposition._of(self[::-1])

    def concat(self, other: "DottedComposition") -> "DottedComposition":
        return DottedComposition._of(self + other)

    def sort_key(self) -> tuple:
        # dotted sorts before non-dotted at equal value, for stable output
        return tuple((p.value, 0 if p.dotted else 1) for p in self)

    # -- text / json ----------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "DottedComposition":
        return parse_composition(text)

    def latex(self) -> str:
        return "(" + ",".join(p.latex() for p in self) + ")"

    def to_json(self) -> list[dict]:
        return [p.to_json() for p in self]

    @classmethod
    def from_json(cls, data: list[dict]) -> "DottedComposition":
        return cls((d["v"], d["dot"]) for d in data)


EMPTY = DottedComposition()


def comp(*parts) -> DottedComposition:
    """Shorthand constructor: comp(2, "d3", 1) == [2,d3,1]."""
    return DottedComposition(parts)


def _scan(text: str, i: int, close: str, error=CompositionParseError, dots=True, plain_zero=True):
    """The parts of the comma-separated list in `text` from index i up to the
    first `close` ("" for the end of text), and the index after that.  A
    part is ASCII digits, after a "d" where `dots` allows one, and whitespace
    may sit around any item; the parts are DottedParts, or ints where `dots`
    is false.  The first fault, a non-dotted 0 included where `plain_zero` is
    false, raises error(message, position) at its character."""
    end = text.find(close, i) if close else len(text)
    body = text[i:] if end < 0 else text[i:end]
    parts: list = []
    if body.strip() or end < 0:
        for piece in body.split(","):
            s = piece.strip()
            dot = dots and s.startswith("d")
            digits = s[1:] if dot else s
            if not (digits.isascii() and digits.isdigit() and (dot or plain_zero or int(digits))):
                raise error(*_fault(piece, i, close, dots, plain_zero))
            parts.append(DottedPart(int(digits), dot) if dots else int(digits))
            i += len(piece) + 1
    if end < 0:
        raise error(f"expected ',' or {close!r}", len(text))
    return parts, end + 1


def _fault(piece: str, at: int, close: str, dots: bool, plain_zero: bool) -> tuple[str, int]:
    """The message and position of the first fault in `piece`, the list item
    that starts at index `at`."""
    j = len(piece) - len(piece.lstrip())
    dot = dots and piece.startswith("d", j)
    j += 1 if dot else 0
    k = j
    while k < len(piece) and "0" <= piece[k] <= "9":
        k += 1
    if k == j:
        return "expected digit", at + j
    if not (dot or plain_zero or int(piece[j:k])):
        return "non-dotted part must be >= 1, got 0", at + j
    k = len(piece) - len(piece[k:].lstrip())
    return f"expected ',' or {repr(close) if close else 'end of text'}", at + k


def _end(text: str, i: int, error=CompositionParseError) -> None:
    """Refuse anything but whitespace from index i on."""
    if text[i:].strip():
        raise error("trailing input", len(text) - len(text[i:].lstrip()))


def _composition_at(text: str, i: int) -> DottedComposition:
    """The composition text[i:] spells; positions count in `text`."""
    i = len(text) - len(text[i:].lstrip())
    if not text.startswith("[", i):
        raise CompositionParseError("expected '['", i)
    parts, i = _scan(text, i + 1, "]", plain_zero=False)
    _end(text, i)
    return DottedComposition._of(tuple(parts))


def parse_composition(text: str) -> DottedComposition:
    """Read text such as "[2,d3,1]"; a fault raises CompositionParseError."""
    return _composition_at(text, 0)


# ---------------------------------------------------------------------------
# D / E / F coordinates


@dataclass(frozen=True)
class DefSets:
    D: frozenset[int]
    E: frozenset[int]
    F: frozenset[int]
    Fminus: frozenset[int]


def def_sets(alpha: DottedComposition) -> DefSets:
    """Partial-sum coordinates of alpha (positions run over 1..n+m)."""
    D: list[int] = []
    E: list[int] = []
    F: list[int] = []
    acc = 0
    for i, p in enumerate(alpha):
        prev = acc
        acc += p.value + (1 if p.dotted else 0)
        if p.dotted:
            E.extend(range(prev + 1, acc))
            F.append(acc)
        if i < len(alpha) - 1:
            D.append(acc)
    fset = frozenset(F)
    fminus = fset
    if F and F[-1] not in D:
        fminus = fset - {F[-1]}
    return DefSets(frozenset(D), frozenset(E), fset, fminus)


def from_def_sets(n: int, m: int, D: Iterable[int], F: Iterable[int]) -> DottedComposition:
    """Inverse of def_sets at fixed bidegree (n, m)."""
    if n < 0 or m < 0:
        raise InconsistentDefSetsError(f"bidegree must be >= 0, got ({n}, {m})")
    total = n + m
    Dset = frozenset(D)
    Fset = frozenset(F)
    if len(Fset) != m:
        raise InconsistentDefSetsError(f"F must have {m} elements, got {len(Fset)}")
    if any(not (1 <= d <= total - 1) for d in Dset):
        raise InconsistentDefSetsError(f"D must lie in 1..{total - 1}")
    if not Fset <= Dset | {total}:
        raise InconsistentDefSetsError("F must be contained in D plus the endpoint")
    cuts = sorted(Dset) + [total] if total > 0 else []
    if total == 0:
        if Dset or Fset:
            raise InconsistentDefSetsError("empty bidegree admits no cut points")
        return EMPTY
    parts: list[DottedPart] = []
    prev = 0
    for c in cuts:
        if c in Fset:
            parts.append(DottedPart(c - prev - 1, True))
        else:
            parts.append(DottedPart(c - prev, False))
        prev = c
    return DottedComposition._of(tuple(parts))


# ---------------------------------------------------------------------------
# the two partial orders


def strong_leq(beta: DottedComposition, alpha: DottedComposition) -> bool:
    """beta strongly refines alpha (adds of adjacent non-dotted pairs)."""
    if beta.degrees() != alpha.degrees():
        return False
    sa, sb = def_sets(alpha), def_sets(beta)
    return sa.D <= sb.D and sa.E == sb.E and sa.F == sb.F


def weak_leq(beta: DottedComposition, alpha: DottedComposition) -> bool:
    """beta weakly refines alpha: alpha groups beta into consecutive blocks,
    each holding at most one dotted part, block dotted iff a member is.  The
    blocks are forced: each takes parts until it reaches its target's value,
    then a d0 if its target is dotted and it has no dot yet."""
    i, lb = 0, len(beta)
    for target in alpha:
        value = dots = 0
        while value < target.value and i < lb:
            value += beta[i].value
            dots += beta[i].dotted
            i += 1
        if target.dotted and not dots and i < lb and beta[i] == (0, True):
            dots = 1
            i += 1
        if value != target.value or dots != target.dotted:
            return False
    return i == lb


# Bound of every memo in the package (the refinements here, both shuffle
# engines, realize_M and realize_L); the axiom suite at n+m <= 5 fills 192
# entries in each refinement memo and 792 in each shuffle memo.
_MEMO_SIZE = 4096


def _sorted(items: Iterable[DottedComposition]) -> tuple[DottedComposition, ...]:
    return tuple(sorted(items, key=DottedComposition.sort_key))


def _runs(top: int) -> list[list[tuple[DottedPart, ...]]]:
    """runs[k]: the non-dotted compositions of k <= top."""
    plain = [DottedPart(v, False) for v in range(top + 1)]
    runs: list[list[tuple[DottedPart, ...]]] = [[()]]
    for k in range(1, top + 1):
        runs.append([(plain[v],) + run for v in range(1, k + 1) for run in runs[k - v]])
    return runs


def _splits(part: DottedPart, weak: bool, runs) -> list[tuple[DottedPart, ...]]:
    """A part's refinements: a run of its value if it is non-dotted; if it
    is dotted, itself, or in the weak order a dotted part between two runs."""
    v = part.value
    if not part.dotted:
        return runs[v]
    if not weak:
        return [(part,)]
    return [
        left + (DottedPart(d, True),) + right
        for d in range(v + 1)
        for lsum in range(v - d + 1)
        for left in runs[lsum]
        for right in runs[v - d - lsum]
    ]


def _refinements(alpha: DottedComposition, weak: bool) -> tuple[DottedComposition, ...]:
    # every split of a part has its value and its number of dots, so none is
    # a proper prefix of another: distinct choices give distinct refinements.
    # A strong split never reads the runs of a dotted part.
    runs = _runs(max((p.value for p in alpha if weak or not p.dotted), default=0))
    return _sorted(
        DottedComposition._of(tuple(itertools.chain.from_iterable(combo)))
        for combo in itertools.product(*(_splits(p, weak, runs) for p in alpha))
    )


@lru_cache(maxsize=_MEMO_SIZE)
def strong_refinements(alpha: DottedComposition) -> tuple[DottedComposition, ...]:
    """All beta with beta <= alpha in the strong order, sorted."""
    return _refinements(alpha, False)


@lru_cache(maxsize=_MEMO_SIZE)
def weak_refinements(alpha: DottedComposition) -> tuple[DottedComposition, ...]:
    """All beta with beta <= alpha in the weak order, sorted."""
    return _refinements(alpha, True)


@lru_cache(maxsize=_MEMO_SIZE)
def weak_coarsenings(alpha: DottedComposition) -> tuple[DottedComposition, ...]:
    """All gamma with alpha <= gamma in the weak order, sorted.  Each block
    structure gives its own gamma: blocks A and a longer A' from one start
    have equal parts only if A' adds d0s to a dotted A, a second dot."""
    l = len(alpha)
    results: list[DottedComposition] = []

    def go(i: int, acc: list[DottedPart]):
        if i == l:
            results.append(DottedComposition._of(tuple(acc)))
            return
        value = 0
        dots = 0
        for j in range(i, l):
            value += alpha[j].value
            dots += 1 if alpha[j].dotted else 0
            if dots > 1:
                break
            acc.append(DottedPart(value, dots == 1))
            go(j + 1, acc)
            acc.pop()

    go(0, [])
    return _sorted(results)


# ---------------------------------------------------------------------------
# concatenations and columns


def near_concat(
    alpha: DottedComposition, beta: DottedComposition
) -> Optional[DottedComposition]:
    """alpha (.) beta, or None when both boundary parts are dotted."""
    if alpha.is_empty() or beta.is_empty():
        return None
    a, b = alpha[-1], beta[0]
    if a.dotted and b.dotted:
        return None
    fused = DottedPart(a.value + b.value, a.dotted or b.dotted)
    return DottedComposition._of(alpha[:-1] + (fused,) + beta[1:])


def near_concat_list(factors: Iterable[DottedComposition]) -> DottedComposition:
    factors = list(factors)
    if not factors:
        return EMPTY
    out = factors[0]
    for f in factors[1:]:
        fused = near_concat(out, f)
        if fused is None:
            raise ValueError("near concatenation undefined: both boundary parts dotted")
        out = fused
    return out


def is_column(alpha: DottedComposition) -> bool:
    return all(p.value == 1 for p in alpha if not p.dotted)


def is_maximal(alpha: DottedComposition) -> bool:
    return not any(
        not a.dotted and not b.dotted
        for a, b in zip(alpha, alpha[1:])
    )


def maximal_strong_coarsening(alpha: DottedComposition) -> DottedComposition:
    parts: list[DottedPart] = []
    for p in alpha:
        if not p.dotted and parts and not parts[-1].dotted:
            parts[-1] = DottedPart(parts[-1].value + p.value, False)
        else:
            parts.append(p)
    return DottedComposition._of(tuple(parts))


@dataclass(frozen=True)
class Classification:
    is_column: bool
    is_maximal: bool
    maximal_strong_coarsening: DottedComposition


def classify(alpha: DottedComposition) -> Classification:
    return Classification(
        is_column(alpha), is_maximal(alpha), maximal_strong_coarsening(alpha)
    )


def column_decomposition(gamma: DottedComposition) -> list[DottedComposition]:
    """The unique columns with gamma = a1 (.) a2 (.) ... (.) ak.

    Cuts fall exactly at the internal bonds of non-dotted parts: a non-dotted
    entry v expands into v unit parts that must be re-fused by (.), each fusion
    marking a column boundary.
    """
    if gamma.is_empty():
        return []
    columns: list[list[DottedPart]] = [[]]
    for p in gamma:
        if p.dotted:
            columns[-1].append(p)
        else:
            columns[-1].append(DottedPart(1, False))
            for _ in range(p.value - 1):
                columns.append([DottedPart(1, False)])
    return [DottedComposition._of(tuple(c)) for c in columns]


# ---------------------------------------------------------------------------
# enumeration


def compositions_of(n: int, m: int) -> list[DottedComposition]:
    """All dotted compositions of bidegree (n, m), sorted."""
    results: list[DottedComposition] = []

    def go(rem_n: int, rem_m: int, acc: list[DottedPart]):
        if rem_n == 0 and rem_m == 0:
            results.append(DottedComposition._of(tuple(acc)))
        for v in range(1, rem_n + 1):
            acc.append(DottedPart(v, False))
            go(rem_n - v, rem_m, acc)
            acc.pop()
        if rem_m > 0:
            for v in range(rem_n + 1):
                acc.append(DottedPart(v, True))
                go(rem_n - v, rem_m - 1, acc)
                acc.pop()

    go(n, m, [])
    return sorted(results, key=DottedComposition.sort_key)


def compositions_with_total(total: int, max_fermionic: Optional[int] = None) -> list[DottedComposition]:
    """All dotted compositions with n + m == total (optionally capping m)."""
    out: list[DottedComposition] = []
    for m in range(total + 1):
        if max_fermionic is not None and m > max_fermionic:
            break
        out.extend(compositions_of(total - m, m))
    return sorted(out, key=DottedComposition.sort_key)


def universe(max_total: int, max_fermionic: Optional[int] = None) -> list[DottedComposition]:
    """All dotted compositions with n + m <= max_total (optionally capping m)."""
    out: list[DottedComposition] = []
    for t in range(max_total + 1):
        out.extend(compositions_with_total(t, max_fermionic))
    return out
