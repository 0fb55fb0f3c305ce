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


class DottedPart(int):
    """A part: its `value`, and whether it is `dotted`.  As an int it is its
    rank in DottedComposition.sort_key order, 2*value + 2 + (not dotted): by
    value, the dotted part first, and never 0, so that d0 and a plain 0 are
    truthy.  So compositions, tuples of parts, hash, compare and sort as
    tuples of machine ints.  There is one part per (value, dotted): the
    constructor returns it from _PARTS, and a part cannot be changed.

    The shuffle walks and the Schur walk schur_to_L read these facts off the
    rank alone: a plain part is odd and a dotted one even; plain parts
    compare by rank as by value; and fused parts have ranks by arithmetic,
    a + b - 3 for the part fused from parts a and b that are not both dotted
    (values add, dotted if either is), and a + 2*k for a part a grown by k."""

    def __new__(cls, value, dotted):
        # only an int and a bool are read as they are: a pair merely equal
        # to a built one's, such as (part, False) or (True, 1.0), is read
        # and refused as a first build would be
        if type(value) is not int or type(dotted) is not bool:
            value, dotted = _as_int(value), _as_flag(dotted)
        return _PARTS[2 * value + 2 + (not dotted)]

    def __setattr__(self, name, value):
        raise AttributeError("DottedPart is immutable")

    def __delattr__(self, name):
        raise AttributeError("DottedPart is immutable")

    def __reduce__(self):
        return (DottedPart, (self.value, self.dotted))

    def __repr__(self) -> str:
        return f"DottedPart(value={self.value!r}, dotted={self.dotted!r})"

    def __str__(self) -> str:
        return f"d{self.value}" if self.dotted else str(self.value)

    def latex(self) -> str:
        return rf"\dot{{{self.value}}}" if self.dotted else str(self.value)

    def to_json(self) -> dict:
        return {"v": self.value, "dot": self.dotted}


class _PartTable(dict):
    """Every part built, by rank.  A miss builds the part of that rank, so
    code that knows a rank reads its part here without the constructor.
    setdefault keeps the first part entered, also where two threads build
    one rank at once."""

    def __missing__(self, rank: int) -> DottedPart:
        value, plain = divmod(rank - 2, 2)
        part = int.__new__(DottedPart, rank)
        part.__dict__.update(value=value, dotted=not plain)
        return self.setdefault(rank, part)


_PARTS: dict[int, DottedPart] = _PartTable()


def _as_int(v) -> int:
    """v as an int: only a number equal to its int is one, so that a bool is
    not read as 0/1, text such as "3" is not parsed, 2.5 is not cut to 2, and
    a DottedPart is not read as its rank."""
    if type(v) is int:
        return v
    if isinstance(v, (bool, DottedPart)) or not isinstance(v, numbers.Number):
        raise TypeError(f"expected an integer, got {v!r}")
    try:
        i = int(v)
    except (OverflowError, ValueError):  # an infinity, or a NaN
        i = None
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
        """By value, dotted before non-dotted at equal value, part by part.
        A part's int is its rank in this order, so compositions sort in it
        as they are: sorted(cs) == sorted(cs, key=DottedComposition.sort_key)."""
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
_D0 = DottedPart(0, True)


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


class DefSets(NamedTuple):
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
        if target.dotted and not dots and i < lb and beta[i] == _D0:
            dots = 1
            i += 1
        if value != target.value or dots != target.dotted:
            return False
    return i == lb


# Every memo of the package, six, in the order they are made: the two
# refinements here, both shuffle engines, realize_M and realize_L;
# clear_caches() empties them.  The axiom suite at n+m <= 5 fills 192 entries
# in strong_refinements (281 hits), and none in the shuffle memos.
_MEMOS: list = []


def _memo(f):
    """f memoized with a bound of 4096 entries, and listed in _MEMOS."""
    memo = lru_cache(maxsize=4096)(f)
    _MEMOS.append(memo)
    return memo


def _refinements(alpha: DottedComposition, weak: bool) -> tuple[DottedComposition, ...]:
    # a part's row is the compositions of its value and its number of dots,
    # in sort order; none is a proper prefix of another, so distinct choices
    # give distinct refinements, and the product of the rows is sorted.  The
    # strong order splits no dotted part.  Each distinct part reads its row once.
    rows: dict[DottedPart, list] = {}
    for p in alpha:
        if p not in rows:
            dots = 1 if p.dotted else 0
            rows[p] = [(p,)] if dots and not weak else compositions_of(p.value, dots)
    return tuple(
        DottedComposition._of(tuple(itertools.chain.from_iterable(combo)))
        for combo in itertools.product(*(rows[p] for p in alpha))
    )


@_memo
def strong_refinements(alpha: DottedComposition) -> tuple[DottedComposition, ...]:
    """All beta with beta <= alpha in the strong order, sorted."""
    return _refinements(alpha, False)


@_memo
def weak_refinements(alpha: DottedComposition) -> tuple[DottedComposition, ...]:
    """All beta with beta <= alpha in the weak order, sorted."""
    return _refinements(alpha, True)


def weak_coarsenings(alpha: DottedComposition) -> tuple[DottedComposition, ...]:
    """All gamma with alpha <= gamma in the weak order, sorted.  Each block
    structure gives its own gamma: blocks A and a longer A' from one start
    have equal parts only if A' adds d0s to a dotted A, a second dot.  So
    the walk emits gamma in sort order when each start offers its blocks in
    part order."""
    l = len(alpha)
    # each start's blocks, listed once and stored reversed, so that a frame
    # pushes them and they pop in part order
    starts: list[list[tuple[DottedPart, int]]] = []
    for i in range(l):
        blocks: list[tuple[DottedPart, int]] = []
        value = dots = 0
        for j in range(i, l):
            value += alpha[j].value
            dots += 1 if alpha[j].dotted else 0
            if dots > 1:
                break
            # a plain block, then itself with a trailing d0: the d0 sorts first
            at = len(blocks) - 1 if blocks and alpha[j] == _D0 else len(blocks)
            blocks.insert(at, (DottedPart(value, dots == 1), j + 1))
        starts.append(blocks[::-1])
    results: list[DottedComposition] = []
    # frames (start, parts so far)
    stack: list[tuple[int, tuple]] = [(0, ())]
    while stack:
        i, parts = stack.pop()
        if i == l:
            results.append(DottedComposition._of(parts))
        else:
            stack += [(j, parts + (part,)) for part, j in starts[i]]
    return tuple(results)


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


class Classification(NamedTuple):
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
    """All dotted compositions of bidegree (n, m), sorted: those of n + m
    with m dots, as compositions_with_total lists them."""
    n, m = _as_int(n), _as_int(m)
    if m == 0:
        return compositions_with_total(n, 0)
    return [alpha for alpha in compositions_with_total(n + m, m) if alpha.fermionic_degree == m]


def compositions_with_total(total: int, max_fermionic: Optional[int] = None) -> list[DottedComposition]:
    """All dotted compositions with n + m == total (optionally capping m),
    sorted."""
    total = _as_int(total)
    top = total if max_fermionic is None else min(total, _as_int(max_fermionic))
    # the walk reads each part by list index, a twentieth of a DottedPart call
    plain = [DottedPart(v, False) for v in range(total + 1)]
    dots = [DottedPart(v, True) for v in range(total)] if top > 0 else []
    results: list[DottedComposition] = []

    def go(rem: int, rem_m: int, acc: list[DottedPart]):
        if rem == 0:
            results.append(DottedComposition._of(tuple(acc)))
        # dv (cost v + 1) sorts before v (cost v), and both before any larger
        # first part, so the walk emits in sort_key order
        for v in range(rem + 1):
            if rem_m > 0 and v < rem:
                acc.append(dots[v])
                go(rem - v - 1, rem_m - 1, acc)
                acc.pop()
            if v:
                acc.append(plain[v])
                go(rem - v, rem_m, acc)
                acc.pop()

    if top >= 0:
        go(total, top, [])
    del go  # go reaches itself through its closure: free the walk now
    return results


def universe(max_total: int, max_fermionic: Optional[int] = None) -> list[DottedComposition]:
    """All dotted compositions with n + m <= max_total (optionally capping m)."""
    if max_fermionic is not None:
        max_fermionic = _as_int(max_fermionic)
    out: list[DottedComposition] = []
    for t in range(_as_int(max_total) + 1):
        out.extend(compositions_with_total(t, max_fermionic))
    return out
