"""Path-on-grid shuffle engines.

Overlapping shuffles walk an l(beta) x l(alpha) grid labeled by the parts
themselves and drive the M-product.  Fundamental paths walk a grid labeled by
dotted permutations representing alpha and beta, admit multi-cell diagonal
steps, and drive the L-product.  Both carry the sign
(-1)^(doubly-dotted cells strictly below the path).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

from .composition import _MEMO_SIZE, DottedComposition, DottedPart, _coerce_part


class DottedPermutation(tuple):
    """A word of DottedParts whose non-dotted entries are pairwise distinct
    positive integers; entries are read as composition parts are.

    Dotted values may repeat: grid words like [d1,d1] occur in products and
    their contributions cancel in signed sums.
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable):
        self = tuple.__new__(cls, (_coerce_part(e) for e in entries))
        nondotted = self.undotted()
        if len(set(nondotted)) != len(nondotted):
            raise ValueError("non-dotted entries must be pairwise distinct")
        return self

    # wraps a word the package built from valid entries with distinct
    # non-dotted values, without re-reading them
    _of = classmethod(tuple.__new__)

    @property
    def entries(self) -> tuple[DottedPart, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return "[" + ",".join(str(e) for e in self) + "]"

    @property
    def size(self) -> int:
        return len(self)

    def undotted(self) -> tuple[int, ...]:
        return tuple(e.value for e in self if not e.dotted)


def word(*entries) -> DottedPermutation:
    """Shorthand: word(6, "d3", 9) == [6,d3,9]."""
    return DottedPermutation(entries)


def _assemble_composition(
    n_nondotted: int,
    descents: Sequence[int],
    dotted_items: Sequence[tuple[int, DottedPart]],
) -> DottedComposition:
    """Shared skeleton of comp(w) and comp(T).

    descents: strictly increasing positions within the non-dotted subsequence
    (a value of n_nondotted is allowed and yields no trailing part).
    dotted_items: (anchor, part) with anchor = number of non-dotted items
    before the dotted one; items sharing an anchor keep their order.
    """
    cuts = list(descents)
    if n_nondotted and (not cuts or cuts[-1] != n_nondotted):
        cuts.append(n_nondotted)
    by_anchor: dict[int, list[DottedPart]] = {}
    for anchor, part in dotted_items:
        by_anchor.setdefault(anchor, []).append(part)
    parts: list[DottedPart] = list(by_anchor.get(0, []))
    prev = 0
    for c in cuts:
        parts.append(DottedPart(c - prev, False))
        parts.extend(by_anchor.get(c, []))
        prev = c
    return DottedComposition._of(tuple(parts))


def comp_of_word(w: DottedPermutation) -> DottedComposition:
    """Descent composition of a dotted permutation."""
    nondotted = [(pos, e.value) for pos, e in enumerate(w) if not e.dotted]
    n = len(nondotted)
    descents = []
    for i, (pos, value) in enumerate(nondotted):
        next_is_dotted = pos + 1 < len(w) and w[pos + 1].dotted
        if next_is_dotted or (i + 1 < n and value > nondotted[i + 1][1]):
            descents.append(i + 1)
    dotted_items = []
    seen_nondotted = 0
    for e in w:
        if e.dotted:
            dotted_items.append((seen_nondotted, e))
        else:
            seen_nondotted += 1
    return _assemble_composition(n, descents, dotted_items)


def represent(alpha: DottedComposition, start: int = 1) -> DottedPermutation:
    """A canonical w with comp(w) = alpha on values start, start+1, ...

    Within a maximal block of consecutive non-dotted parts, runs are filled
    right-to-left with the smallest fresh values, making every internal part
    boundary a strict descent; dotted parts become dotted entries verbatim.
    """
    entries: list[DottedPart] = []
    cursor = start
    i = 0
    while i < len(alpha):
        if alpha[i].dotted:
            entries.append(alpha[i])
            i += 1
            continue
        j = i
        while j < len(alpha) and not alpha[j].dotted:
            j += 1
        block = [p.value for p in alpha[i:j]]
        total = sum(block)
        values = list(range(cursor, cursor + total))
        cursor += total
        runs: list[list[int]] = []
        taken = 0
        for size in reversed(block):
            runs.append(values[taken : taken + size])
            taken += size
        for run in reversed(runs):
            entries.extend(DottedPart(v, False) for v in run)
        i = j
    return DottedPermutation(entries)


# ---------------------------------------------------------------------------
# overlapping shuffles (M-product engine)


@lru_cache(maxsize=_MEMO_SIZE)
def _overlapping_shuffles(
    alpha: DottedComposition, beta: DottedComposition
) -> tuple[tuple[DottedComposition, int], ...]:
    cols, rows = alpha, beta
    w, h = len(cols), len(rows)
    dotted_rows = [i for i, p in enumerate(rows, start=1) if p.dotted]
    out: list[tuple[DottedComposition, int]] = []

    def dots_below(col: int, y: int) -> int:
        if not cols[col - 1].dotted:
            return 0
        return sum(1 for r in dotted_rows if r <= y)

    def go(x: int, y: int, acc: list[DottedPart], ndots: int):
        if x == w and y == h:
            out.append((DottedComposition._of(tuple(acc)), -1 if ndots % 2 else 1))
            return
        if x < w:
            p = cols[x]
            acc.append(p)
            go(x + 1, y, acc, ndots + dots_below(x + 1, y))
            acc.pop()
        if y < h:
            acc.append(rows[y])
            go(x, y + 1, acc, ndots)
            acc.pop()
        if x < w and y < h:
            a, b = cols[x], rows[y]
            if not (a.dotted and b.dotted):
                acc.append(DottedPart(a.value + b.value, a.dotted or b.dotted))
                go(x + 1, y + 1, acc, ndots + dots_below(x + 1, y))
                acc.pop()

    go(0, 0, [], 0)
    return tuple(out)


def overlapping_shuffles(
    alpha: DottedComposition, beta: DottedComposition
) -> list[tuple[DottedComposition, int]]:
    """All lattice paths with unit H/V/diagonal steps on the parts grid;
    diagonals may not cross doubly-dotted cells; one (gamma, sign) per path."""
    return list(_overlapping_shuffles(alpha, beta))


# ---------------------------------------------------------------------------
# fundamental paths (L-product engine)

# step encodings: ("H",), ("V",), ("D3", k) column-diagonal over k rows,
# ("D4", k) row-diagonal over k columns
Step = tuple


@dataclass(frozen=True)
class GridPath:
    steps: tuple[Step, ...]

    def to_json(self) -> list[list]:
        return [list(s) for s in self.steps]


class PathResult(NamedTuple):
    path: GridPath
    word: DottedPermutation
    gamma: DottedComposition
    sign: int


def path_word(
    w_alpha: DottedPermutation, w_beta: DottedPermutation, steps: Iterable[Step]
) -> DottedPermutation:
    """Pi(P): the dotted permutation a fundamental path spells out."""
    cols, rows = w_alpha, w_beta
    x = y = 0
    out: list[DottedPart] = []
    for step in steps:
        kind = step[0]
        if kind == "H":
            out.append(cols[x])
            x += 1
        elif kind == "V":
            out.append(rows[y])
            y += 1
        elif kind == "D3":
            k = step[1]
            out.append(DottedPart(cols[x].value + k, True))
            x += 1
            y += k
        elif kind == "D4":
            k = step[1]
            out.append(DottedPart(rows[y].value + k, True))
            x += k
            y += 1
        else:
            raise ValueError(f"unknown step {step!r}")
    if (x, y) != (len(cols), len(rows)):
        raise ValueError("path does not end at the grid corner")
    return DottedPermutation(out)


def fundamental_paths(
    alpha: DottedComposition,
    beta: DottedComposition,
    w_alpha: Optional[DottedPermutation] = None,
    w_beta: Optional[DottedPermutation] = None,
) -> list[PathResult]:
    """All fundamental paths in the (alpha, beta)-grid with their words,
    descent compositions and signs.  Custom representatives may be supplied;
    the resulting multiset of (gamma, sign) does not depend on them."""
    if w_alpha is None:
        w_alpha = represent(alpha, 1)
    if w_beta is None:
        n_alpha = sum(p.value for p in alpha if not p.dotted)
        w_beta = represent(beta, n_alpha + 1)
    return _enumerate_paths(w_alpha, w_beta)


@lru_cache(maxsize=_MEMO_SIZE)
def fundamental_product(
    alpha: DottedComposition, beta: DottedComposition
) -> tuple[tuple[DottedComposition, int], ...]:
    """L_alpha L_beta as (gamma, coefficient) pairs: the signs of the
    fundamental paths summed per descent composition, zeros dropped.
    Memoized per pair; the paths themselves are not kept."""
    acc: dict[DottedComposition, int] = {}
    for res in fundamental_paths(alpha, beta):
        acc[res.gamma] = acc.get(res.gamma, 0) + res.sign
    return tuple((gamma, c) for gamma, c in acc.items() if c)


def _enumerate_paths(
    w_alpha: DottedPermutation, w_beta: DottedPermutation
) -> list[PathResult]:
    # a path word takes its non-dotted entries from the two words, so checking
    # their concatenation once covers every path word built below
    DottedPermutation(w_alpha + w_beta)
    cols, rows = w_alpha, w_beta
    w, h = len(cols), len(rows)
    dotted_rows = [i for i, e in enumerate(rows, start=1) if e.dotted]

    def dots_below(col: int, y: int) -> int:
        # cells (r, col) with both labels dotted and r <= departure height y
        if not cols[col - 1].dotted:
            return 0
        return sum(1 for r in dotted_rows if r <= y)

    results: list[PathResult] = []

    def go(x: int, y: int, steps: list[Step], word_acc: list[DottedPart], ndots: int):
        if x == w and y == h:
            pw = DottedPermutation._of(tuple(word_acc))
            results.append(
                PathResult(
                    GridPath(tuple(steps)),
                    pw,
                    comp_of_word(pw),
                    -1 if ndots % 2 else 1,
                )
            )
            return
        if x < w:
            steps.append(("H",))
            word_acc.append(cols[x])
            go(x + 1, y, steps, word_acc, ndots + dots_below(x + 1, y))
            word_acc.pop()
            steps.pop()
        if y < h:
            steps.append(("V",))
            word_acc.append(rows[y])
            go(x, y + 1, steps, word_acc, ndots)
            word_acc.pop()
            steps.pop()
        # type (3): dotted column label, k rows with increasing non-dotted labels
        if x < w and cols[x].dotted:
            k = 0
            while (
                y + k < h
                and not rows[y + k].dotted
                and (k == 0 or rows[y + k].value > rows[y + k - 1].value)
            ):
                k += 1
                steps.append(("D3", k))
                word_acc.append(DottedPart(cols[x].value + k, True))
                go(x + 1, y + k, steps, word_acc, ndots + dots_below(x + 1, y))
                word_acc.pop()
                steps.pop()
        # type (4): dotted row label, k columns with increasing non-dotted labels
        if y < h and rows[y].dotted:
            k = 0
            while (
                x + k < w
                and not cols[x + k].dotted
                and (k == 0 or cols[x + k].value > cols[x + k - 1].value)
            ):
                k += 1
                steps.append(("D4", k))
                word_acc.append(DottedPart(rows[y].value + k, True))
                extra = sum(dots_below(x + j, y) for j in range(1, k + 1))
                go(x + k, y + 1, steps, word_acc, ndots + extra)
                word_acc.pop()
                steps.pop()

    go(0, 0, [], [], 0)
    return results
