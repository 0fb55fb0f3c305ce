"""Superpartitions, horizontal strips of type s, s-tableaux, and the
expansion of superspace Schur functions into the fundamental basis."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional

from .algebra import Expr
from .composition import DottedComposition, DottedPart, _as_int, _coerce_part, _end, _scan
from .realize import SuperPolynomial, _check_nvars
from .shuffles import DottedPermutation, comp_of_word


class NotDotStandardError(ValueError):
    pass


class IncompatibleShapeError(ValueError):
    pass


class SuperpartitionParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position


class Superpartition(tuple):
    """A pair (fermionic; bosonic): strictly decreasing distinct parts >= 0
    carrying circles, and an ordinary partition.  Among equal row lengths the
    circled row sits above the plain one, so the circled diagram is fixed.

    The value is that diagram, the tuple (star, rows): `star` holds the row
    lengths, longest first, and `rows` the diagram rows of the circles, listed
    from below.  A circle of value 0 sits in the row under the last."""

    __slots__ = ()

    def __new__(cls, fermionic: Iterable[int] = (), bosonic: Iterable[int] = ()):
        f = tuple(sorted(map(_as_int, fermionic), reverse=True))
        b = tuple(sorted(map(_as_int, bosonic), reverse=True))
        if any(v < 0 for v in f):
            raise ValueError("fermionic parts must be >= 0")
        if len(set(f)) != len(f):
            raise ValueError("fermionic parts must be distinct")
        if any(v < 1 for v in b):
            raise ValueError("bosonic parts must be >= 1")
        star = tuple(sorted((v for v in f + b if v > 0), reverse=True))
        rows = tuple(1 + sum(1 for v in star if v > c) for c in reversed(f))
        return tuple.__new__(cls, (star, rows))

    # wraps a diagram (star, rows) the package built itself, without checking
    # that each circle ends the topmost row of its length
    _of = classmethod(tuple.__new__)

    def __reduce__(self):
        # tuple pickling would pass the diagram to the validating __new__
        return (type(self), (self.fermionic, self.bosonic))

    @property
    def fermionic(self) -> tuple[int, ...]:
        return self.circles_from_below()[::-1]

    @property
    def bosonic(self) -> tuple[int, ...]:
        star, rows = self
        return tuple(v for r, v in enumerate(star, 1) if r not in rows)

    def __repr__(self) -> str:
        return str(self)

    def __str__(self) -> str:
        return (
            "("
            + ",".join(str(v) for v in self.fermionic)
            + ";"
            + ",".join(str(v) for v in self.bosonic)
            + ")"
        )

    @property
    def n_circles(self) -> int:
        return len(self[1])

    @property
    def degree(self) -> int:
        return sum(self[0])

    def star(self) -> tuple[int, ...]:
        return self[0]

    def star_padded(self, length: int) -> tuple[int, ...]:
        return self[0] + (0,) * (length - len(self[0]))

    def circle_row(self, value: int) -> int:
        """Diagram row (1-based, top-down) of the circle ending a row of
        this length; rows sorted by length, circled above plain on ties."""
        return 1 + sum(1 for v in self[0] if v > value)

    def circles_from_below(self) -> tuple[int, ...]:
        star, rows = self
        return tuple(star[r - 1] if r <= len(star) else 0 for r in rows)

    def contains(self, other: "Superpartition") -> bool:
        (star, rows), (small, small_rows) = self, other
        return (
            len(rows) >= len(small_rows)
            and len(star) >= len(small)
            and all(a >= b for a, b in zip(star, small))
        )

    @classmethod
    def parse(cls, text: str) -> "Superpartition":
        # positions count in `text`, as parse_composition counts them
        lead = len(text) - len(text.lstrip())
        if not text.startswith("(", lead):
            raise SuperpartitionParseError("expected '('", lead)
        if ";" not in text.partition(")")[0]:
            raise SuperpartitionParseError("expected ';' separator", lead + 1)
        error = SuperpartitionParseError
        fermionic, i = _scan(text, lead + 1, ";", error, False)
        bosonic, i = _scan(text, i, ")", error, False)
        _end(text, i, error)
        try:
            return cls(fermionic, bosonic)
        except ValueError as exc:
            raise SuperpartitionParseError(str(exc), lead + 1) from None


EMPTY_SHAPE = Superpartition()


def partitions_of(n: int, max_part: Optional[int] = None) -> list[tuple[int, ...]]:
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return out


def superpartitions(degree: int, circles: int) -> list[Superpartition]:
    """All superpartitions with |star| = degree and the given circle count."""
    results: list[Superpartition] = []

    def ferm(remaining: int, count: int, cap: int, acc: list[int]):
        if count == 0:
            for bos in partitions_of(remaining):
                results.append(Superpartition(tuple(acc), bos))
            return
        # smallest possible tail sum: 0+1+...+(count-1)
        for v in range(min(cap, remaining), count - 2, -1):
            acc.append(v)
            ferm(remaining - v, count - 1, v - 1, acc)
            acc.pop()

    ferm(degree, circles, degree, [])
    return sorted(results, key=lambda sp: (sp.fermionic, sp.bosonic))


# ---------------------------------------------------------------------------
# horizontal strips of type s
#
# A strip works on the diagram, which is the superpartition itself: `star`,
# the row lengths longest first, and `rows`, the diagram rows of the circles
# listed from below.


def _strips(star, rows, sizes: range, dotted, cap=None):
    """Every horizontal strip of type s over the diagram (star, rows) whose
    cell count lies in `sizes`.  Yields (cell count, new star, new circle
    rows, index of the new circle among the circles from below, or None for a
    bosonic strip).  With `cap`, a star such as an outer shape's, no row grows
    past it.

    The strips are read off the vectors of cells added per row, in
    lexicographic order: each row has room up to the old length of the row
    above, so every vector is a horizontal strip.  An old circle keeps its
    row, or moves one row down when the strip has a cell in its row; either
    way it still ends the topmost row of its length, so a vector fails only
    when a circle moves onto the row of a circle that stays.  A fermionic
    strip's new circle ends the row whose length is the run of columns 1, 2,
    ... the strip fills, read bottom-up; no old circle may end that row."""
    padded = star + (0,)
    most = max(sizes, default=0)
    room = []
    for i, here in enumerate(padded):
        top = min(padded[i - 1], here + most) if i else here + most
        if cap is not None:
            top = min(top, cap[i] if i < len(cap) else 0)
        room.append(range(max(0, top - here) + 1))
    stacked = [r for r in rows if r + 1 in rows]
    for add in product(*room):
        size = sum(add)
        if size not in sizes or (
            stacked and any(add[r - 1] and not add[r] for r in stacked)
        ):
            continue
        new = tuple(map(operator.add, padded, add))
        if not new[-1]:
            new = new[:-1]
        moved = tuple([r + 1 if add[r - 1] else r for r in rows])
        if not dotted:
            yield size, new, moved, None
            continue
        value, row = 0, len(padded) + 1
        for here, a in zip(reversed(padded), reversed(add)):
            if here != value:
                break
            value += a
            row -= 1
        if row in moved:
            continue
        idx = sum(1 for r in moved if r > row)
        yield size, new, moved[:idx] + (row,) + moved[idx:], idx


def _cells(star, rows, cap=None):
    """The bosonic one-cell strips of _strips, as (new star, new circle rows,
    row of the cell): the addable corners, bottom row first, unless the cell
    pushes a circle onto the circle in the row below."""
    padded = star + (0,)
    for i in range(len(star), -1, -1):
        here = padded[i]
        if i and padded[i - 1] == here:
            continue
        if cap is not None and here >= (cap[i] if i < len(cap) else 0):
            continue
        row = i + 1
        if row in rows:
            if row + 1 in rows:
                continue
            moved = tuple([row + 1 if r == row else r for r in rows])
        else:
            moved = rows
        yield star[:i] + (here + 1,) + star[i + 1 :], moved, row


def _targets(sp: Superpartition, size: int, dotted: bool, outer=None) -> list:
    """The strips over sp as (target, cells, new-circle index), sorted by
    target; with `outer`, only the targets it contains."""
    if size < 0:
        raise ValueError(f"strip size must be >= 0, got {size}")
    if outer is not None and dotted and sp.n_circles >= outer.n_circles:
        return []
    cap = None if outer is None else outer[0]
    padded = sp[0] + (0,)
    found = [
        (
            Superpartition._of((star, rows)),
            tuple(
                (r, c)
                for r, (lo, hi) in enumerate(zip(padded, star), 1)
                for c in range(lo + 1, hi + 1)
            ),
            idx,
        )
        for _, star, rows, idx in _strips(*sp, range(size, size + 1), dotted, cap)
    ]
    found.sort(key=lambda t: (t[0].fermionic, t[0].bosonic))
    return found


def bosonic_strips(gamma: Superpartition, size: int) -> tuple[Superpartition, ...]:
    """All targets one bosonic horizontal `size`-strip above gamma."""
    return tuple(target for target, _, _ in _targets(gamma, size, False))


def fermionic_strips(
    gamma: Superpartition, size: int
) -> tuple[tuple[Superpartition, int], ...]:
    """All (target, new-circle column) one fermionic `size`-strip above gamma:
    the new circle's column is empty while every column left of it holds a
    strip cell; remaining circles move as in the bosonic case."""
    return tuple(
        (target, target.circles_from_below()[idx] + 1)
        for target, _, idx in _targets(gamma, size, True)
    )


# ---------------------------------------------------------------------------
# s-tableaux


def _circle_word(circles) -> tuple[int, ...]:
    # top-to-bottom = decreasing circle value; unfilled circles are skipped
    return tuple(
        letter for value, letter in sorted(circles, reverse=True) if letter is not None
    )


def _circle_inversions(circles) -> int:
    w = _circle_word(circles)
    return sum(
        1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j]
    )


@dataclass(frozen=True)
class STableau:
    inner: Superpartition
    outer: Superpartition
    chain: tuple[Superpartition, ...]
    weight: tuple[DottedPart, ...]
    cells: tuple[tuple[tuple[int, int], int], ...]  # ((row, col), letter)
    circles: tuple[tuple[int, Optional[int]], ...]  # (value, letter) from below

    def cell_map(self) -> dict[tuple[int, int], int]:
        return dict(self.cells)

    def circle_word(self) -> tuple[int, ...]:
        return _circle_word(self.circles)

    def inv(self) -> int:
        return _circle_inversions(self.circles)

    def sign(self) -> int:
        return -1 if self.inv() % 2 else 1

    def is_dot_standard(self) -> bool:
        return all(p.dotted or p.value == 1 for p in self.weight)

    def ascii(self) -> str:
        cmap = self.cell_map()
        circle_at: dict[int, Optional[int]] = {}
        for value, letter in self.circles:
            circle_at[self.outer.circle_row(value)] = letter
        star = self.outer.star()
        inner_star = self.inner.star_padded(len(star) + self.outer.n_circles)
        nrows = max(
            len(star),
            max(circle_at, default=0),
        )
        lines = []
        for r in range(1, nrows + 1):
            width = star[r - 1] if r <= len(star) else 0
            row = []
            for c in range(1, width + 1):
                if (r, c) in cmap:
                    row.append(f"[{cmap[(r, c)]}]")
                elif c <= inner_star[r - 1]:
                    row.append(" . ")
                else:
                    row.append("[ ]")
            if r in circle_at:
                letter = circle_at[r]
                row.append(f"({letter})" if letter is not None else "( )")
            lines.append("".join(row))
        return "\n".join(lines)


def _initial_circles(inner: Superpartition) -> tuple[tuple[int, Optional[int]], ...]:
    return tuple((v, None) for v in inner.circles_from_below())


def _steps(sp, circles, letter, part, outer=None):
    """(target, cells, new circles) for every strip of `part` over sp, where
    `circles` pairs each circle value of sp, from below, with its letter (None
    on a circle of the inner shape); a dotted part's new circle gets `letter`.
    With `outer`, only the targets it contains."""
    out = []
    for target, cells, idx in _targets(sp, part.value, part.dotted, outer):
        letters = [l for _, l in circles]
        if idx is not None:
            letters.insert(idx, letter)
        out.append((target, cells, tuple(zip(target.circles_from_below(), letters))))
    return out


def _walk(outer, inner, menu, emit) -> None:
    """Depth-first walk over the chains of strips from inner inside outer.
    menu(sp, weight) gives the parts the next letter may take, or None to stop
    there; a stop at outer calls emit(chain, weight, cells, circles)."""

    def go(sp, chain, cells, circles, weight):
        parts = menu(sp, weight)
        if parts is None:
            if sp == outer:
                emit(chain, weight, cells, circles)
            return
        letter = len(weight) + 1
        for part in parts:
            for target, new_cells, new_circles in _steps(
                sp, circles, letter, part, outer
            ):
                chain.append(target)
                cells.extend((cell, letter) for cell in new_cells)
                weight.append(part)
                go(target, chain, cells, new_circles, weight)
                weight.pop()
                del cells[len(cells) - len(new_cells) :]
                chain.pop()

    go(inner, [inner], [], _initial_circles(inner), [])


def _tableaux(outer, inner, menu) -> list[STableau]:
    results: list[STableau] = []

    def emit(chain, weight, cells, circles):
        results.append(
            STableau(inner, outer, tuple(chain), tuple(weight), tuple(cells), circles)
        )

    _walk(outer, inner, menu, emit)
    return results


def _require_inside(outer: Superpartition, inner: Superpartition) -> None:
    if not outer.contains(inner):
        raise IncompatibleShapeError(f"{inner} is not contained in {outer}")


def enumerate_s_tableaux(
    outer: Superpartition, inner: Superpartition, weight: Iterable
) -> list[STableau]:
    """All s-tableaux of shape outer/inner with the given weight (entries are
    ints for bosonic strips, 'd<k>' strings or (k, True) pairs for fermionic)."""
    _require_inside(outer, inner)
    wt = tuple(_coerce_part(p, min_plain=0) for p in weight)

    def menu(sp, weight):
        return None if len(weight) == len(wt) else (wt[len(weight)],)

    return _tableaux(outer, inner, menu)


def dot_standard_tableaux(
    outer: Superpartition, inner: Superpartition
) -> list[STableau]:
    """All dot-standard s-tableaux of shape outer/inner (non-dotted weight
    entries equal 1; dotted entries of any size including d0)."""
    _require_inside(outer, inner)

    def menu(sp, weight):
        if sp == outer:
            return None
        remaining = outer.degree - sp.degree
        parts = [DottedPart(1, False)] if remaining else []
        parts.extend(DottedPart(v, True) for v in range(remaining + 1))
        return parts

    return _tableaux(outer, inner, menu)


def inv_sign(tab: STableau) -> int:
    return tab.sign()


def comp_of_tableau(tab: STableau) -> DottedComposition:
    """Descent composition of a dot-standard s-tableau: that of the dotted
    word whose non-dotted letters fall as their rows rise, with ties in
    letter order."""
    if not tab.is_dot_standard():
        raise NotDotStandardError("every non-dotted weight entry must equal 1")
    wt = tab.weight
    n = len(wt)
    rows = {letter: r for (r, _c), letter in tab.cells}
    depth = max(rows.values(), default=0) + 1
    return comp_of_word(
        DottedPermutation(
            p if p.dotted else DottedPart((depth - rows[i]) * n + i, False)
            for i, p in enumerate(wt, start=1)
        )
    )


def standardize(tab: STableau) -> STableau:
    """Split every bosonic letter into single-cell letters (left to right),
    drop empty bosonic letters, and relabel consecutively; circles keep their
    relative order."""
    steps: list[tuple[DottedPart, tuple[tuple[int, int], ...]]] = []
    cmap: dict[int, list[tuple[int, int]]] = {}
    for (cell, letter) in tab.cells:
        cmap.setdefault(letter, []).append(cell)
    for i, p in enumerate(tab.weight, start=1):
        cells = tuple(sorted(cmap.get(i, ()), key=lambda rc: rc[1]))
        if p.dotted:
            steps.append((p, cells))
        else:
            for cell in cells:
                steps.append((DottedPart(1, False), (cell,)))

    sp = tab.inner
    chain = [sp]
    circles = _initial_circles(tab.inner)
    out_cells: list[tuple[tuple[int, int], int]] = []
    weight: list[DottedPart] = []
    for letter, (part, cells) in enumerate(steps, start=1):
        matches = [
            e
            for e in _steps(sp, circles, letter, part)
            if frozenset(e[1]) == frozenset(cells)
        ]
        if len(matches) != 1:
            raise ValueError("standardization produced an ambiguous or invalid step")
        target, new_cells, new_circles = matches[0]
        out_cells.extend((cell, letter) for cell in new_cells)
        weight.append(part)
        chain.append(target)
        sp, circles = target, new_circles
    if sp != tab.outer:
        raise ValueError("standardization did not reach the outer shape")
    return STableau(
        tab.inner,
        tab.outer,
        tuple(chain),
        tuple(weight),
        tuple(out_cells),
        circles,
    )


# ---------------------------------------------------------------------------
# Schur expansions


def schur_to_L(outer: Superpartition, inner: Superpartition = EMPTY_SHAPE) -> Expr:
    """s_{outer/inner} = sum over dot-standard tableaux of sign * L_comp(T).

    The tableaux are counted, not listed: a memoized walk over the states
    (shape, filled circles, row of the last letter if it was non-dotted) maps
    each state to the signed count of the compositions its suffixes read.
    comp(T) only compares adjacent letters, so a suffix's compositions fall in
    two counters: `free` ones start a new part, `glued` ones begin with a
    non-dotted run that joins the prefix's last part (its first cell lies in a
    row <= the prefix's last row).  A new circle letter is the largest so far,
    so it adds one inversion per filled circle below it; the circles of the
    inner shape stay unfilled.  Parts are ints inside the walk: k for a
    non-dotted part k, ~v for the dotted part dv.  The memo lives for one
    call."""
    _require_inside(outer, inner)
    cap = outer[0]
    n_circles, degree = outer.n_circles, outer.degree
    moves: dict = {}
    memo: dict = {}

    def moves_from(star, rows):
        found = moves.get((star, rows))
        if found is None:
            cells = list(_cells(star, rows, cap))
            dotted = list(
                _strips(star, rows, range(degree - sum(star) + 1), True, cap)
            ) if len(rows) < n_circles else []
            found = moves[(star, rows)] = (cells, dotted)
        return found

    def walk(star, rows, filled, last):
        key = (star, rows, filled, last)
        found = memo.get(key)
        if found is not None:
            return found
        free: dict[tuple[int, ...], int] = {}
        glued: dict[tuple[int, ...], int] = {}
        if (star, rows) == outer:
            free[()] = 1
        cells, dotted = moves_from(star, rows)
        for new, new_rows, row in cells:
            out = glued if last is not None and row <= last else free
            sub_free, sub_glued = walk(new, new_rows, filled, row)
            for parts, c in sub_free.items():
                key1 = (1,) + parts
                out[key1] = out.get(key1, 0) + c
            for parts, c in sub_glued.items():
                key1 = (parts[0] + 1,) + parts[1:]
                out[key1] = out.get(key1, 0) + c
        for size, new, new_rows, idx in dotted:
            part = ~size
            below = filled & ((1 << idx) - 1)
            sign = -1 if below.bit_count() & 1 else 1
            sub_free, _ = walk(
                new, new_rows, below | (1 << idx) | (filled >> idx) << (idx + 1), None
            )
            for parts, c in sub_free.items():
                key1 = (part,) + parts
                free[key1] = free.get(key1, 0) + sign * c
        memo[key] = found = (free, glued)
        return found

    free, _ = walk(*inner, 0, None)
    part_of = {v: DottedPart(v, False) for v in range(1, degree + 1)}
    part_of.update((~v, DottedPart(v, True)) for v in range(degree + 1))
    out = Expr._trusted(
        "L",
        {
            DottedComposition._of(map(part_of.__getitem__, parts)): c
            for parts, c in free.items()
        },
    )
    # `walk` reaches itself through its closure, a cycle that would keep the
    # memo alive until the next garbage collection
    memo.clear()
    moves.clear()
    return out


def realize_s(
    outer: Superpartition, inner: Superpartition, nvars: int
) -> SuperPolynomial:
    """Generating sum over all s-tableaux with exactly `nvars` letters
    (weights may contain 0 and d0); the independent oracle for schur_to_L."""
    _check_nvars(nvars)
    _require_inside(outer, inner)
    terms: dict = {}

    def menu(sp, weight):
        if len(weight) == nvars:
            return None
        remaining = outer.degree - sp.degree
        return [DottedPart(v, d) for d in (False, True) for v in range(remaining + 1)]

    def emit(chain, weight, cells, circles):
        theta = tuple(i for i, p in enumerate(weight, start=1) if p.dotted)
        xp = tuple(
            (i, p.value) for i, p in enumerate(weight, start=1) if p.value
        )
        key = (theta, xp)
        sign = -1 if _circle_inversions(circles) % 2 else 1
        terms[key] = terms.get(key, 0) + sign

    _walk(outer, inner, menu, emit)
    return SuperPolynomial._trusted(nvars, terms)
