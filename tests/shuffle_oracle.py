"""The descent readers and the two shuffle walkers as the package had them
before both engines ran on one grid walk: comp_of_word and comp_of_tableau
assembled a composition from descents in a second pass, and each engine was
its own recursion with its own doubly-dotted sign.  They stay here, as they
were apart from the dropped memo on _overlapping_shuffles, as the oracle for
comp_of_word, comp_of_tableau, overlapping_shuffles and fundamental_paths.
fundamental_product is the L product as it was before it read gamma during
the walk: the signs of the enumerated fundamental paths, summed per gamma."""

from typing import Sequence

from superqsym.composition import DottedComposition, DottedPart
from superqsym.shuffles import (
    DottedPermutation,
    GridPath,
    PathResult,
    Step,
    fundamental_paths,
)
from superqsym.superschur import NotDotStandardError, STableau


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


def fundamental_product(
    alpha: DottedComposition, beta: DottedComposition
) -> tuple[tuple[DottedComposition, int], ...]:
    acc: dict[DottedComposition, int] = {}
    for res in fundamental_paths(alpha, beta):
        acc[res.gamma] = acc.get(res.gamma, 0) + res.sign
    return tuple((gamma, c) for gamma, c in acc.items() if c)


def comp_of_tableau(tab: STableau) -> DottedComposition:
    """Descent composition of a dot-standard s-tableau."""
    if not tab.is_dot_standard():
        raise NotDotStandardError("every non-dotted weight entry must equal 1")
    wt = tab.weight
    n_letters = len(wt)
    rows: dict[int, int] = {}
    for (r, _c), letter in tab.cells:
        rows[letter] = r
    descents = []  # adjusted positions within the non-dotted subsequence
    dotted_items = []
    seen_nondotted = 0
    for i in range(1, n_letters + 1):
        p = wt[i - 1]
        if p.dotted:
            dotted_items.append((seen_nondotted, DottedPart(p.value, True)))
            continue
        seen_nondotted += 1
        if i + 1 <= n_letters:
            nxt = wt[i]
            if nxt.dotted or rows[i + 1] > rows[i]:
                descents.append(seen_nondotted)
    n_nondotted = seen_nondotted
    return _assemble_composition(n_nondotted, descents, dotted_items)
