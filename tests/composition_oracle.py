"""The two refinement orders as the package had them before one enumerator
served both: a bitmask splitter for non-dotted parts, a separate splitter for
dotted parts in the weak order, a twin memo body per order, a set() that
merged equal results before the sort, and a weak_leq that searched the sets
of reachable positions of beta block by block.  They stay here verbatim as
the oracle for strong_refinements, weak_refinements, weak_coarsenings and
weak_leq, apart from the dropped memos, which take the names of the
list-copying wrappers they served.  compositions_of and
compositions_with_total follow verbatim as they were before compositions_of
emitted its output in sort order: a walk that sorts everything it found."""

import itertools
from typing import Iterable, Optional

from superqsym.composition import DottedComposition, DottedPart


def weak_leq(beta: DottedComposition, alpha: DottedComposition) -> bool:
    """beta weakly refines alpha: alpha groups beta into consecutive blocks,
    each holding at most one dotted part, block dotted iff a member is."""
    if beta.degrees() != alpha.degrees():
        return False
    lb, la = len(beta), len(alpha)
    # reachable[j] = set of beta-positions i such that beta[:i] matches alpha[:j]
    reachable = {0}
    for j in range(la):
        target = alpha[j]
        nxt: set[int] = set()
        for i in reachable:
            acc = 0
            dots = 0
            for k in range(i, lb):
                acc += beta[k].value
                dots += 1 if beta[k].dotted else 0
                if dots > (1 if target.dotted else 0) or acc > target.value:
                    break
                if acc == target.value and dots == (1 if target.dotted else 0):
                    nxt.add(k + 1)
                # no early exit at acc == value: a trailing d0 may still
                # supply the dot a dotted target needs
        reachable = nxt
        if not reachable:
            return False
    return lb in reachable


def _splits_strong(part: DottedPart) -> list[tuple[DottedPart, ...]]:
    if part.dotted:
        return [(part,)]
    v = part.value
    out = []
    for cuts in itertools.product((0, 1), repeat=v - 1):
        pieces = []
        run = 1
        for c in cuts:
            if c:
                pieces.append(DottedPart(run, False))
                run = 1
            else:
                run += 1
        pieces.append(DottedPart(run, False))
        out.append(tuple(pieces))
    return out


def _nondotted_compositions(v: int) -> list[tuple[DottedPart, ...]]:
    if v == 0:
        return [()]
    return _splits_strong(DottedPart(v, False))


def _splits_weak(part: DottedPart) -> list[tuple[DottedPart, ...]]:
    if not part.dotted:
        return _splits_strong(part)
    out = []
    v = part.value
    for d in range(v + 1):
        for lsum in range(v - d + 1):
            for left in _nondotted_compositions(lsum):
                for right in _nondotted_compositions(v - d - lsum):
                    out.append(left + (DottedPart(d, True),) + right)
    return out


def _sorted_unique(items: Iterable[DottedComposition]) -> tuple[DottedComposition, ...]:
    return tuple(sorted(set(items), key=DottedComposition.sort_key))


def strong_refinements(alpha: DottedComposition) -> tuple[DottedComposition, ...]:
    choices = [_splits_strong(p) for p in alpha]
    return _sorted_unique(
        DottedComposition._of(tuple(itertools.chain.from_iterable(combo)))
        for combo in itertools.product(*choices)
    )


def weak_refinements(alpha: DottedComposition) -> tuple[DottedComposition, ...]:
    choices = [_splits_weak(p) for p in alpha]
    return _sorted_unique(
        DottedComposition._of(tuple(itertools.chain.from_iterable(combo)))
        for combo in itertools.product(*choices)
    )


def weak_coarsenings(alpha: DottedComposition) -> tuple[DottedComposition, ...]:
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
    return _sorted_unique(results)


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
    del go  # go reaches itself through its closure: free the walk now
    return sorted(results, key=DottedComposition.sort_key)


def compositions_with_total(total: int, max_fermionic: Optional[int] = None) -> list[DottedComposition]:
    """All dotted compositions with n + m == total (optionally capping m)."""
    out: list[DottedComposition] = []
    for m in range(total + 1):
        if max_fermionic is not None and m > max_fermionic:
            break
        out.extend(compositions_of(total - m, m))
    return sorted(out, key=DottedComposition.sort_key)
