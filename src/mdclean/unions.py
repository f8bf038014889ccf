"""A token-union domain's values, 2^k - 1 of them for k single tokens, read
lazily in sorted order.  A module of its own, so that a command that reads
none of them, such as `chase`, never compiles it.
"""

from __future__ import annotations

import functools
import heapq
import operator
from typing import Iterator

from .model import token_canonical, tokens


class TokenUnions:
    """A token-union domain's values: the active values and the canonical
    spelling of every union of their token sets (`""` when an active value
    has no token).  Iteration yields them in sorted order and computes only
    as far as it is read; `in` answers without enumerating them.
    """

    def __init__(self, active: frozenset[str]):
        self.active = active
        self.token_free = any(not tokens(v) for v in active)
        self._sets = {tokens(v) for v in active} - {frozenset()}

    def __contains__(self, value: str) -> bool:
        if value in self.active:
            return True
        toks = tokens(value)
        if value != token_canonical(toks):
            return False
        covered = frozenset().union(*(s for s in self._sets if s <= toks))
        return covered == toks if toks else self.token_free

    def __iter__(self) -> Iterator[str]:
        extra = sorted(v for v in self.active if v != token_canonical(tokens(v)))
        if any(c < " " for s in self._sets for t in s for c in t):
            # " " no longer sorts below every character of a token, so the
            # tuple order of sorted tokens is not the order of their spellings
            return iter(sorted([*self._spellings(), *extra]))
        return heapq.merge(self._spellings(), extra)

    def __len__(self) -> int:
        """The number of values, counted by reading them all."""
        return sum(1 for _ in self)

    def _spellings(self) -> Iterator[str]:
        """The canonical spelling of each union (`""` first, for the empty
        one), in the tuple order of its sorted tokens: a preorder walk over
        token prefixes, as bit masks of token ranks, that enters a prefix
        ending at rank j only when some union cut to the ranks up to j equals
        it, and yields it when the sets inside it cover it."""
        names = sorted(frozenset().union(*self._sets))
        rank = {name: i for i, name in enumerate(names)}
        masks = [sum(1 << rank[t] for t in s) for s in self._sets]

        def covered(prefix: int, low: int) -> bool:
            # the sets cut to the ranks in `low` that lie inside `prefix` join to it
            inside = (cut for m in masks if (cut := m & low) | prefix == prefix)
            return functools.reduce(operator.or_, inside, 0) == prefix

        stack = [(0, 0, "")]  # prefix mask, first rank to extend by, spelling
        while stack:
            prefix, start, text = stack.pop()
            if covered(prefix, -1) if prefix else self.token_free:
                yield text
            stack += reversed([
                (child, j + 1, f"{text} {names[j]}" if text else names[j])
                for j in range(start, len(names))
                if covered(child := prefix | 1 << j, (2 << j) - 1)
            ])
