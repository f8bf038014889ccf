"""Reference values and similarity preservation, by brute force.

`token_union_closure` builds a token-union domain's values whole: the
active values and the canonical spelling of every union of their token sets,
each set joined with every union of the sets before it.  `preserving` runs
the similarity-preservation loop over each written domain's sorted values,
with the token-union domains closed that way and no closed form.
`unions.TokenUnions` must iterate in the order of `sorted` over the closure
and answer `in` as membership, and `classify.is_similarity_preserving` must
return what `preserving` returns, counterexample included.
"""

from __future__ import annotations

from mdclean.model import token_canonical, tokens
from mdclean.unions import TokenUnions


def token_union_closure(active: frozenset[str]) -> frozenset[str]:
    """The active values and the spelling of every union of their token sets."""
    closed: set[frozenset[str]] = set()
    for toks in {tokens(v) for v in active}:
        closed |= {toks} | {toks | other for other in closed}
    return active | frozenset(token_canonical(s) for s in closed)


def domain_values(smf, dom: str) -> list[str]:
    """A saturated domain's values, closed and sorted."""
    values = smf.values(dom)
    if isinstance(values, TokenUnions):
        values = token_union_closure(values.active)
    return sorted(values)


def preserving(rules, sim, smf):
    """(True, None), or (False, (domain, a, a2, a3, merged)) for the least
    a ~ a2 whose merge m(a2, a3) is not similar to a."""
    for dom in sorted({rule.rhs_domain for rule in rules}):
        merge = smf.domain(dom)[0]
        values = domain_values(smf, dom)
        for a in values:
            for a2 in values:
                if not sim.similar(dom, a, a2):
                    continue
                for a3 in values:
                    merged = merge(a2, a3)
                    if merged is not None and not sim.similar(dom, a, merged):
                        return False, (dom, a, a2, a3, merged)
    return True, None
