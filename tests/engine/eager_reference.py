"""The wave ranked with every match built, as before admission pulled
its ranking lazily.

Under wave admission ``ParallelEngine`` pulls its ranking one candidate
at a time: a Rete tail's pending seed builds a match only when
admission takes it, and a seed whose rule rewrites its element stops
once an admitted slot writes that element's data object
(``Eligible.ranked``).  This subclass settles every pending seed
before it ranks and then sorts the whole conflict set, kept as the
reference model: tests run both and require the same commits.
"""

from __future__ import annotations

from repro.engine.parallel import ParallelEngine


class EagerParallelEngine(ParallelEngine):
    """Every seed built, then the eligible members sorted in full."""

    def _ranking(self, eligible, width):
        self.matcher.conflict_set.settle()
        yield from self.strategy.order(eligible)


def every_match(pending) -> list:
    """Every match of ``pending``'s rule through its seed's element,
    unbuilt, in no order: each tail assignment joined with every
    prefix token it completes."""
    seed, plan = pending.seed, pending.plan
    found = [None] * len(seed.tail.alphas)
    found[seed.position] = pending.wme
    assignments = []
    seed.tail.seed(seed, found, assignments.append)
    matches = []
    for wmes in assignments:
        tokens = seed.prefix_tokens(wmes)
        for token, data in seed.tail.completions(tokens, wmes):
            path = token.wmes() + wmes
            if plan.in_lhs_order is not None:
                path = plan.in_lhs_order(path)
            matches.append(plan.instantiate(path, data))
    return matches


def unbuilt(conflict_set) -> dict:
    """``{match: its pending seed}`` for every match neither built nor
    refracted whose newest element a pending seed holds; builds
    none."""
    found = {}
    for seeds in conflict_set._pending.values():
        for seed in seeds:
            for match in every_match(seed):
                if match._newest == seed._newest and not (
                    match in conflict_set or conflict_set.has_fired(match)
                ):
                    assert found.setdefault(match, seed) is seed
    return found


def commit_outcomes(engine) -> list[tuple]:
    """Every wave's ``(committed, deferred, aborted, ordered)``: what
    a lazy and an eager ranking must agree on (``held`` lists only the
    built candidates admission cut, so it may differ)."""
    return [
        (w.committed, w.deferred, w.aborted, w.ordered)
        for w in engine.waves
    ]
