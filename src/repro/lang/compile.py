"""Condition compilation: closures instead of interpreted test walks.

The match phase dominates cycle time (Section 5's sweeps; the
critical-path reports attribute most of each cycle to the ``match``
bucket), so no matcher walks a condition element's test list per WME
probe.  This module compiles each
:class:`~repro.lang.ast.ConditionElement` once into closures over
precomputed test tuples and the WME's cached attribute map, in two
layers.

Element level
-------------
A :class:`CompiledCondition`, cached on the element, holds

* ``alpha(wme) -> bool`` — the relation + constant-test +
  constant-predicate check (the alpha-network filter), specialized to
  the element's actual test shape (relation-only and constants-only
  elements get dedicated, branch-free closures);
* ``beta(wme, bindings) -> dict | None`` — the variable bind/join tests
  and variable-operand predicates over a binding dict: the
  element's own ``beta_matches``/``matches`` API, for callers that hold
  one element and no production.

Production level: slotted tokens
--------------------------------
Matchers never build binding dicts.  A :class:`VariableIndex` built
once per production maps each variable name to a fixed slot, tokens are
plain tuples (one slot per variable, :data:`_MISSING` when unbound),
and :func:`compile_beta_slots` emits closures that read/write slots by
integer index, copying lazily — a pure join probe that binds nothing
returns the incoming token object unchanged.  Every matcher takes the
production's one :class:`SlottedPlan`
(:meth:`~repro.lang.production.Production.token_plan`); the plan
carries one :class:`SlottedStep` per condition element, compiled
against the LHS-prefix widths so Rete's shared beta prefixes keep
sharing (two productions with a common prefix assign identical slots
to the prefix's variables).

Join order
----------
A plan is compiled over an element *sequence*, and the written LHS is
only one such sequence.  :func:`join_order` picks the one Rete joins in
— the written order with the elements the rule's own RHS modifies or
removes sunk last, so a firing stops tearing down the partial matches
of everything written after them — and
:meth:`~repro.lang.production.Production.join_plan` is the same
:class:`SlottedPlan` class built over that permutation (the very same
object as ``token_plan()`` when nothing moves).  The one thing a
permuted sequence needs beyond the written one is in
:func:`deferred_predicates`: a variable predicate whose operand is not
bound yet at its own step is tested at the step that binds it.  The
order is a function of the production alone — no rule set, data or
switch enters — and the matchers that store no partial matches (naive,
TREAT, cond) keep the written-order plan.

Semantics
---------
A predicate referencing an unbound variable raises
``ValidationError`` (unreachable for validated productions —
:meth:`~repro.lang.production.Production.validate` rejects such rules
at load time — but kept for bare condition elements); ordering across
unlike types is ``False``/``None``; a stored ``None`` is a value, an
absent attribute never matches.  ``tests/match/reference_matcher.py``
re-derives whole conflict sets by brute force from the AST, sharing
no code with this module, and the equivalence suites hold every
matcher to it.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Callable

from repro.errors import ValidationError
from repro.wm.element import Scalar, WME

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lang.ast import ConditionElement
    from repro.lang.production import Production

#: Sentinel distinguishing "attribute absent" from a stored ``None``.
_MISSING = object()

AlphaEvaluator = Callable[[WME], bool]
BetaEvaluator = Callable[[WME, "Bindings"], "dict[str, Scalar] | None"]


class CompiledCondition:
    """One condition element's precompiled evaluators and test layout.

    Attributes
    ----------
    alpha, beta:
        The two closures described in the module docstring.
    match:
        Convenience composition: ``beta(wme, bindings)`` when
        ``alpha(wme)`` passes, else ``None``.
    constant_equalities:
        ``(attribute, value)`` pairs from the constant tests — the
        index-probe keys the naive/TREAT candidate selectors use.
    variable_items:
        ``(attribute, variable)`` pairs from the variable tests — the
        pool a step's join key is drawn from.
    """

    __slots__ = (
        "element",
        "alpha",
        "beta",
        "match",
        "constant_equalities",
        "variable_items",
    )

    def __init__(self, element: "ConditionElement") -> None:
        self.element = element
        self.alpha = alpha = compile_alpha(element)
        self.beta = beta = compile_beta(element)
        self.constant_equalities = tuple(
            (t.attribute, t.value) for t in element.constant_tests()
        )
        self.variable_items = tuple(
            (t.attribute, t.variable) for t in element.variable_tests()
        )

        def match(
            wme: WME,
            bindings=None,
            *,
            _alpha=alpha,
            _beta=beta,
        ):
            if not _alpha(wme):
                return None
            return _beta(wme, bindings if bindings is not None else {})

        self.match = match


# ---------------------------------------------------------------------------
# Compiled closures
# ---------------------------------------------------------------------------


def compile_alpha(element: "ConditionElement") -> AlphaEvaluator:
    """Compile the relation + constant-test check into one closure."""
    from repro.lang.ast import _PREDICATES

    relation = element.relation
    const_items = tuple(
        (t.attribute, t.value) for t in element.constant_tests()
    )
    pred_items = tuple(
        (t.attribute, _PREDICATES[t.op], t.operand)
        for t in element.constant_predicates()
    )

    if not const_items and not pred_items:

        def alpha_relation_only(wme: WME, *, _relation=relation) -> bool:
            return wme.relation == _relation

        return alpha_relation_only

    if not pred_items:

        def alpha_constants(
            wme: WME,
            *,
            _relation=relation,
            _items=const_items,
            _missing=_MISSING,
        ) -> bool:
            if wme.relation != _relation:
                return False
            mapping = wme.mapping()
            for attribute, expected in _items:
                if mapping.get(attribute, _missing) != expected:
                    return False
            return True

        return alpha_constants

    def alpha_full(
        wme: WME,
        *,
        _relation=relation,
        _items=const_items,
        _preds=pred_items,
        _missing=_MISSING,
    ) -> bool:
        if wme.relation != _relation:
            return False
        mapping = wme.mapping()
        for attribute, expected in _items:
            if mapping.get(attribute, _missing) != expected:
                return False
        for attribute, compare, operand in _preds:
            value = mapping.get(attribute, _missing)
            if value is _missing:
                return False
            try:
                if not compare(value, operand):
                    return False
            except TypeError:
                # Ordering across unlike types is False (seed semantics).
                return False
        return True

    return alpha_full


def compile_beta(element: "ConditionElement") -> BetaEvaluator:
    """Compile the variable bind/join tests into one closure."""
    from repro.lang.ast import _PREDICATES

    var_items = tuple(
        (t.attribute, t.variable) for t in element.variable_tests()
    )
    pred_items = tuple(
        (t.attribute, _PREDICATES[t.op], str(t.operand), t)
        for t in element.variable_predicates()
    )

    if not var_items and not pred_items:
        # A test-free element binds nothing, and no caller mutates a
        # beta result before the next extension copies it anyway — so
        # hand the incoming token back unchanged instead of allocating
        # a fresh dict per probe (the allocation-count tests pin this).

        def beta_pass(wme: WME, bindings) -> dict[str, Scalar]:
            return bindings

        return beta_pass

    def beta(
        wme: WME,
        bindings,
        *,
        _vars=var_items,
        _preds=pred_items,
        _missing=_MISSING,
    ) -> dict[str, Scalar] | None:
        mapping = wme.mapping()
        extended = dict(bindings)
        for attribute, variable in _vars:
            value = mapping.get(attribute, _missing)
            if value is _missing:
                return None
            prior = extended.get(variable, _missing)
            if prior is _missing:
                extended[variable] = value
            elif prior != value:
                return None
        for attribute, compare, operand_name, test in _preds:
            value = mapping.get(attribute, _missing)
            if value is _missing:
                return None
            operand = extended.get(operand_name, _missing)
            if operand is _missing:
                raise ValidationError(
                    f"predicate {test} references unbound variable "
                    f"<{operand_name}>"
                )
            try:
                if not compare(value, operand):
                    return None
            except TypeError:
                return None
        return extended

    return beta


# ---------------------------------------------------------------------------
# Slotted token layouts
# ---------------------------------------------------------------------------

#: Token in the slotted layout: one slot per variable, ``_MISSING``
#: when unbound.  Tokens grow along the LHS — at condition element
#: ``i`` a token has ``VariableIndex.prefix_widths[i]`` slots.
SlotToken = tuple
SlottedBeta = Callable[[WME, SlotToken], "SlotToken | None"]
#: One step's deferred-predicate signature ``(skipped, landed)``: the
#: element's own variable predicates the step leaves out, and the
#: ``(op, left slot, operand slot)`` comparisons of earlier elements it
#: runs instead (:func:`deferred_predicates`).  Both empty in every
#: written-order plan.
Deferred = tuple[tuple, tuple]


class VariableIndex:
    """Variable name → slot mapping for one production's LHS.

    Slots are assigned in first-occurrence order walking the LHS left
    to right (variable tests in test order, then variable-predicate
    operands, per element), *including* negated elements: their local
    variables get slots too — the existential probe binds them into a
    discarded copy, so the slot simply stays :data:`_MISSING` in every
    persisted token.  Because the assignment is a pure function of the
    element sequence, two productions sharing an LHS prefix assign
    identical slots to the prefix's variables — which is what lets
    Rete's shared beta prefixes keep sharing join nodes.
    """

    __slots__ = (
        "names",
        "slots",
        "width",
        "empty",
        "prefix_widths",
        "_sorted_items",
    )

    def __init__(self, elements: "tuple[ConditionElement, ...]") -> None:
        names: list[str] = []
        seen: set[str] = set()
        widths = [0]
        for element in elements:
            for test in element.variable_tests():
                if test.variable not in seen:
                    seen.add(test.variable)
                    names.append(test.variable)
            for pred in element.variable_predicates():
                operand = str(pred.operand)
                if operand not in seen:
                    seen.add(operand)
                    names.append(operand)
            widths.append(len(names))
        self.names = tuple(names)
        self.slots = {name: slot for slot, name in enumerate(names)}
        self.width = len(names)
        #: The all-unbound token of full width (shared; tuples are
        #: immutable so sharing is safe).
        self.empty = (_MISSING,) * self.width
        #: ``prefix_widths[i]`` = slots assigned by elements ``0..i-1``
        #: — the token width entering element ``i``.
        self.prefix_widths = tuple(widths)
        #: ``(name, slot)`` pairs in name order, for materializing
        #: sorted ``bindings_items`` without a per-call sort.
        self._sorted_items = tuple(sorted(self.slots.items()))

    @staticmethod
    def for_production(production: "Production") -> "VariableIndex":
        """The production's index, built once and cached on it."""
        try:
            return production._variable_index
        except AttributeError:
            pass
        index = VariableIndex(production.lhs)
        object.__setattr__(production, "_variable_index", index)
        return index

    def slot(self, name: str) -> int:
        """The slot assigned to variable ``name`` (KeyError if absent)."""
        return self.slots[name]

    def __len__(self) -> int:
        return self.width

    def __contains__(self, name: object) -> bool:
        return name in self.slots

    def bindings_items(
        self, token: SlotToken
    ) -> tuple[tuple[str, Scalar], ...]:
        """The bound ``(name, value)`` pairs of a full-width token,
        sorted by name."""
        missing = _MISSING
        return tuple(
            (name, token[slot])
            for name, slot in self._sorted_items
            if token[slot] is not missing
        )

    def token_from_items(
        self, items: "tuple[tuple[str, Scalar], ...]"
    ) -> SlotToken:
        """Rebuild a full-width token from ``bindings_items`` pairs."""
        token = list(self.empty)
        slots = self.slots
        for name, value in items:
            slot = slots.get(name)
            if slot is not None:
                token[slot] = value
        return tuple(token)


def bound_prefixes(
    elements: "tuple[ConditionElement, ...]",
) -> tuple[frozenset[str], ...]:
    """``result[i]`` = the variables an LHS prefix of ``i`` elements
    binds: those with a variable test in a *positive* element.

    A negated element's local variables are bound only inside its own
    existential probe, so they never count — even though the slotted
    layout assigns them a slot (which stays :data:`_MISSING` in every
    persisted token).  A step's join key is drawn from this set, so
    every key slot of a written-order token is bound.
    """
    bound: set[str] = set()
    prefixes = [frozenset()]
    for element in elements:
        if not element.negated:
            bound.update(t.variable for t in element.variable_tests())
        prefixes.append(frozenset(bound))
    return tuple(prefixes)


def compile_beta_slots(
    element: "ConditionElement",
    index: VariableIndex,
    in_width: int,
    out_width: int,
    deferred: Deferred = ((), ()),
) -> SlottedBeta:
    """Compile the variable bind/join tests into a slot-aware closure.

    The closure takes a token of ``in_width`` slots and returns one of
    ``out_width`` slots (or ``None`` on rejection).  Slots in
    ``[in_width, out_width)`` are this element's first occurrences;
    they read as unbound without touching the (shorter) incoming
    token.  The copy is lazy: a probe that binds nothing returns the
    incoming token object itself (padded only when the widths differ)
    — the join fast path allocates nothing.

    ``deferred`` is the step's ``(skipped, landed)`` pair from
    :func:`deferred_predicates`: the element's own variable predicates
    in ``skipped`` are left out, and each ``(op, left, right)`` of
    ``landed`` is tested slot against slot on the extended token.
    """
    from repro.lang.ast import _PREDICATES

    skipped, landed = deferred
    if landed:
        own = compile_beta_slots(
            element, index, in_width, out_width, (skipped, ())
        )
        return _with_landed(
            own, tuple((_PREDICATES[op], a, b) for op, a, b in landed)
        )
    slots = index.slots
    var_items = tuple(
        (t.attribute, slots[t.variable], slots[t.variable] < in_width)
        for t in element.variable_tests()
    )
    pred_items = tuple(
        (
            t.attribute,
            _PREDICATES[t.op],
            slots[str(t.operand)],
            slots[str(t.operand)] < in_width,
            t,
        )
        for t in element.variable_predicates()
        if t not in skipped
    )
    tail = (_MISSING,) * (out_width - in_width)

    if not var_items and not pred_items:
        if not tail:

            def beta_pass_slots(wme: WME, token: SlotToken) -> SlotToken:
                return token

            return beta_pass_slots

        def beta_pad_slots(
            wme: WME, token: SlotToken, *, _tail=tail
        ) -> SlotToken:
            return token + _tail

        return beta_pad_slots

    def beta_slots(
        wme: WME,
        token: SlotToken,
        *,
        _vars=var_items,
        _preds=pred_items,
        _missing=_MISSING,
        _tail=tail,
    ) -> "SlotToken | None":
        mapping = wme.mapping()
        extended = None
        for attribute, slot, in_token in _vars:
            value = mapping.get(attribute, _missing)
            if value is _missing:
                return None
            if extended is not None:
                prior = extended[slot]
            elif in_token:
                prior = token[slot]
            else:
                prior = _missing
            if prior is _missing:
                if extended is None:
                    extended = list(token)
                    extended.extend(_tail)
                extended[slot] = value
            elif prior != value:
                return None
        for attribute, compare, slot, in_token, test in _preds:
            value = mapping.get(attribute, _missing)
            if value is _missing:
                return None
            if extended is not None:
                operand = extended[slot]
            elif in_token:
                operand = token[slot]
            else:
                operand = _missing
            if operand is _missing:
                raise ValidationError(
                    f"predicate {test} references unbound variable "
                    f"<{test.operand}>"
                )
            try:
                if not compare(value, operand):
                    return None
            except TypeError:
                return None
        if extended is None:
            return token + _tail if _tail else token
        return tuple(extended)

    return beta_slots


def _with_landed(beta: SlottedBeta, landed: tuple) -> SlottedBeta:
    """``beta`` followed by the predicates deferred to its step, each
    ``compare(token[left], token[right])`` on the extended token — the
    operator keeps its direction, and ordering across unlike types is
    no match, as in ``beta_slots``."""

    def beta_landed(
        wme: WME, token: SlotToken, *, _beta=beta, _landed=landed
    ) -> "SlotToken | None":
        extended = _beta(wme, token)
        if extended is None:
            return None
        for compare, left, right in _landed:
            try:
                if not compare(extended[left], extended[right]):
                    return None
            except TypeError:
                return None
        return extended

    return beta_landed


def deferred_predicates(
    elements: "tuple[ConditionElement, ...]",
    index: VariableIndex,
    bound: tuple[frozenset[str], ...],
) -> tuple[Deferred, ...]:
    """Per step of the element sequence, its :data:`Deferred` pair.

    A positive element's variable predicate whose operand neither an
    earlier positive element nor the element itself binds cannot run
    at its own step.  It is *skipped* there and *lands* on the first
    step whose element binds the operand, as a comparison between the
    slot of the variable the element bound to the tested attribute and
    the operand's slot.  In written order a validated production
    defers nothing; a join order that moves an element above the
    binder of its operand does (:func:`join_order` only does so where
    the attribute has such a variable).  Negated elements never defer:
    their predicates read what is bound on arrival or inside the
    negation.
    """
    slots = index.slots
    pending: list[tuple[str, tuple[str, int, int]]] = []
    steps = []
    for position, element in enumerate(elements):
        if element.negated:
            steps.append(((), ()))
            continue
        leaving = bound[position + 1]
        skipped = tuple(
            pred
            for pred in element.variable_predicates()
            if str(pred.operand) not in leaving
        )
        landed = tuple(sig for name, sig in pending if name in leaving)
        pending = [item for item in pending if item[0] not in leaving]
        if skipped:
            attribute_slot = {
                attribute: slots[variable]
                for attribute, variable in reversed(
                    element.compiled().variable_items
                )
            }
            for pred in skipped:
                name = str(pred.operand)
                left = attribute_slot[pred.attribute]
                pending.append((name, (pred.op, left, slots[name])))
        steps.append((skipped, landed))
    return tuple(steps)


class SlottedStep:
    """One condition element compiled against a production's slots.

    ``beta``/``match`` take a token of ``in_width`` slots and return
    one of ``out_width`` (the widths are the plan index's prefix
    widths at this step).  ``deferred`` is the step's
    :data:`Deferred` pair — empty in every written-order plan.
    """

    __slots__ = (
        "element",
        "relation",
        "negated",
        "alpha",
        "beta",
        "match",
        "probe_items",
        "constant_equalities",
        "in_width",
        "out_width",
        "tail",
        "deferred",
        "_prefix_mask",
    )

    def __init__(
        self,
        element: "ConditionElement",
        index: VariableIndex,
        in_width: int,
        out_width: int,
        bound: frozenset[str],
        deferred: Deferred = ((), ()),
    ) -> None:
        compiled = element.compiled()
        self.element = element
        self.relation = element.relation
        self.negated = element.negated
        self.alpha = compiled.alpha
        self.constant_equalities = compiled.constant_equalities
        self.in_width = in_width
        self.out_width = out_width
        self.tail = (_MISSING,) * (out_width - in_width)
        self.deferred = deferred
        beta = compile_beta_slots(
            element, index, in_width, out_width, deferred
        )
        self.beta = beta
        alpha = compiled.alpha

        def match(
            wme: WME, token: SlotToken, *, _alpha=alpha, _beta=beta
        ) -> "SlotToken | None":
            if not _alpha(wme):
                return None
            return _beta(wme, token)

        self.match = match
        #: Per incoming slot, whether an earlier positive element binds
        #: it (the others stay unbound until after this element).
        self._prefix_mask = tuple(
            name in bound for name in index.names[:in_width]
        )
        #: The element's *join key*: ``(attribute, slot)`` pairs of
        #: its variable tests whose variable an earlier positive
        #: element binds (``bound``) — equalities by the time a token
        #: reaches this element.  Naive/TREAT extend their store
        #: probes with them; Rete hashes its memories on them.
        slots = index.slots
        self.probe_items = tuple(
            (attribute, slots[variable])
            for attribute, variable in compiled.variable_items
            if variable in bound
        )

    def probe_equalities(
        self, token: SlotToken
    ) -> list[tuple[str, Scalar]]:
        """Constant equalities plus the join key's equalities, read
        off a written-order token (whose key slots are all bound)."""
        equalities = list(self.constant_equalities)
        for attribute, slot in self.probe_items:
            equalities.append((attribute, token[slot]))
        return equalities

    def prefix_of(self, full: SlotToken) -> SlotToken:
        """The written-order token a match had on *reaching* this
        element, cut from its full-width token: a variable bound only
        later — or only inside an earlier negation — reads unbound,
        as it did when the element was tested."""
        missing = _MISSING
        return tuple(
            [
                value if keep else missing
                for value, keep in zip(full, self._prefix_mask)
            ]
        )

    def carry(self, token: SlotToken) -> SlotToken:
        """Pass a token over this element unchanged, padded to
        ``out_width`` (negated elements contribute no bindings but
        still advance the prefix width)."""
        return token + self.tail if self.tail else token


#: Lazily imported to keep ``repro.lang`` importable without pulling
#: the whole match package in (plans are only built by matchers).
_INSTANTIATION = None


def _instantiation_class():
    global _INSTANTIATION
    if _INSTANTIATION is None:
        from repro.match.instantiation import Instantiation

        _INSTANTIATION = Instantiation
    return _INSTANTIATION


class SlottedPlan:
    """A production's match plan: index + one step per element.

    ``order`` lists the 0-based LHS positions in step order.  Without
    one the steps follow the written LHS (the plan of
    :meth:`~repro.lang.production.Production.token_plan`); with one —
    :func:`join_order`'s, for :meth:`~repro.lang.production.Production.
    join_plan` — slots, join keys and deferred predicates are compiled
    over the permuted element sequence.  Either way
    :meth:`instantiate` takes the matched WMEs in *written* order:
    :attr:`in_lhs_order` puts a step-order path back.
    """

    __slots__ = (
        "production",
        "order",
        "index",
        "steps",
        "in_lhs_order",
        "_instantiation",
    )

    def __init__(
        self, production: "Production", order: "tuple[int, ...] | None" = None
    ) -> None:
        self.production = production
        lhs = production.lhs
        if order is None:
            order = tuple(range(len(lhs)))
            elements = lhs
            index = VariableIndex.for_production(production)
        else:
            elements = tuple(lhs[i] for i in order)
            index = VariableIndex(elements)
        self.order = order
        self.index = index
        widths = index.prefix_widths
        bound = bound_prefixes(elements)
        deferred = deferred_predicates(elements, index, bound)
        self.steps = tuple(
            SlottedStep(
                element, index, widths[i], widths[i + 1], bound[i], deferred[i]
            )
            for i, element in enumerate(elements)
        )
        #: ``wmes -> wmes``: the positive elements' WMEs of a match,
        #: from step order into written LHS order; ``None`` when the
        #: two agree.
        positives = [i for i in order if not lhs[i].negated]
        ranks = tuple(positives.index(i) for i in sorted(positives))
        self.in_lhs_order = (
            None if ranks == tuple(range(len(ranks))) else itemgetter(*ranks)
        )
        self._instantiation = _instantiation_class()

    def empty_token(self) -> SlotToken:
        return ()

    def instantiate(self, wmes: tuple[WME, ...], token: SlotToken):
        """A conflict-set instantiation from the matched WMEs in
        written LHS order and a full-width token —
        ``bindings_items`` materializes lazily from the slot vector."""
        return self._instantiation.from_slots(
            self.production, wmes, token, self.index
        )

    def token_of(self, instantiation) -> SlotToken:
        """The instantiation's full bindings as a full-width token."""
        return instantiation.slot_token(self.index)


# ---------------------------------------------------------------------------
# Join order
# ---------------------------------------------------------------------------


def join_order(production: "Production") -> tuple[int, ...]:
    """The 0-based LHS positions in the order Rete should join them:
    the written order with the rule's own volatile elements sunk last.

    The order encodes a certainty, not a statistic: a rule that
    modifies or removes its own k-th element kills every partial match
    through that element each time it fires, so everything joined
    below it is rebuilt per firing.  It reads nothing but the
    production, so every matcher, shard and worker process derives the
    same one.

    *Sunk set.*  Seeded with the positive elements the RHS names in
    ``modify k`` / ``remove k``, then closed in one pass in written
    order, with ``first(v)`` the first positive element carrying a
    variable test on ``v``.  A positive element sinks when it has key
    variables (those of its variable tests that an earlier element
    first binds) and sunk elements first bind all of them — it was a
    lookup *from* a volatile element — or when it carries a variable
    predicate whose operand a sunk element first binds on an attribute
    it does not also bind to a variable (nothing to defer the
    comparison from).  A negated element sinks when a sunk element
    first binds a variable it reads on arrival.

    *Order.*  The kept elements in written order, then the sunk ones
    in written order.  A kept element's predicate on a sunk operand is
    deferred to the step that binds it (:func:`deferred_predicates`).

    *Guards — the written order stands* when nothing or everything
    sinks; when a kept positive element with variable tests, other
    than the first such, has no key variable a kept element first
    binds (the stable prefix would store a cross product the written
    order never stored); and when a negated element would arrive with
    a different set of its variables bound than in written order (a
    negation reads only what earlier *written* positives bind: in
    ``-(a ^k <x>) (b ^k <x>)`` the ``<x>`` is local to the negation).
    """
    from repro.lang.ast import ModifyAction, RemoveAction

    lhs = production.lhs
    written = tuple(range(len(lhs)))
    sunk = {
        action.ce_index - 1
        for action in production.rhs
        if isinstance(action, (ModifyAction, RemoveAction))
    }
    if not sunk:
        return written
    first: dict[str, int] = {}
    for i, element in enumerate(lhs):
        if not element.negated:
            for test in element.variable_tests():
                first.setdefault(test.variable, i)
    for i, element in enumerate(lhs):
        if i in sunk:
            continue
        if element.negated:
            # Variables local to the negation have no earlier binder.
            if any(
                first.get(name, i) < i and first[name] in sunk
                for name in element.variables()
            ):
                sunk.add(i)
            continue
        tests = element.variable_tests()
        key = [t.variable for t in tests if first[t.variable] < i]
        bound_attributes = {t.attribute for t in tests}
        if (key and all(first[name] in sunk for name in key)) or any(
            first[str(pred.operand)] in sunk
            and pred.attribute not in bound_attributes
            for pred in element.variable_predicates()
        ):
            sunk.add(i)
    kept = [i for i in written if i not in sunk]
    order = (*kept, *sorted(sunk))
    if order == written:  # also when everything sank
        return written
    keyed = [
        i for i in kept if not lhs[i].negated and lhs[i].variable_tests()
    ]
    for i in keyed[1:]:
        if not any(
            first[t.variable] < i and first[t.variable] not in sunk
            for t in lhs[i].variable_tests()
        ):
            return written
    arriving_written = bound_prefixes(lhs)
    arriving = bound_prefixes(tuple(lhs[i] for i in order))
    for step, i in enumerate(order):
        if lhs[i].negated:
            names = lhs[i].variables()
            if names & arriving[step] != names & arriving_written[i]:
                return written
    return order


#: The name ``match/cond.py`` imports for its annotations; it leaves
#: with that matcher (ROADMAP item 6e).
TokenPlan = SlottedPlan
