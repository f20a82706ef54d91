"""Rule-language substrate: an OPS5-style production language.

The paper's model (Section 2)::

    <Production>: if <condition> then <action>.

The LHS is a conjunction of *condition elements* (patterns over working
memory relations, with variables, constant tests, predicate tests and
negation); the RHS is a list of *create* / *modify* / *delete* actions
plus the usual OPS5 conveniences (``bind``, ``write``, ``halt``).

Rules can be written either as text in the DSL and parsed with
:func:`~repro.lang.parser.parse_production`, or constructed
programmatically with :class:`~repro.lang.builder.RuleBuilder`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "ast": (
            "Bindings", "ConditionElement", "ConstantTest", "VariableTest",
            "PredicateTest", "Constant", "VariableRef", "BinaryExpr",
            "ValueExpr", "MakeAction", "ModifyAction", "RemoveAction",
            "BindAction", "WriteAction", "HaltAction",
        ),
        "production": ("Production",),
        "parser": ("parse_production", "parse_program"),
        "builder": ("RuleBuilder",),
    },
)
