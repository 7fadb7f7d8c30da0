"""Exact combinatorial computations for ladder determinantal rings of 2-minors.

The names from ``ladders`` and ``decompose`` are bound on import; those from
``classgroup``, ``rewrite`` and ``sdm`` are imported on first access
(PEP 562), so a program that uses only the structural layer never loads them.
"""

from importlib import import_module

__version__ = "0.1.0"

# Every public name, by the submodule that defines it.
_EXPORTS = {
    "ladders": """Cell CornerProfile Ladder LadderError ValidationReport antitranspose
        compose corners parse_ascii parse_auto parse_json render_ascii
        require_analyzable validate""",
    "decompose": "Factorization decompose",
    "classgroup": """BasisLabel DivisorClass P Q QPrime basis canonical_class
        ideal_generators qprime_class""",
    "rewrite": """MAX_DEGREE_BOUND Monomial RewriteSystem WitnessCase WitnessReport
        equal_mod_minors ideal_monomials_bounded intersect_bounded normal_form
        verify_witnesses""",
    "sdm": "FactorReport SdmReport classify construct_2n is_gorenstein",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups no longer reach this function
    return value


# Bind the structural layer now.  Loading the ``decompose`` submodule sets the
# package attribute ``decompose`` to the module; binding here, after that load,
# makes it the function for good, whichever submodule a caller imports first.
for _name in (n for n, module in _HOME.items() if module in ("ladders", "decompose")):
    __getattr__(_name)
del _name
