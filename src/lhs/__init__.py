"""Toolkit for the two-dimensional modal logic of the hide-and-seek game.

Each exported name loads its module on first use (PEP 562): `from lhs import
parse` loads `lhs.syntax` alone.
"""

import importlib

_EXPORTS = {
    "bisim": "ClauseViolation PairRelation are_bisimilar check_bisimulation_witness "
             "largest_bisimulation",
    "decide": "Verdict brute_force_sat_oracle k_sat lhs_bounded_sat lhs_minus_sat lhs_minus_valid",
    "errors": "ContainsI FormulaSyntaxError InputError InvalidTiling LhsError ModalInput "
              "ModelFormatError NotClean ResourceGuard SideViolation UnknownState",
    "model": "Model enumerate_models load_model model_doc save_model",
    "normal": "CleanCNF clean_to_cnf companion prop_cnf",
    "proof": "ProofLine check_proof load_proof substitute",
    "semantics": "check check_all fo_eval fo_render fo_translate",
    "syntax": "And Atom BBox BDia Bot EqConst Formula Iff Implies Not Or PropName Side Top "
              "WBox WDia left_atom parse prop_names render right_atom subformulas",
    "tiling": "PeriodicTiling Tile TileSet generate_phi load_tileset load_tiling torus_model "
              "validate_tiling",
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_MODULE[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
