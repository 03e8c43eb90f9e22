"""Toolkit for the two-dimensional modal logic of the hide-and-seek game."""

from .bisim import (
    ClauseViolation,
    PairRelation,
    are_bisimilar,
    check_bisimulation_witness,
    largest_bisimulation,
)
from .decide import (
    Verdict,
    brute_force_sat_oracle,
    k_sat,
    lhs_bounded_sat,
    lhs_minus_sat,
    lhs_minus_valid,
)
from .errors import (
    ContainsI,
    FormulaSyntaxError,
    InputError,
    InvalidTiling,
    LhsError,
    MixedFormula,
    ModalInput,
    ModelFormatError,
    NotClean,
    ResourceGuard,
    SideViolation,
    UnknownState,
)
from .model import (
    Model,
    disjoint_union,
    enumerate_models,
    load_model,
    model_doc,
    save_model,
)
from .normal import CleanCNF, clean_to_cnf, companion, prop_cnf
from .proof import ProofLine, check_proof, load_proof
from .semantics import check, check_all, fo_eval, fo_render, fo_translate
from .syntax import (
    And,
    Atom,
    BBox,
    BDia,
    Bot,
    EqConst,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    PropName,
    Side,
    Top,
    WBox,
    WDia,
    left_atom,
    parse,
    prop_names,
    render,
    right_atom,
    subformulas,
    substitute,
)
from .tiling import (
    PeriodicTiling,
    Tile,
    TileSet,
    generate_phi,
    load_tileset,
    load_tiling,
    torus_model,
    validate_tiling,
)

__version__ = "0.1.0"
