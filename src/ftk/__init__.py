"""ftk: exact-arithmetic classification of Galois covers of the formal
punctured disk Spec F_q((t)).

Submodules: fields (finite fields and local test rings), series
(truncated Laurent series), artin_schreier (wild Z/pZ and elementary
abelian covers), kummer (tame cyclic covers), semidirect (H x| C_n
torsors), groupoids (ind-scheme points and finite-groupoid machinery),
oracles (independent brute-force cross-checks), cli (command line).
"""

from .errors import (
    DomainError,
    FtkError,
    NotInvertible,
    OracleMismatch,
    ParseError,
    PrecisionExhausted,
)
from .fields import (
    FieldSpec,
    FqElem,
    TestRingElem,
    TestRingSpec,
    as_residue_solve,
    field,
    frobenius,
    nth_power_class,
    pth_root,
    test_ring,
)
from .series import (
    LaurentSeries,
    PartsDecomposition,
    default_prec,
)
from .artin_schreier import (
    ASCanonical,
    ASWitness,
    as_break,
    as_canonicalize,
    as_iso_witness,
    as_moduli_point,
    elemab_canonicalize,
    elemab_enumerate,
    elemab_iso_witness,
    enumerate_as_classes,
)
from .kummer import (
    KummerClass,
    enumerate_kummer_classes,
    kummer_automorphisms,
    kummer_canonicalize,
    kummer_iso_witness,
)
from .semidirect import (
    GTorsorClass,
    SemidirectGroup,
    TameFrame,
    ZPhiObject,
    enumerate_g_torsors,
    phi_apply,
    reduce_to_coprime,
    vn_check,
    zphi_solve,
)
from .groupoids import (
    CentralAutSubgroup,
    FinGroup,
    FiniteGroupoid,
    GroupoidFunctor,
    IndPoint,
    SetSystem,
    SystemMap,
    bg,
    colim_fiber_product_check,
    groupoid_fiber_product,
    groupoid_mass,
    level_count,
    rigidify,
)
from .parse import parse_field_elem, parse_series, render_series

__version__ = "0.1.0"
