"""Nonevasiveness certificates, collapse sequences, and chain-query
strategies for finite bounded lattices."""

from .certify import (
    AuditReport,
    CertifyTrace,
    Leaf,
    Prune,
    Split,
    VerifyResult,
    audit_certificate,
    certificate_complex,
    certificate_from_obj,
    certificate_ground,
    certificate_to_obj,
    certify,
    extract_collapses,
    interior_members,
    verify_certificate,
)
from .chain_game import (
    Answer,
    GameReport,
    Query,
    Transcript,
    compile_strategy,
    exhaustive_check,
    play,
    strategy_from_obj,
    strategy_to_obj,
)
from .complexes import (
    CollapsePair,
    CollapseSequence,
    Complex,
    order_complex,
    replay_collapses,
)
from .lattice import (
    Lattice,
    Poset,
    dedekind_macneille,
    format_lattice,
    generate,
    parse_lattice,
    product_lattice,
)
from .oracles import (
    brute_certificate,
    brute_collapsible,
    brute_nonevasive,
    find_noncomplemented_element,
    mobius,
)

__version__ = "0.1.0"
