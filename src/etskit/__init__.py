"""Trapping-set structure catalogs and cycle-based search for
variable-regular LDPC codes."""

from etskit.canon import CanonicalForm, are_isomorphic_oracle, canonical_form
from etskit.kernel import backend as kernel_backend
from etskit.lss import (
    ExpansionFrontier,
    classify_lss,
    enumerate_tanner_cycles,
    expand_to_k,
    label_catalog,
)
from etskit.normal import (
    NormalGraph,
    from_normal,
    normal_b,
    to_normal,
)
from etskit.search import SearchReport, coverage_query, find_etss
from etskit.structgen import (
    Catalog,
    CatalogEntry,
    ClassSpec,
    class_feasible,
    generate_structures,
    read_catalog,
    write_catalog,
)
from etskit.tanner import (
    GammaSplit,
    TannerGraph,
    TrappingSetRecord,
    classify,
    gamma_split,
    parse_alist,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalForm",
    "Catalog",
    "CatalogEntry",
    "ClassSpec",
    "ExpansionFrontier",
    "GammaSplit",
    "NormalGraph",
    "SearchReport",
    "TannerGraph",
    "TrappingSetRecord",
    "are_isomorphic_oracle",
    "canonical_form",
    "class_feasible",
    "classify",
    "classify_lss",
    "coverage_query",
    "enumerate_tanner_cycles",
    "expand_to_k",
    "find_etss",
    "from_normal",
    "gamma_split",
    "generate_structures",
    "kernel_backend",
    "label_catalog",
    "normal_b",
    "parse_alist",
    "read_catalog",
    "to_normal",
    "write_catalog",
]
