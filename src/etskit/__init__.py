"""Trapping-set structure catalogs and cycle-based search for
variable-regular LDPC codes."""

from etskit.canon import CanonicalForm, canonical_form
from etskit.kernel import backend as kernel_backend
from etskit.lss import (
    ExpansionFrontier,
    enumerate_tanner_cycles,
    expand_to_k,
    label_catalog,
)
from etskit.normal import NormalGraph
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
from etskit.tanner import TannerGraph, TrappingSetRecord, classify, parse_alist

__version__ = "0.1.0"

__all__ = [
    "CanonicalForm",
    "Catalog",
    "CatalogEntry",
    "ClassSpec",
    "ExpansionFrontier",
    "NormalGraph",
    "SearchReport",
    "TannerGraph",
    "TrappingSetRecord",
    "canonical_form",
    "class_feasible",
    "classify",
    "coverage_query",
    "enumerate_tanner_cycles",
    "expand_to_k",
    "find_etss",
    "generate_structures",
    "kernel_backend",
    "label_catalog",
    "parse_alist",
    "read_catalog",
    "write_catalog",
]
