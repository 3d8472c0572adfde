"""Linear-space index for parameterized pattern matching.

Builds a hybrid of the prev-encoded suffix tree and suffix array of a text
over disjoint static/parameterized alphabets, and answers "find every
substring that matches the pattern up to renaming of parameterized symbols"
queries in time linear in the pattern plus a log of the alphabet size.
"""

from .alphabet import (AlphabetSpec, PText, encode_pattern, ingest,
                       parse_alphabet_spec, pattern_codes, rank)
from .encoding import (STATIC_BASE, fpos, fpos_stream, p_match,
                       pfunction_from_fpos, prev, prev_char_in_window, spe)
from .errors import (CapacityError, ChecksumError, ClassificationError,
                     ConstructionError, FormatError, InputError, PstrayError,
                     QueryError, RankError, ValidationError)
from .suffixes import (PsaIndex, QueryStats, build_psa, range_search, report,
                       validate_psa)
from .tray import (PSTrayIndex, TrayAnnotations, assemble, build_parrays,
                   build_tray, classify_pnodes, compute_pfunctions,
                   propagate_rep_pairs, query)
from .tree import TrayTree, build_tree, edge_symbol

__version__ = "0.1.0"

__all__ = [
    "AlphabetSpec", "PText", "ingest", "parse_alphabet_spec", "rank",
    "encode_pattern", "pattern_codes", "prev", "spe", "p_match",
    "prev_char_in_window", "fpos", "fpos_stream", "pfunction_from_fpos",
    "STATIC_BASE",
    "PsaIndex", "QueryStats", "build_psa", "range_search", "report",
    "validate_psa", "TrayTree", "build_tree", "edge_symbol",
    "TrayAnnotations", "PSTrayIndex", "classify_pnodes",
    "propagate_rep_pairs", "compute_pfunctions", "build_parrays",
    "build_tray", "assemble", "query",
    "PstrayError", "InputError", "ClassificationError", "RankError",
    "QueryError", "ConstructionError", "CapacityError", "FormatError",
    "ChecksumError", "ValidationError",
    "__version__",
]
