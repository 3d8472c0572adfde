"""Linear-space index for parameterized pattern matching.

Builds a hybrid of the prev-encoded suffix tree and suffix array of a text
over disjoint static/parameterized alphabets, and answers "find every
substring that matches the pattern up to renaming of parameterized symbols"
queries in time linear in the pattern plus a log of the alphabet size.
"""

from .alphabet import (AlphabetSpec, PText, ingest, parse_alphabet_spec,
                       pattern_codes)
from .encoding import STATIC_BASE, pfunction_from_fpos, prev, spe
from .errors import (CapacityError, ChecksumError, ClassificationError,
                     ConstructionError, FormatError, InputError, PstrayError,
                     QueryError, ValidationError)
from .suffixes import (PsaIndex, QueryStats, build_psa, range_search, report,
                       validate_psa)
from .tray import (PSTrayIndex, TrayAnnotations, annotate, assemble,
                   build_tray, query)
from .tree import TrayTree, build_tree

__version__ = "0.1.0"

__all__ = [
    "AlphabetSpec", "PText", "ingest", "parse_alphabet_spec",
    "pattern_codes", "prev", "spe", "pfunction_from_fpos", "STATIC_BASE",
    "PsaIndex", "QueryStats", "build_psa", "range_search", "report",
    "validate_psa", "TrayTree", "build_tree",
    "TrayAnnotations", "PSTrayIndex", "annotate", "build_tray", "assemble",
    "query",
    "PstrayError", "InputError", "ClassificationError",
    "QueryError", "ConstructionError", "CapacityError", "FormatError",
    "ChecksumError", "ValidationError",
    "__version__",
]
