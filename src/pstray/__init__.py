"""Linear-space index for parameterized pattern matching.

Builds a hybrid of the prev-encoded suffix tree and suffix array of a text
over disjoint static/parameterized alphabets, and answers "find every
substring that matches the pattern up to renaming of parameterized symbols"
queries in time linear in the pattern plus a log of the alphabet size.
"""

from .alphabet import AlphabetSpec, PText, ingest, parse_alphabet_spec
from .errors import (ChecksumError, ClassificationError, ConstructionError,
                     FormatError, InputError, PstrayError, QueryError,
                     ValidationError)
from .suffixes import PsaIndex, QueryStats, build_psa, validate_psa
from .tray import PSTrayIndex, assemble, build_tray, query

__version__ = "0.1.0"

__all__ = [
    "AlphabetSpec", "PText", "ingest", "parse_alphabet_spec",
    "PsaIndex", "QueryStats", "build_psa", "validate_psa",
    "PSTrayIndex", "build_tray", "assemble", "query",
    "PstrayError", "InputError", "ClassificationError", "QueryError",
    "ConstructionError", "FormatError", "ChecksumError", "ValidationError",
    "__version__",
]
