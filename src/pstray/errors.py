"""Exception types shared across the package."""


class PstrayError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PstrayError):
    """Malformed raw input (empty text, sentinel collision, bad spec file)."""


class ClassificationError(InputError):
    """A token belongs to neither alphabet under an explicit static set."""


class QueryError(PstrayError):
    """Invalid query (e.g. empty pattern)."""


class ConstructionError(PstrayError):
    """Internal consistency failure while building the index."""


class CapacityError(PstrayError):
    """A brute-force oracle was asked to exceed its stated capacity."""


class FormatError(PstrayError):
    """Index file is structurally invalid (bad magic, version, lengths)."""


class ChecksumError(FormatError):
    """Index file checksum does not validate (truncation or corruption)."""


class ValidationError(PstrayError):
    """A structural invariant of a built or loaded index does not hold."""
