"""Exception types shared across the package.

Every raised message is prefixed with the module it came from
("geometry: ...", "cam_code: ...") so CLI output pinpoints the source.
"""


class Geo360Error(Exception):
    """Base class for all package errors."""


class DomainError(Geo360Error, ValueError):
    """Input lies outside an operation's documented domain."""


class DegenerateGeometryError(DomainError):
    """Geometric configuration carries no usable information."""


class AmbiguousSignError(Geo360Error, ValueError):
    """Sign disambiguation produced an exact tie."""


class FormatError(Geo360Error, ValueError):
    """A file or stream does not follow its declared format."""


class TruncationError(Geo360Error, EOFError):
    """A file or stream ended before a complete read."""
