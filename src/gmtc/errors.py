"""Error types shared across the package.

DataError covers malformed inputs (files, manifests, shapes); NumericError
covers runtime numeric failures (non-finite losses). The CLI maps them to
exit codes 2 and 3.
"""


class DataError(Exception):
    pass


class NumericError(Exception):
    pass

