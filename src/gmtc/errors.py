"""Error types shared across the package.

DataError covers malformed inputs (files, manifests, shapes); NumericError
covers runtime numeric failures (non-finite losses). The CLI maps them to
exit codes 2 and 3.
"""


class DataError(Exception):
    pass


class NumericError(Exception):
    pass


def decode_utf8(raw, path) -> str:
    """Text stored in a binary file; undecodable bytes are a DataError."""
    try:
        return bytes(raw).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"undecodable text in {path}: {exc.reason}") from None
