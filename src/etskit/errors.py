"""Exception hierarchy and text-input checks shared across the toolkit."""

from __future__ import annotations

from typing import Callable, Iterator


class EtsError(Exception):
    """Base class for all toolkit errors."""


class AlistParseError(EtsError):
    """Malformed alist input; carries the 1-based line number of the defect."""

    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


class GraphConstraintError(EtsError):
    """A graph violates a structural requirement (regularity, girth, ...)."""


class BindingError(EtsError):
    """A variable set was used with a graph it is not bound to."""


class NodeCapError(EtsError):
    """Canonical labeling was asked for a graph above the node cap."""


def decode_utf8(data: bytes, error: Callable[[int, str], EtsError]) -> str:
    """``data`` as UTF-8 text.  An undecodable byte raises ``error(line,
    message)``, with the byte's 1-based line as ``str.splitlines`` numbers
    the text before it."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode("utf-8")
        line = len((head + "?").splitlines())  # "?" stands in for the bad byte
        raise error(line, f"byte 0x{data[exc.start]:02x} is not valid UTF-8") from exc


def is_decimal(text: str) -> bool:
    """Whether ``text`` is a non-empty run of the ASCII digits 0-9.  ``int``
    alone would also take a sign, an underscore or a non-ASCII digit."""
    return text.isascii() and text.isdigit()


def int_lines(text: str, error: Callable[[int, str], EtsError]) -> Iterator[tuple[int, list[int]]]:
    """``(line, integers)`` of each non-blank line, lines numbered from 1.
    A token that is not ``is_decimal`` raises ``error(line, message)``."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if tokens:
            if not is_decimal("".join(tokens)):
                raise error(lineno, f"non-integer token in {tokens!r}")
            yield lineno, [int(tok) for tok in tokens]
