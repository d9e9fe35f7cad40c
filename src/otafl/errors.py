"""The one error a component raises for a value it cannot use."""

from __future__ import annotations


class FieldError(ValueError):
    """A component rejects the value of one of its fields.

    ``field`` names that field, as ``part.field`` when it belongs to one of
    the component's parts (``sync.ptp_bound_s`` on a ``PhyConfig``), and
    ``reason`` says what is wrong with it; the message is the two joined.
    """

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field} {reason}")
        self.field = field
        self.reason = reason


def check_choice(field: str, value, allowed: tuple[str, ...]) -> None:
    """Raise a :class:`FieldError` for ``field`` unless ``value`` is one of ``allowed``."""
    if value not in allowed:
        raise FieldError(field, f"{value!r} is not one of {', '.join(allowed)}")
