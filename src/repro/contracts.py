"""Field contracts: the one owner of "is this a valid value for this field".

A config dataclass declares each settable field's contract once, where it
declares the field::

    walk_length: int = checked(integer(2), 50)

and its ``__post_init__`` checks them all with :func:`check_fields`, raising
the exception of its own layer.  The config classes are frozen, so a checked
value cannot be swapped for an unchecked one later:
:func:`dataclasses.replace` builds, and so checks, a new object.  A detector
names its constructor parameters' contracts in a ``contracts`` class mapping
and checks them the same way.  A rule that relates two fields (exactly one
window length, a burst inside the horizon, a low watermark under the high
one) stays as code in the owner's ``__post_init__``, after the field checks.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from numbers import Integral, Real
from types import MappingProxyType
from typing import Any, Callable, Mapping, Optional, Sequence, Type

from repro.exceptions import ReproError

#: The field-metadata key a contract is stored under.
_KEY = "contract"


@dataclasses.dataclass(frozen=True)
class Contract:
    """What one field accepts, and the words an error names it by."""

    accepts: Callable[[object], bool]
    description: str

    def require(self, name: str, value: object, error: Type[ReproError]) -> None:
        """Raise ``error`` naming ``name`` unless ``value`` is accepted."""
        if not self.accepts(value):
            raise error(f"{name} must be {self.description}, got {value!r}")


def integer(at_least: int, at_most: Optional[int] = None) -> Contract:
    """An integer in ``[at_least, at_most]``: numpy integers pass, while
    ``bool``, floats (``2.0`` too) and strings do not."""

    def accepts(value: object) -> bool:
        return (
            isinstance(value, Integral)
            and not isinstance(value, bool)
            and at_least <= int(value)
            and (at_most is None or int(value) <= at_most)
        )

    bounds = f">= {at_least}" if at_most is None else f"in [{at_least}, {at_most}]"
    return Contract(accepts, f"an integer {bounds}")


def number(
    *,
    gt: Optional[float] = None,
    ge: Optional[float] = None,
    lt: Optional[float] = None,
    le: Optional[float] = None,
) -> Contract:
    """A finite real number (ints and numpy scalars pass, ``bool`` does not)
    above ``gt`` / at least ``ge`` and below ``lt`` / at most ``le``."""

    def accepts(value: object) -> bool:
        if not isinstance(value, Real) or isinstance(value, bool):
            return False
        try:
            x = float(value)
        except OverflowError:  # an int past float range
            return False
        return (
            math.isfinite(x)
            and (gt is None or x > gt)
            and (ge is None or x >= ge)
            and (lt is None or x < lt)
            and (le is None or x <= le)
        )

    if (gt is not None or ge is not None) and (lt is not None or le is not None):
        low = f"({gt:g}" if gt is not None else f"[{ge:g}"
        high = f"{lt:g})" if lt is not None else f"{le:g}]"
        bounds = f" in {low}, {high}"
    else:
        pairs = ((">", gt), (">=", ge), ("<", lt), ("<=", le))
        bounds = "".join(f" {op} {bound:g}" for op, bound in pairs if bound is not None)
    return Contract(accepts, f"a finite number{bounds}")


def one_of(members: Sequence[object]) -> Contract:
    """A member of the literal set ``members``."""
    return Contract(lambda value: value in members, f"one of {tuple(members)}")


def optional(contract: Contract) -> Contract:
    """``None``, or a value ``contract`` accepts."""
    return Contract(
        lambda value: value is None or contract.accepts(value),
        f"None or {contract.description}",
    )


#: A config's random seed: ``None`` (fresh entropy) or what
#: ``numpy.random.default_rng`` takes.
SEED = optional(integer(0))

#: A probability or a fraction of a whole.
PROBABILITY = number(ge=0.0, le=1.0)

#: A positive finite quantity: a rate, a duration, a length.
POSITIVE = number(gt=0.0)

#: A non-negative finite quantity: a penalty, a cost, a delay.
NON_NEGATIVE = number(ge=0.0)


def checked(contract: Contract, *default: Any) -> Any:
    """A dataclass field under ``contract``, with the one ``default`` given
    (``checked(integer(2), 50)``) or required (``checked(POSITIVE)``)."""
    (value,) = default or (dataclasses.MISSING,)
    return dataclasses.field(default=value, metadata={_KEY: contract})


@functools.lru_cache(maxsize=None)
def contracts_of(cls: type) -> Mapping[str, Contract]:
    """``cls``'s contract per field, built once per class: a dataclass's from
    its :func:`checked` fields, any other class's from its ``contracts``."""
    if dataclasses.is_dataclass(cls):
        return MappingProxyType(
            {
                field.name: field.metadata[_KEY]
                for field in dataclasses.fields(cls)
                if _KEY in field.metadata
            }
        )
    return MappingProxyType(dict(getattr(cls, "contracts")))


def check_fields(owner: object, error: Type[ReproError]) -> None:
    """Check every contracted attribute of ``owner``; raise ``error`` on the
    first that fails, naming it."""
    for name, contract in contracts_of(type(owner)).items():
        contract.require(name, getattr(owner, name), error)
