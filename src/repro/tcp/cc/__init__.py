"""Congestion control table (mirrors Linux's CC table).

``make_cc("cubic", conn)`` is how a connection binds its algorithm; the
table holds the six stacks the paper runs and nothing registers more
(a non-conforming tenant is a connection option, ``ignore_rwnd``, not
an algorithm).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .base import CongestionControl
from .cubic import Cubic
from .dctcp import Dctcp
from .highspeed import HighSpeed
from .illinois import Illinois
from .reno import Reno
from .vegas import Vegas

if TYPE_CHECKING:  # pragma: no cover
    from ..connection import TcpConnection

_REGISTRY = {cls.name: cls
             for cls in (Reno, Cubic, Dctcp, Vegas, Illinois, HighSpeed)}


def make_cc(name: str, conn: "TcpConnection", **kwargs) -> CongestionControl:
    """Instantiate the named algorithm bound to ``conn``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown congestion control {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return factory(conn, **kwargs)


def available() -> list:
    """Names of every algorithm in the table."""
    return sorted(_REGISTRY)


__all__ = [
    "CongestionControl",
    "Cubic",
    "Dctcp",
    "HighSpeed",
    "Illinois",
    "Reno",
    "Vegas",
    "available",
    "make_cc",
]
