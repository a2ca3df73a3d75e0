"""CCA registry: name -> class, mirroring the kernel's pluggable CC table.

The paper's experiment scripts select algorithms by their
``net.ipv4.tcp_congestion_control`` names; experiments here do the same
through :func:`create`.
"""

from __future__ import annotations

from typing import Callable, Dict, Type

from repro.cc.base import CongestionControl
from repro.cc.bbr import Bbr
from repro.cc.bbr2 import Bbr2
from repro.cc.constant import ConstantCwnd
from repro.cc.cubic import Cubic
from repro.cc.dcqcn import Dcqcn
from repro.cc.dctcp import Dctcp
from repro.cc.highspeed import HighSpeed
from repro.cc.hpcc import Hpcc
from repro.cc.reno import Reno
from repro.cc.scalable import Scalable
from repro.cc.swift import Swift
from repro.cc.vegas import Vegas
from repro.cc.westwood import Westwood
from repro.errors import ReproError

_REGISTRY: Dict[str, Type[CongestionControl]] = {}


def register(cls: Type[CongestionControl]) -> Type[CongestionControl]:
    """Add a CCA class to the registry under its ``name``."""
    if not cls.name or cls.name == "base":
        raise ReproError(f"{cls.__name__} has no usable registry name")
    if cls.name in _REGISTRY:
        raise ReproError(f"duplicate CCA name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


for _cls in (
    Reno,
    Cubic,
    Dctcp,
    Bbr,
    Bbr2,
    Vegas,
    Scalable,
    Westwood,
    HighSpeed,
    ConstantCwnd,
    Swift,
    Dcqcn,
    Hpcc,
):
    register(_cls)


#: the paper's evaluation set, in Fig. 5's MTU-1500 energy order
PAPER_ALGORITHMS = (
    "bbr",
    "westwood",
    "highspeed",
    "scalable",
    "reno",
    "vegas",
    "dctcp",
    "cubic",
    "baseline",
    "bbr2",
)

#: the production algorithms the paper's §5 wished it could evaluate —
#: implemented here so its proposed standardized benchmark can include
#: them (hpcc requires TestbedConfig(int_telemetry=True))
PRODUCTION_ALGORITHMS = ("swift", "dcqcn", "hpcc")


def get_class(name: str) -> Type[CongestionControl]:
    """Look up a CCA class by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown congestion control {name!r}; "
            f"known: {', '.join(sorted(_REGISTRY))}"
        ) from None


def create(name: str, ctx, **kwargs) -> CongestionControl:
    """Instantiate a CCA by name for the given sender context."""
    return get_class(name)(ctx, **kwargs)


def factory(name: str, **kwargs) -> Callable:
    """A ``cca_factory`` suitable for :class:`~repro.tcp.sender.TcpSender`."""

    def make(ctx) -> CongestionControl:
        return get_class(name)(ctx, **kwargs)

    return make
