"""Congestion control algorithms: the paper's evaluation set, pluggable."""

from __future__ import annotations

from repro.cc.base import AckEvent, CcContext, CongestionControl
from repro.cc.bbr import Bbr
from repro.cc.bbr2 import Bbr2
from repro.cc.constant import ConstantCwnd
from repro.cc.cubic import Cubic
from repro.cc.dcqcn import Dcqcn
from repro.cc.dctcp import Dctcp
from repro.cc.filters import WindowedFilter
from repro.cc.highspeed import HighSpeed
from repro.cc.hpcc import Hpcc
from repro.cc.registry import (
    PAPER_ALGORITHMS,
    PRODUCTION_ALGORITHMS,
    create,
    factory,
    get_class,
    register,
)
from repro.cc.reno import Reno
from repro.cc.scalable import Scalable
from repro.cc.swift import Swift
from repro.cc.vegas import Vegas
from repro.cc.westwood import Westwood

__all__ = [
    "AckEvent",
    "CcContext",
    "CongestionControl",
    "Reno",
    "Cubic",
    "Dctcp",
    "Bbr",
    "Bbr2",
    "Vegas",
    "Scalable",
    "Westwood",
    "HighSpeed",
    "ConstantCwnd",
    "Swift",
    "Dcqcn",
    "Hpcc",
    "WindowedFilter",
    "PAPER_ALGORITHMS",
    "PRODUCTION_ALGORITHMS",
    "create",
    "factory",
    "get_class",
    "register",
]
