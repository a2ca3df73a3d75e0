"""Set iteration outside the result-producing packages is allowed (lint fixture)."""

from __future__ import annotations


def dedupe(names):
    # fine here: this module is not in a result-producing package
    return list(set(names))
