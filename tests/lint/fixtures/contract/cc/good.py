"""A CCA that clamps its window (lint fixture, never run)."""

from __future__ import annotations


class GoodCca:
    name = "good"

    def on_loss(self):
        self.cwnd = max(1, self.cwnd // 2)
