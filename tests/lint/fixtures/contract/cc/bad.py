"""A CCA storing a bare negative window (lint fixture, never run)."""

from __future__ import annotations


class BadCca:
    name = "bad"

    def on_loss(self):
        self.cwnd = -1000  # cca-negative-cwnd
