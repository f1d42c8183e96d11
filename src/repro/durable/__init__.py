"""Durable storage primitives: the append-only journal (:mod:`repro.durable.journal`)."""
