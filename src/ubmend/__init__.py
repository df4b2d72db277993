"""Dual-phase repair of undefined behavior in Rust code.

Fast thinking drafts candidate repair plans from detector diagnostics and
unsafe-region features; slow thinking executes them step by step against a
working copy, rolling back when the error trace degrades, and every outcome
feeds a knowledge base that biases the next repair.
"""
