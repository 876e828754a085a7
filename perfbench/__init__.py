"""End-to-end and per-layer benchmark of the DMDC reproduction (see README.md)."""
