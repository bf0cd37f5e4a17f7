"""End-to-end and per-layer benchmark of the repro simulator harness."""
