"""End-to-end and per-layer benchmark of the airtwin CLI (run with ``python3 perfbench/run.py``)."""
