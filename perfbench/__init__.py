"""Seeded end-to-end and per-layer benchmark of the ``spinpoint`` CLI.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
