"""Ensure the in-repo sources are importable even without `pip install -e .`.

Offline environments cannot always run pip's isolated build; adding ``src``
to ``sys.path`` keeps `pytest tests/` self-contained.
"""
import os
import sys

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
