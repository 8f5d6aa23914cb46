"""The repository benchmark: ``python3 -m bench`` (see ``bench/README.md``)."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The program under measurement; ``--ab`` puts another copy beside it.
SRC = ROOT / "src"
#: Everything a run writes (ignored by git).
OUT = ROOT / "bench" / "out"
