"""Project metadata for the ``repro`` package (src layout).

There is no pyproject.toml: this file is the only packaging metadata, kept
as a plain ``setup.py`` so that ``pip install -e .`` succeeds without
network access (legacy ``setup.py develop`` path, no wheel package
required).  The scenario fuzzer (``python -m repro.scenarios.fuzz``) and
the test suite additionally need ``hypothesis`` and ``pytest``.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Reproduction of Venn: resource management for collaborative "
        "learning jobs (MLSys 2025)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)
