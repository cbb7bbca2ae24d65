"""Setup shim for legacy editable installs (environments without `wheel`).

All metadata lives in pyproject.toml. Where setuptools cannot build a
PEP-660 editable wheel (no ``wheel`` package, no network to fetch it),
``python setup.py develop`` installs the same metadata and entry point
through this shim; with ``wheel`` present, ``pip install -e .`` needs
nothing from this file.
"""

from setuptools import setup

setup()
