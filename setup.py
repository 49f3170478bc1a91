"""Setup script for the ``repro`` package (the sources live under ``src/``).

There is no ``pyproject.toml``: this file is the project metadata.  It also
lets fully offline environments (no ``wheel`` package available, so PEP 660
editable wheels cannot be built) do a legacy editable install with
``pip install -e . --no-use-pep517 --no-build-isolation`` or
``python setup.py develop``.
"""

import sys
from pathlib import Path

from setuptools import setup

# repro/__init__.py imports nothing, so reading the version is side-effect free.
sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))
from repro import __version__  # noqa: E402

setup(name="repro", version=__version__)
