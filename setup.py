"""Setup shim.

The project metadata lives in pyproject.toml; this file exists so
that the package can be installed in editable mode on environments without
the ``wheel`` package (offline build environments fall back to the legacy
``setup.py develop`` code path).
"""

from setuptools import setup

setup()
