"""Package metadata for ``repro``; this file is the only build config.

The code lives under ``src/``.  ``pip install -e . --no-use-pep517
--no-build-isolation`` takes the classic ``setup.py develop`` path,
which needs no ``wheel`` package.  The version is read from
``src/repro/__init__.py`` so it is declared once.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.M,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Fine grain QoS control for multimedia application software, "
        "and a multi-stream serving stack built on it"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
