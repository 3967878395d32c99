"""Legacy setup shim for offline editable installs (no `wheel` available)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="2.0.0",
    description=(
        "CLEAR: bounding speculative execution of atomic regions to a "
        "single retry (ASPLOS 2024) - full Python reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
)
