"""Setuptools entry point and the package metadata.

``pip install -e .`` (or ``python setup.py develop`` where the ``wheel``
package is missing) installs :mod:`repro` from ``src/``; ``pip install
-e .[test]`` adds what the test suite needs.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Risk profiling-based defenses against evasion attacks on DNNs (DSN 2025)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
)
