"""Package metadata (there is no pyproject.toml).

The offline environment has setuptools but neither network access nor the
``wheel`` package, so PEP 517 editable installs (which build a wheel) fail;
``pip install -e . --no-use-pep517`` performs a classic develop install of
the ``repro`` package and the ``expfinder`` command from here.
"""

from setuptools import find_packages, setup

setup(
    name="expfinder",
    version="1.0.0",
    description="ExpFinder: finding experts by graph pattern matching",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    entry_points={"console_scripts": ["expfinder = repro.cli:main"]},
)
