"""Packaging for the SoftLoRa reproduction (Gu/Tan/Huang, ICDCS 2020)."""

from pathlib import Path

from setuptools import find_packages, setup

README = Path(__file__).with_name("README.md")

setup(
    name="repro-softlora",
    version="1.2.0",
    description=(
        "Reproduction of 'Attack-Aware Data Timestamping in Low-Power "
        "Synchronization-Free LoRaWAN' with a batched capture-processing engine "
        "and a multi-gateway network-server layer"
    ),
    long_description=README.read_text() if README.exists() else "",
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy>=2.0",
        "scipy>=1.8",
    ],
    extras_require={
        "test": [
            "pytest>=7",
            "pytest-benchmark>=4",
            "hypothesis>=6",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering",
        "Topic :: System :: Networking",
    ],
)
