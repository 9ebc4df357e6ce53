"""Toolkit for detecting verbatim news republishing, reconstructing
who-copied-whom source networks over time windows, and quantifying how
republishers alter headlines."""

__version__ = "0.1.0"
