"""The repository benchmark: ``python3 livebench/run.py --help``."""
