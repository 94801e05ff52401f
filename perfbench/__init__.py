"""Benchmark of dynvol; run `python3 perfbench/run.py --help`."""
