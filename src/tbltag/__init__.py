"""Transformation-based tagging: error-driven rule learning over tagged text.

A most-frequent-tag baseline is refined by an ordered list of contextual
rewrite rules, learned greedily by net error reduction.  Two trainers are
provided: a simple per-pass rescanning reference and an incremental one
that keeps rule scores live between passes, with identical output.
"""

__version__ = "0.1.0"
