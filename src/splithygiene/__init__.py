"""Template-based synthetic question-query corpora, partitioning hygiene, and
leakage metrics."""

__version__ = "0.1.0"
