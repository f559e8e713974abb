"""End-to-end attack benchmark for the repro package (see README.md)."""
