"""Shared utilities: table rendering, array-directory I/O and array
helpers."""
