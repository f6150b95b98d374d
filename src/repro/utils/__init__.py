"""Shared utilities: table rendering and array-directory I/O."""
