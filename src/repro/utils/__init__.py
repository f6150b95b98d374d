"""Shared utilities: table rendering."""
