"""Seeded closed-loop benchmark of the kholo CLI; entry point run.py."""
