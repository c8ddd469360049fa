"""Run the command-line interface: python -m linetherm <command> ..."""

from .cli import entry

entry()
