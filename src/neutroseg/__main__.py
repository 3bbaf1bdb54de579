"""``python -m neutroseg``: the command-line front end in :mod:`neutroseg.cli`."""

from .cli import entry

if __name__ == "__main__":
    entry()
