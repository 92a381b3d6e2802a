"""``python -m charclass``: the command-line front end, see :mod:`charclass.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
