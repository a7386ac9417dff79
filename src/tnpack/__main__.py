"""``python -m tnpack``: the command-line front end of tnpack.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
