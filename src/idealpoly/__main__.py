"""``python -m idealpoly``: the same command-line interface as ``idealpoly``."""
import sys

from .cli import main

sys.exit(main())
