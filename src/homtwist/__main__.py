import sys

from .cli import run

sys.exit(run())
