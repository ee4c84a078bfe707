"""`python -m hvol ...`: the same command line as the `hvol` script."""

import sys

from .cli import main

sys.exit(main())
