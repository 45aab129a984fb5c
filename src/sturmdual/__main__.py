"""``python -m sturmdual``: the same command line as ``sturmdual``."""

import sys

from .cli import main

sys.exit(main())
