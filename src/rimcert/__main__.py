"""``python -m rimcert``: the same commands as the ``rimcert`` script."""

import sys

from .cli import main

sys.exit(main())
