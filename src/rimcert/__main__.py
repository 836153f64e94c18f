"""``python -m rimcert``: the same commands as the ``rimcert`` script."""

from .cli import main

main()
