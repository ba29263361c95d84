"""`python -m gkdsim`: the same command line as the `gkdsim` script."""

from .cli import main

raise SystemExit(main())
