"""Entry point for python -m spintensor."""

import sys

from .cli import main

sys.exit(main())
