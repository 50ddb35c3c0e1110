"""`python -m jetforge COMMAND FILE [flags]` runs the command line."""

import sys

from .cli import main

sys.exit(main())
