import gc
import sys

from .cli import main

# The process serves one request, so nothing loaded so far is garbage.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
