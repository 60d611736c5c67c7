"""The process entry of ``python -m iterlinopt`` and the ``iterlinopt`` script.

``run`` calls ``cli.main`` and then freezes the garbage collector before
the interpreter shuts down. Shutdown's full collections then pass over the
objects numpy and the package built at import, which would all be freed
with the process anyway; atexit handlers, the flush of stdout and stderr
and reference-count finalizers still run. ``cli.main`` itself never
touches the collector, so a library caller's cyclic garbage stays
collectable.
"""

import gc
import sys

from .cli import main


def run():
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
