"""Process entry of ``python -m sunurd`` and of the installed ``sunurd``
script (``[project.scripts]`` points at ``run``).

Importing this module imports only ``gc`` and ``sys``; ``run`` imports
``cli`` once the collector is off, so no collection runs while ``cli``
loads, or compiles when no bytecode cache is readable.
"""

import gc
import sys


def run():
    """``cli.main`` with the collector off, then ``gc.freeze``, then
    ``sys.exit`` with its code, so atexit handlers run and stdio is flushed
    as usual.  It never returns."""
    gc.disable()
    from .cli import main

    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
