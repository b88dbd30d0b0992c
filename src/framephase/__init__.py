"""Phase retrieval with finite frames.

Construct frames, certify whether magnitudes of frame coefficients
determine a vector up to a global phase, produce explicit ambiguity
witnesses when they do not, and recover vectors from magnitude
measurements (exactly over the reals, heuristically over the complexes).
"""

import os as _os
import sys as _sys


def _started_as_cli() -> bool:
    """Whether this interpreter was started to run the framephase command,
    as ``python -m framephase`` or as the installed ``framephase`` script."""
    argv = list(getattr(_sys, "orig_argv", ()))
    if "-m" in argv[1:-1]:
        return argv[argv.index("-m", 1) + 1].split(".")[0] == "framephase"
    return bool(_sys.argv) and _os.path.basename(_sys.argv[0]) == "framephase"


# A CLI command is one short process on desk-scale matrices, where BLAS
# worker threads speed nothing up. Starting their pool (at numpy's import)
# costs little on an idle machine but tens of milliseconds on a busy one,
# where a command's time would swing with the machine's load. The CLI
# therefore runs BLAS on one thread unless the environment says otherwise;
# library users are left alone.
if _started_as_cli() and "numpy" not in _sys.modules:
    _os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    _os.environ.setdefault("OMP_NUM_THREADS", "1")

# The package exports the union of its modules' __all__ lists, each the
# one place where a module declares its public names.
from . import experiments, frames, injectivity, linalg, magnitude, reconstruct
from .linalg import *
from .frames import *
from .magnitude import *
from .injectivity import *
from .reconstruct import *
from .experiments import *

__version__ = "0.1.0"

__all__ = [
    *linalg.__all__,
    *frames.__all__,
    *magnitude.__all__,
    *injectivity.__all__,
    *reconstruct.__all__,
    *experiments.__all__,
    "__version__",
]
