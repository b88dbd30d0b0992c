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

from .linalg import DEFAULT_TOL, Tolerance
from .frames import (
    COMPLEX,
    REAL,
    Frame,
    FrameBounds,
    analysis,
    analysis_matrix,
    apply_invertible,
    canonical_dual,
    canonical_parseval,
    coefficient_range,
    frame_from_dict,
    frame_operator,
    frame_to_dict,
    gen_full_spark,
    gen_random,
    gen_repeated_tail,
    gen_windowed_fourier,
    load_frame,
    save_frame,
)
from .magnitude import (
    SignPattern,
    canonical_ray,
    load_measurement,
    magnitude_map,
    measurement_from_dict,
    measurement_to_dict,
    ray_equal,
    save_measurement,
)
from .injectivity import (
    VERDICT_INJECTIVE,
    VERDICT_NECESSARY,
    VERDICT_NOT_INJECTIVE,
    FullSpark,
    FullSparkEquivalence,
    InjectivityCertificate,
    certificate_to_dict,
    certify,
    complement_property,
    complex_size_check,
    full_spark_test,
    necessary_condition_for_M_2N_minus_1,
    verify_witness,
    witness_pair,
)
from .reconstruct import (
    STATUS_AMBIGUOUS,
    STATUS_HEURISTIC_FAIL,
    STATUS_HEURISTIC_SUCCESS,
    STATUS_NO_SOLUTION,
    STATUS_UNIQUE,
    ReconstructionResult,
    SearchBudgetExceeded,
    enumerate_ambiguities,
    error_reduction,
    reconstruct_complex,
    reconstruct_real,
    result_to_dict,
)
from .experiments import (
    CellResult,
    ExperimentConfig,
    ExperimentReport,
    ThinSetWitness,
    run_complex_genericity,
    run_dense_interior_real,
    run_equivalence_invariance,
    run_real_genericity,
    write_report_csv,
    write_report_json,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "Tolerance",
    "COMPLEX",
    "REAL",
    "Frame",
    "FrameBounds",
    "analysis",
    "analysis_matrix",
    "apply_invertible",
    "canonical_dual",
    "canonical_parseval",
    "coefficient_range",
    "frame_from_dict",
    "frame_operator",
    "frame_to_dict",
    "gen_full_spark",
    "gen_random",
    "gen_repeated_tail",
    "gen_windowed_fourier",
    "load_frame",
    "save_frame",
    "SignPattern",
    "canonical_ray",
    "load_measurement",
    "magnitude_map",
    "measurement_from_dict",
    "measurement_to_dict",
    "ray_equal",
    "save_measurement",
    "VERDICT_INJECTIVE",
    "VERDICT_NECESSARY",
    "VERDICT_NOT_INJECTIVE",
    "FullSpark",
    "FullSparkEquivalence",
    "InjectivityCertificate",
    "certificate_to_dict",
    "certify",
    "complement_property",
    "complex_size_check",
    "full_spark_test",
    "necessary_condition_for_M_2N_minus_1",
    "verify_witness",
    "witness_pair",
    "STATUS_AMBIGUOUS",
    "STATUS_HEURISTIC_FAIL",
    "STATUS_HEURISTIC_SUCCESS",
    "STATUS_NO_SOLUTION",
    "STATUS_UNIQUE",
    "ReconstructionResult",
    "SearchBudgetExceeded",
    "enumerate_ambiguities",
    "error_reduction",
    "reconstruct_complex",
    "reconstruct_real",
    "result_to_dict",
    "CellResult",
    "ExperimentConfig",
    "ExperimentReport",
    "ThinSetWitness",
    "run_complex_genericity",
    "run_dense_interior_real",
    "run_equivalence_invariance",
    "run_real_genericity",
    "write_report_csv",
    "write_report_json",
    "__version__",
]
