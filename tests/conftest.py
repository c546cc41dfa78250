"""Pins BLAS to one thread for the suite, as CI does, unless the caller has
set a count: the pool threads of the experiments and the acceptance criteria
already use every core, and BLAS threads on top of them oversubscribe it.
numpy is not loaded yet when pytest imports this file, so the pin applies."""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
