"""numpy, imported with OpenBLAS's idle worker asleep.

Linking an OpenBLAS library (numpy's bundled one, or scipy's, which
``_eig`` loads for LAPACK) starts worker threads that wait for work by
spinning for about 0.1 s before they sleep, right after the link and again
after every threaded BLAS call.  On a 2-vCPU virtual machine the spin
after numpy's link made importing numpy for ``zetaforge._mc`` take 0.17 s
instead of 0.095 s.  OpenBLAS reads ``OPENBLAS_THREAD_TIMEOUT`` once, when
the library is linked; at 4 a worker spins for 2^4 cycles instead of about
2^28.

``quiet_blas(module)`` sets the variable to 4 while its body links
``module``'s OpenBLAS and removes it afterwards, so ``os.environ`` is left
as it was.  It does nothing when the variable is already set, which keeps
the user's value, or when ``module`` is already in ``sys.modules``, whose
library is then already linked.  ``np`` is numpy, imported through it.
Every zetaforge module takes numpy from here inside the functions that use
it, except ``_eig``, which takes it at its top and which ``spectra``
imports inside its solve path: numpy and LAPACK load at the first float
kernel, not at import.

The cost: when zetaforge imports numpy first, numpy's workers sleep
between BLAS calls for the rest of the process, so back-to-back threaded
BLAS calls each wake them (256 x 256 ``np.dot`` 3-10 % slower on a 2-vCPU
machine, 1024 x 1024 unchanged within 2 %).  To keep OpenBLAS's default,
import numpy before zetaforge, or set ``OPENBLAS_THREAD_TIMEOUT`` yourself.
"""

import contextlib
import os
import sys

_TIMEOUT = "OPENBLAS_THREAD_TIMEOUT"


@contextlib.contextmanager
def quiet_blas(module: str):
    """Shorten the OpenBLAS worker's spin for a body that links ``module``."""
    if module in sys.modules or _TIMEOUT in os.environ:
        yield
        return
    os.environ[_TIMEOUT] = "4"
    try:
        yield
    finally:
        del os.environ[_TIMEOUT]


with quiet_blas("numpy"):
    import numpy as np
