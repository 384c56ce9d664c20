"""Closed-form bit-error-rate curves for the two branches of mmX's decoder.

The paper (section 9.3) computes BER by substituting measured SNR into
"standard BER tables based on the ASK modulation" [Tang et al. 2005].
:func:`ber_ask_table` is that table, for the amplitude branch, and
:func:`ber_fsk_noncoherent` is the non-coherent FSK curve for the
frequency branch.

Conventions
-----------
``snr_db`` is the ratio of *average* received signal power to noise power in
the signal bandwidth, in dB, matching how the paper's heatmaps report SNR.

The Gaussian Q function runs on this module's own float kernel, a port
of the Cephes ``erfc`` (``ndtr.c``) routine that ``scipy.special.erfc``
evaluates.  It keeps Cephes' coefficients, Horner order and grouping of
``*`` and ``/``, and calls libm through :func:`math.exp`, so it returns
scipy's bits without loading scipy.  (numpy's vectorised ``exp``
differs from libm in the last bit, and :func:`math.erfc` is a different
approximation.)  ``tests/test_phy_ber.py`` checks it bit for bit
against scipy over all finite floats and every branch edge.

A float or int (``np.float64`` included) is converted on Python floats
and comes back as a ``float``, as in :mod:`repro.units`; anything else
goes through ``np.asarray`` and the same kernel, element by element.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import overload

import numpy as np
import numpy.typing as npt

from ..units import FloatArray, db_to_linear

__all__ = [
    "qfunc",
    "ber_ask_table",
    "ber_fsk_noncoherent",
]

_SQRT2 = math.sqrt(2.0)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)


def _erfc(a: float) -> float:
    """Cephes ``erfc(a)``: ``1 - erf(a)`` below 1, else exp(-a^2) P/Q."""
    x = -a if a < 0.0 else a
    if x < 1.0:
        # erf(a) = a T(a^2) / U(a^2), odd in a.
        z = a * a
        t = (((9.60497373987051638749e0 * z + 9.00260197203842689217e1) * z
              + 2.23200534594684319226e3) * z + 7.00332514112805075473e3) * z \
            + 5.55923013010394962768e4
        u = ((((z + 3.35617141647503099647e1) * z + 5.21357949780152679795e2)
              * z + 4.59432382970980127987e3) * z + 2.26290000613890934246e4) \
            * z + 4.92673942608635921086e4
        return 1.0 - a * t / u
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0.0 else 0.0
    if x < 8.0:
        p = (((((((2.46196981473530512524e-10 * x + 5.64189564831068821977e-1)
                  * x + 7.46321056442269912687e0) * x + 4.86371970985681366614e1)
                * x + 1.96520832956077098242e2) * x + 5.26445194995477358631e2)
              * x + 9.34528527171957607540e2) * x + 1.02755188689515710272e3) \
            * x + 5.57535335369399327526e2
        q = (((((((x + 1.32281951154744992508e1) * x + 8.67072140885989742329e1)
                 * x + 3.54937778887819891062e2) * x + 9.75708501743205489753e2)
               * x + 1.82390916687909736289e3) * x + 2.24633760818710981792e3)
             * x + 1.65666309194161350182e3) * x + 5.57535340817727675546e2
    else:
        p = ((((5.64189583547755073984e-1 * x + 1.27536670759978104416e0) * x
               + 5.01905042251180477414e0) * x + 6.16021097993053585195e0) * x
             + 7.40974269950448939160e0) * x + 2.97886665372100240670e0
        q = (((((x + 2.26052863220117276590e0) * x + 9.39603524938001434673e0)
               * x + 1.20489539808096656605e1) * x + 1.70814450747565897222e1)
             * x + 9.60896809063285878198e0) * x + 3.36907645100081516050e0
    y = (math.exp(z) * p) / q
    if a < 0.0:
        y = 2.0 - y
    if y == 0.0:
        return 2.0 if a < 0.0 else 0.0
    return y


def _map(kernel: Callable[[float], float], values: FloatArray) -> FloatArray:
    """``kernel`` applied to each element, in ``values``' shape."""
    flat = map(kernel, np.ravel(values).tolist())
    out = np.fromiter(flat, dtype=np.float64, count=np.size(values))
    return out.reshape(np.shape(values))


@overload
def qfunc(x: float) -> float: ...  # type: ignore[overload-overlap]
@overload
def qfunc(x: npt.ArrayLike) -> FloatArray: ...
def qfunc(x: npt.ArrayLike) -> float | FloatArray:
    """Gaussian tail probability Q(x) = P[N(0,1) > x]."""
    if isinstance(x, (float, int)):
        return 0.5 * _erfc(float(x) / _SQRT2)
    return 0.5 * _map(_erfc, np.asarray(x, dtype=np.float64) / _SQRT2)


def _snr_linear(snr_db: npt.ArrayLike) -> FloatArray:
    return db_to_linear(snr_db)


def ber_ask_table(snr_db: npt.ArrayLike) -> FloatArray:
    """The 'standard BER table based on the ASK modulation' of §9.3.

    The paper substitutes measured SNR into the OOK curves of Tang et
    al. [43], whose convention works out to ``Q(sqrt(gamma))`` with
    ``gamma`` the reported (peak-referenced) SNR.  This reproduces the
    paper's own calibration claim that 15 dB SNR yields BER below 1e-8
    (section 9.4: Q(sqrt(31.6)) ~ 1e-8).  Use this for the Fig. 11
    methodology.  Coherent OOK in the textbook convention would be
    ``Q(sqrt(gamma / 2))``.
    """
    gamma = _snr_linear(snr_db)
    return qfunc(np.sqrt(gamma))


def ber_fsk_noncoherent(snr_db: npt.ArrayLike) -> FloatArray:
    """BER of non-coherent binary FSK: ``0.5 * exp(-gamma / 2)``."""
    gamma = _snr_linear(snr_db)
    decay: FloatArray = np.exp(-gamma / 2.0)
    return 0.5 * decay
