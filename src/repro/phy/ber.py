"""Closed-form bit-error-rate theory for the modulations mmX uses.

The paper (section 9.3) computes BER by substituting measured SNR into
"standard BER tables based on the ASK modulation" [Tang et al. 2005].  This
module provides those closed forms for on-off keying (OOK/ASK), binary FSK
and BPSK, plus the Gaussian Q function and its inverse so experiments can go
back and forth between SNR and BER.

Conventions
-----------
``snr_db`` is the ratio of *average* received signal power to noise power in
the signal bandwidth, in dB, matching how the paper's heatmaps report SNR.
For OOK with equiprobable bits the "on" level carries twice the average
power.

Q and its inverse run on this module's own float kernels, ports of the
Cephes ``erfc`` (``ndtr.c``) and ``ndtri`` (``ndtri.c``) routines that
``scipy.special.erfc``/``erfcinv`` evaluate.  They keep Cephes'
coefficients, Horner order and grouping of ``*`` and ``/``, and call
libm through :func:`math.exp`, :func:`math.log` and :func:`math.sqrt`,
so they return scipy's bits without loading scipy.  (numpy's vectorised
``exp`` differs from libm in the last bit, and :func:`math.erfc` is a
different approximation.)  ``tests/test_phy_ber.py`` checks them bit for
bit against scipy over all finite floats and every branch edge.

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

from ..units import FloatArray, db_to_linear, linear_to_db

__all__ = [
    "qfunc",
    "qfunc_inv",
    "ber_ook_coherent",
    "ber_ook_noncoherent",
    "ber_ask_coherent",
    "ber_ask_table",
    "ber_fsk_noncoherent",
    "ber_fsk_coherent",
    "ber_bpsk",
    "snr_db_for_target_ber",
]

_SQRT2 = math.sqrt(2.0)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_EXP_MINUS_2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
_SQRT1_2 = 0.70710678118654752440


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


def _ndtri(y0: float) -> float:
    """Cephes ``ndtri(y0)``: the standard normal quantile on [0, 1]."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    y = y0
    mirrored = y > 1.0 - _EXP_MINUS_2
    if mirrored:
        y = 1.0 - y
    if y > _EXP_MINUS_2:
        y = y - 0.5
        y2 = y * y
        p0 = (((-5.99633501014107895267e1 * y2 + 9.80010754185999661536e1) * y2
               - 5.66762857469070293439e1) * y2 + 1.39312609387279679503e1) * y2 \
            - 1.23916583867381258016e0
        q0 = (((((((y2 + 1.95448858338141759834e0) * y2 + 4.67627912898881538453e0)
                  * y2 + 8.63602421390890590575e1) * y2 - 2.25462687854119370527e2)
                * y2 + 2.00260212380060660359e2) * y2 - 8.20372256168333339912e1)
              * y2 + 1.59056225126211695515e1) * y2 - 1.18331621121330003142e0
        return (y + y * (y2 * p0 / q0)) * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        p = (((((((4.05544892305962419923e0 * z + 3.15251094599893866154e1) * z
                  + 5.71628192246421288162e1) * z + 4.40805073893200834700e1) * z
                + 1.46849561928858024014e1) * z + 2.18663306850790267539e0) * z
              - 1.40256079171354495875e-1) * z - 3.50424626827848203418e-2) * z \
            - 8.57456785154685413611e-4
        q = (((((((z + 1.57799883256466749731e1) * z + 4.53907635128879210584e1)
                 * z + 4.13172038254672030440e1) * z + 1.50425385692907503408e1)
               * z + 2.50464946208309415979e0) * z - 1.42182922854787788574e-1)
             * z - 3.80806407691578277194e-2) * z - 9.33259480895457427372e-4
    else:
        p = (((((((3.23774891776946035970e0 * z + 6.91522889068984211695e0) * z
                  + 3.93881025292474443415e0) * z + 1.33303460815807542389e0) * z
                + 2.01485389549179081538e-1) * z + 1.23716634817820021358e-2) * z
              + 3.01581553508235416007e-4) * z + 2.65806974686737550832e-6) * z \
            + 6.23974539184983293730e-9
        q = (((((((z + 6.02427039364742014255e0) * z + 3.67983563856160859403e0)
                 * z + 1.37702099489081330271e0) * z + 2.16236993594496635890e-1)
               * z + 1.34204006088543189037e-2) * z + 3.28014464682127739104e-4)
             * z + 2.89247864745380683936e-6) * z + 6.79019408009981274425e-9
    x = x0 - z * p / q
    return x if mirrored else -x


def _erfcinv(y: float) -> float:
    """scipy's ``erfcinv(y) = -ndtri(y / 2) / sqrt(2)``; NaN outside [0, 2]."""
    if 0.0 < y < 2.0:
        return -_ndtri(0.5 * y) * _SQRT1_2
    if y == 0.0:
        return math.inf
    if y == 2.0:
        return -math.inf
    return math.nan


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


@overload
def qfunc_inv(p: float) -> float: ...  # type: ignore[overload-overlap]
@overload
def qfunc_inv(p: npt.ArrayLike) -> FloatArray: ...
def qfunc_inv(p: npt.ArrayLike) -> float | FloatArray:
    """Inverse of :func:`qfunc`; valid for 0 < p < 1."""
    if isinstance(p, (float, int)):
        return _SQRT2 * _erfcinv(2.0 * float(p))
    return _SQRT2 * _map(_erfcinv, 2.0 * np.asarray(p, dtype=np.float64))


def _snr_linear(snr_db: npt.ArrayLike) -> FloatArray:
    return db_to_linear(snr_db)


def ber_ook_coherent(snr_db: npt.ArrayLike) -> FloatArray:
    """BER of coherently detected on-off keying.

    With average SNR ``gamma`` the two levels are 0 and ``sqrt(2 gamma)``
    in units of the noise standard deviation and the threshold sits
    midway, so ``BER = Q(sqrt(2 gamma) / 2) = Q(sqrt(gamma / 2))``.
    """
    gamma = _snr_linear(snr_db)
    return qfunc(np.sqrt(gamma / 2.0))


def ber_ook_noncoherent(snr_db: npt.ArrayLike) -> FloatArray:
    """BER of envelope-detected (non-coherent) OOK.

    High-SNR approximation ``0.5 * exp(-gamma / 4)`` combined with the
    coherent bound so the curve stays sane at low SNR.  This matches the
    OOK analysis in Tang et al. [43] which the paper cites for its BER
    tables.
    """
    gamma = _snr_linear(snr_db)
    noncoh: FloatArray = 0.5 * np.exp(-gamma / 4.0)
    # Envelope detection can never beat coherent detection.
    floor: FloatArray = np.maximum(noncoh, ber_ook_coherent(snr_db))
    return floor


def ber_ask_coherent(levels_snr_db: npt.ArrayLike,
                     separation_fraction: float = 1.0) -> FloatArray:
    """BER for binary ASK where the two levels are set by the channel.

    mmX's OTAM produces ASK whose level distance is the *difference of the
    two beams' channel amplitudes*, not a designed constellation.  This
    helper takes the effective SNR of that level difference and applies the
    antipodal-distance Q-form.

    Parameters
    ----------
    levels_snr_db:
        SNR of the level *difference* power to noise power, in dB.
    separation_fraction:
        Optional derating (0..1] of the usable distance, e.g. for imperfect
        thresholding.
    """
    if not 0.0 < separation_fraction <= 1.0:
        raise ValueError("separation_fraction must be in (0, 1]")
    gamma = _snr_linear(levels_snr_db) * separation_fraction**2
    return qfunc(np.sqrt(gamma / 2.0))


def ber_ask_table(snr_db: npt.ArrayLike) -> FloatArray:
    """The 'standard BER table based on the ASK modulation' of §9.3.

    The paper substitutes measured SNR into the OOK curves of Tang et
    al. [43], whose convention works out to ``Q(sqrt(gamma))`` with
    ``gamma`` the reported (peak-referenced) SNR.  This reproduces the
    paper's own calibration claim that 15 dB SNR yields BER below 1e-8
    (section 9.4: Q(sqrt(31.6)) ~ 1e-8).  Use this for the Fig. 11
    methodology; use :func:`ber_ook_coherent` for textbook analysis.
    """
    gamma = _snr_linear(snr_db)
    return qfunc(np.sqrt(gamma))


def ber_fsk_noncoherent(snr_db: npt.ArrayLike) -> FloatArray:
    """BER of non-coherent binary FSK: ``0.5 * exp(-gamma / 2)``."""
    gamma = _snr_linear(snr_db)
    decay: FloatArray = np.exp(-gamma / 2.0)
    return 0.5 * decay


def ber_fsk_coherent(snr_db: npt.ArrayLike) -> FloatArray:
    """BER of coherent binary FSK: ``Q(sqrt(gamma))``."""
    gamma = _snr_linear(snr_db)
    return qfunc(np.sqrt(gamma))


def ber_bpsk(snr_db: npt.ArrayLike) -> FloatArray:
    """BER of coherent BPSK: ``Q(sqrt(2 gamma))`` — the usual reference."""
    gamma = _snr_linear(snr_db)
    return qfunc(np.sqrt(2.0 * gamma))


def snr_db_for_target_ber(target_ber: float, modulation: str = "ook") -> float:
    """Minimum SNR [dB] achieving ``target_ber`` for a given modulation.

    Supports 'ook' (coherent OOK), 'fsk' (non-coherent) and 'bpsk'.
    Uses the closed-form inverses, so it is exact for these curves.
    """
    if not 0.0 < target_ber < 0.5:
        raise ValueError("target BER must be in (0, 0.5)")
    if modulation == "ook":
        gamma = 2.0 * float(qfunc_inv(target_ber)) ** 2
    elif modulation == "fsk":
        gamma = -2.0 * float(np.log(2.0 * target_ber))
    elif modulation == "bpsk":
        gamma = float(qfunc_inv(target_ber)) ** 2 / 2.0
    else:
        raise ValueError(f"unknown modulation {modulation!r}")
    return float(linear_to_db(gamma))
