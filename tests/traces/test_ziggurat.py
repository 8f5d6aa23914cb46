"""The committed ziggurat tables against the installed numpy's sampler.

numpy keeps ``we/ke`` (exponential) and ``wi/ki`` (normal) in C, so
:mod:`repro.traces.ziggurat` commits them as literals.  This test re-derives
every entry from numpy itself: it sets a PCG64 state whose next output is a
chosen word, draws one variate, and reads off the table entry from the value
(``w``) or from whether the sampler took its fast path (``k``).  It fails,
naming numpy's version, if numpy's samplers ever stop matching the tables.
"""

from __future__ import annotations

import numpy as np

from repro.traces import ziggurat

_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK = (1 << 128) - 1


class Probe:
    """One scalar generator whose next outputs are set word by word."""

    def __init__(self) -> None:
        self.bit_generator = np.random.PCG64(0)
        self.rng = np.random.Generator(self.bit_generator)
        self.state = self.bit_generator.state
        self.inverse = pow(_MULT, -1, 1 << 128)

    def draw(self, method: str, word: int):
        """Draw once with ``word`` as the next output and 0 or 1 (a
        ``next_double`` of 0.0) after it; return the variate and whether the
        draw used ``word`` alone (the ziggurat's fast path)."""
        # A post-step state of (hi=0, lo=word) rotates by 0: it outputs word.
        # inc is chosen odd and so that the following state is 0 or 1.
        inc = -word * _MULT & _MASK
        inc |= 1
        self.state["state"]["state"] = (word - inc) * self.inverse & _MASK
        self.state["state"]["inc"] = inc
        self.bit_generator.state = self.state
        value = getattr(self.rng, method)()
        return value, self.bit_generator.state["state"]["state"] == word


def derive(probe: Probe, method: str, encode, bits: int):
    """``(k, w)`` tables: ``w[i]`` is the variate of the mantissa 1 at index
    ``i`` (a slow-path draw accepts it when the next uniform is 0), ``k[i]``
    the least mantissa that misses the fast path."""
    k, w = [], []
    for idx in range(256):
        w.append(probe.draw(method, encode(idx, 1))[0])
        fast, slow = -1, 1 << bits
        while slow - fast > 1:
            mid = (fast + slow) // 2
            if probe.draw(method, encode(idx, mid))[1]:
                fast = mid
            else:
                slow = mid
        k.append(slow)
    return k, w


def test_tables_are_the_installed_numpys():
    probe = Probe()
    ke, we = derive(probe, "standard_exponential", lambda i, r: ((r << 8) | i) << 3, 53)
    ki, wi = derive(probe, "standard_normal", lambda i, r: (r << 9) | i, 52)
    message = f"numpy {np.__version__} changed its ziggurat sampler"
    assert ziggurat.KE.tolist() == ke, message
    assert ziggurat.WE.tolist() == we, message
    assert ziggurat.KI.tolist() == ki, message
    assert ziggurat.WI.tolist() == wi, message


def test_tables_are_typed_for_the_decode():
    for table, dtype in ((ziggurat.KE, np.uint64), (ziggurat.KI, np.uint64),
                         (ziggurat.WE, np.float64), (ziggurat.WI, np.float64)):
        assert table.dtype == dtype and table.shape == (256,)
