"""The committed ziggurat tables against the installed numpy's sampler.

numpy keeps ``we/ke/fe`` (exponential) and ``wi/ki/fi`` (normal) in C, so
:mod:`repro.traces.ziggurat` commits them as literals.  One test re-derives
the ``w`` and ``k`` entries from numpy's draws: it sets a PCG64 state whose
next output is a chosen word, draws one variate, and reads off the table
entry from the value (``w``) or from whether the sampler took its fast path
(``k``).  Another reads all six tables from the ``*_double`` symbols of the
static library numpy installs for extension writers
(``numpy/random/lib/libnpyrandom.a``), with a small ``ar`` + ELF reader.
Both fail, naming numpy's version, if numpy's samplers stop matching.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Dict, Iterator, Tuple

import numpy as np
import pytest

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
                         (ziggurat.WE, np.float64), (ziggurat.WI, np.float64),
                         (ziggurat.FE, np.float64), (ziggurat.FI, np.float64)):
        assert table.dtype == dtype and table.shape == (256,)


_ARCHIVE = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
_MEMBER = "src_distributions_distributions.c.o"


def _ar_members(data: bytes) -> Iterator[Tuple[str, bytes]]:
    """``(name, body)`` of each member of a System V / GNU ``ar`` archive."""
    assert data[:8] == b"!<arch>\n", "not an ar archive"
    pos, long_names = 8, b""
    while pos + 60 <= len(data):
        name = data[pos : pos + 16].decode().rstrip()
        size = int(data[pos + 48 : pos + 58])
        body = data[pos + 60 : pos + 60 + size]
        pos += 60 + size + (size & 1)
        if name == "//":
            long_names = body
        elif name.startswith("/") and name[1:].isdigit():
            start = int(name[1:])
            yield long_names[start : long_names.index(b"/\n", start)].decode(), body
        else:
            yield name.rstrip("/"), body


def _elf_symbols(obj: bytes) -> Dict[str, bytes]:
    """The bytes of each sized symbol of a little-endian ELF64 object."""
    (shoff,) = struct.unpack_from("<Q", obj, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", obj, 0x3A)
    # (type, file offset, size, link, entry size) of each section.
    sections = [
        (kind, offset, size, link, entsize)
        for _, kind, _, _, offset, size, link, _, _, entsize in (
            struct.unpack_from("<IIQQQQIIQQ", obj, shoff + k * shentsize)
            for k in range(shnum)
        )
    ]
    symbols = {}
    for kind, offset, size, link, entsize in sections:
        if kind != 2:  # SHT_SYMTAB; its link is its string table
            continue
        names = sections[link][1]
        for k in range(size // entsize):
            name, _, _, shndx, value, length = struct.unpack_from(
                "<IBBHQQ", obj, offset + k * entsize
            )
            if 0 < shndx < len(sections) and length:
                label = obj[names + name : obj.index(b"\0", names + name)].decode()
                start = sections[shndx][1] + value
                symbols[label] = obj[start : start + length]
    return symbols


def test_tables_are_the_installed_numpys_c_arrays():
    if not _ARCHIVE.exists():
        pytest.skip(f"numpy {np.__version__} installs no {_ARCHIVE.name}")
    members = dict(_ar_members(_ARCHIVE.read_bytes()))
    if _MEMBER not in members:
        pytest.skip(f"{_ARCHIVE.name} holds no {_MEMBER}")
    if members[_MEMBER][:6] != b"\x7fELF\x02\x01":
        pytest.skip(f"{_MEMBER} is not a little-endian ELF64 object")
    symbols = _elf_symbols(members[_MEMBER])
    message = f"numpy {np.__version__} changed its ziggurat tables"
    for name, dtype in (("ke", "<u8"), ("we", "<f8"), ("fe", "<f8"),
                        ("ki", "<u8"), ("wi", "<f8"), ("fi", "<f8")):
        table = np.frombuffer(symbols[f"{name}_double"], dtype)
        assert table.tolist() == getattr(ziggurat, name.upper()).tolist(), message
