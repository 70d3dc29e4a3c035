"""Simulated power cuts for the durability tests.

:func:`crash_at` crashes the ``n``-th call that changes what is on
disk: ``os.write``, ``os.fsync``, ``os.replace``, ``os.truncate`` and
``os.unlink`` (``Path.unlink`` included), plus ``write``, ``flush`` and
``truncate`` of every file the given modules ``open`` themselves.
"""

from __future__ import annotations

import io
import os
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional

_CRASHABLE = ("write", "fsync", "replace", "truncate", "unlink")


class Crash(BaseException):
    """A simulated power cut: no handler of the code under test catches it."""


class _Power:
    """Counts crashable calls; cuts the power on the ``n``-th."""

    def __init__(self, n: int):
        self.n = n
        self.calls = [0]
        self.cut = False

    def tick(self, name: str, torn: Optional[Callable[[], None]] = None):
        self.calls[0] += 1
        if self.calls[0] == self.n:
            if torn is not None:
                torn()
            self.cut = True
            raise Crash(f"{name} call {self.n}")


class _ProcessBufferedFile:
    """A file whose writes wait in the process until ``flush``.

    A power cut loses that buffer, as it would a real process's; a
    crashing ``flush`` first lands half of it (a torn write).
    """

    def __init__(self, power: _Power, path, mode: str = "r"):
        self._power = power
        self._text = "b" not in mode
        self._raw = io.open(path, mode.replace("b", "") + "b", buffering=0)
        self._buffer = bytearray()

    def write(self, data) -> int:
        self._power.tick("write")
        self._buffer += data.encode("utf-8") if self._text else data
        return len(data)

    def flush(self) -> None:
        half = bytes(self._buffer[:len(self._buffer) // 2])
        self._power.tick("flush", lambda: self._raw.write(half))
        self._raw.write(bytes(self._buffer))
        self._buffer.clear()

    def truncate(self, size: int) -> int:
        self._power.tick("truncate")
        return self._raw.truncate(size)

    def fileno(self) -> int:
        return self._raw.fileno()

    def tell(self) -> int:
        return self._raw.tell() + len(self._buffer)

    def close(self) -> None:
        if not self._power.cut:
            self._raw.write(bytes(self._buffer))
        self._buffer.clear()
        self._raw.close()

    def __enter__(self) -> "_ProcessBufferedFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@contextmanager
def crash_at(n: int, *modules) -> Iterator[List[int]]:
    """Crash on the ``n``-th crashable call (``n=0`` only counts).

    A crashing ``os.write`` first lands half its bytes (a torn write).
    In process, the page cache is the disk, so ``fsync`` is only
    counted.  Files the ``modules`` open keep their writes in the
    process until flushed (:class:`_ProcessBufferedFile`).  Yields the
    list holding the call count.
    """
    power = _Power(n)
    originals = {name: getattr(os, name) for name in _CRASHABLE}

    def wrap(name, real):
        def call(*args, **kwargs):
            def torn():
                data = bytes(args[1])
                real(args[0], data[:len(data) // 2])

            power.tick(f"os.{name}", torn if name == "write" else None)
            if name != "fsync":
                return real(*args, **kwargs)
        return call

    def opener(path, mode="r", *args, **kwargs):
        return _ProcessBufferedFile(power, path, mode)

    for name, real in originals.items():
        setattr(os, name, wrap(name, real))
    for module in modules:
        module.open = opener
    try:
        yield power.calls
    finally:
        for name, real in originals.items():
            setattr(os, name, real)
        for module in modules:
            del module.open
