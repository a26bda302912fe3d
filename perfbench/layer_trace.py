"""Host wall-time attribution to the repo's layers (the traced run).

:class:`LayerTracer` wraps the public entry points of each ``src/repro``
layer (:data:`ENTRY_POINTS`) with a timer.  Generator entry points (the
simulated-process code paths: ``Host.charge``, ``Socket.send``, ...) are
wrapped so that each resume is timed separately, because a generator's
wall time is spent only while it runs, not while it is suspended.

Timed calls nest on one stack.  A layer's *self* time is its inclusive
time minus the time of the wrapped calls made beneath it, so the layer
totals partition the root spans: ``Simulator.run``/``run_until_triggered``
are wrapped as ``sim.engine``, and whatever their inclusive time is not
claimed by another layer (the event loop itself, Event/Process plumbing,
unwrapped helpers) is ``sim.engine`` self time.

Wrapping changes host timing only.  Nothing here touches simulator
state, so a traced round must produce the same simulated digest as an
untraced one; the benchmark checks that.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["ENTRY_POINTS", "ENTRY_LAYERS", "LAYERS", "LayerTracer"]

#: (layer, module, class or None for module functions, entry points).
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("sim.engine", "repro.sim.engine", "Simulator",
     ("run", "run_until_triggered")),
    ("sim.cpu", "repro.sim.cpu", "CPU", ("run",)),
    ("kern", "repro.kern.host", "Host", ("charge",)),
    ("kern", "repro.kern.softint", "SoftNet", ("schednetisr",)),
    ("socket", "repro.socket.socket", "Socket",
     ("connect", "accept", "send", "recv", "close")),
    ("tcp", "repro.tcp.layer", "TCPLayer", ("input",)),
    ("tcp", "repro.tcp.conn", "TCPConnection",
     ("output", "input", "usr_close")),
    ("tcp.pcb", "repro.tcp.pcb", "PCBTable", ("lookup",)),
    ("ip", "repro.ip.layer", "IPLayer", ("output", "input")),
    ("atm", "repro.atm.adapter", "ForeTca100", ("output", "deliver")),
    ("atm", "repro.atm.aal", "Aal34Codec", ("segment", "reassemble")),
    ("ethernet", "repro.ethernet.adapter", "LanceEthernet",
     ("output", "deliver")),
    ("checksum", "repro.checksum.internet", None,
     ("internet_checksum", "raw_sum")),
    ("checksum", "repro.checksum.crc", None, ("crc10", "crc32")),
    ("mem", "repro.mem.mbuf", "MbufPool",
     ("build_chain", "free_chain", "m_copy", "alloc", "free")),
    ("mem", "repro.mem.mbuf", "MbufChain", ("to_bytes",)),
    ("chaos", "repro.chaos.impair", "Impairments", ("transmit_atm",)),
)

#: Every layer, in report order.
LAYERS: List[str] = list(dict.fromkeys(layer for layer, *_ in ENTRY_POINTS))

#: Entry point (``Class.name``, or the bare name of a module function)
#: -> its layer.
ENTRY_LAYERS: Dict[str, str] = {
    f"{cls}.{name}" if cls else name: layer
    for layer, _, cls, names in ENTRY_POINTS for name in names}

#: Entry points whose first argument is a byte buffer whose length is
#: the layer's work count (``checksum.bytes``).
_BYTE_COUNTED = {"checksum"}

#: ``MbufPool.free`` recycles an mbuf header only when it holds the sole
#: reference (``sys.getrefcount``), so its wrapper must not keep one.
_REFCOUNT_SENSITIVE = {("MbufPool", "free")}


class LayerTracer:
    """Install with :meth:`install`, read with :meth:`totals`, remove
    with :meth:`uninstall` (or use it as a context manager)."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: Calls per entry point (keys of ENTRY_LAYERS).
        self.calls: Dict[str, int] = dict.fromkeys(ENTRY_LAYERS, 0)
        self.nbytes: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.schedules = 0
        self._stack: List[list] = []
        self._restore: List[Callable[[], None]] = []

    # -- timing core ----------------------------------------------------
    def _timers(self, layer: str, entry: str):
        stack = self._stack
        clock = time.perf_counter_ns
        self_ns = self.self_ns
        calls = self.calls

        def enter() -> None:
            calls[entry] += 1
            stack.append([clock(), 0])

        def leave() -> None:
            start, child = stack.pop()
            inclusive = clock() - start
            self_ns[layer] += inclusive - child
            if stack:
                stack[-1][1] += inclusive

        return enter, leave

    def _wrap(self, layer: str, entry: str, func: Callable,
              refcount_neutral: bool = False):
        enter, leave = self._timers(layer, entry)
        if inspect.isgeneratorfunction(func):
            def resume_timed(gen):
                value = None
                error: Optional[BaseException] = None
                while True:
                    enter()
                    try:
                        if error is None:
                            target = gen.send(value)
                        else:
                            target = gen.throw(error)
                    except StopIteration as stop:
                        leave()
                        return stop.value
                    except BaseException:
                        leave()
                        raise
                    leave()
                    error = None
                    try:
                        value = yield target
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as exc:  # forwarded into gen
                        value, error = None, exc

            def gen_wrapper(*args, **kwargs):
                return resume_timed(func(*args, **kwargs))
            return gen_wrapper

        if refcount_neutral:
            def neutral_wrapper(obj, arg):
                box = [arg]
                del arg
                enter()
                try:
                    return func(obj, box.pop())
                finally:
                    leave()
            return neutral_wrapper

        if layer in _BYTE_COUNTED:
            nbytes = self.nbytes

            def counting_wrapper(data, *args, **kwargs):
                nbytes[layer] += len(data)
                enter()
                try:
                    return func(data, *args, **kwargs)
                finally:
                    leave()
            return counting_wrapper

        def wrapper(*args, **kwargs):
            enter()
            try:
                return func(*args, **kwargs)
            finally:
                leave()
        return wrapper

    # -- install / uninstall ---------------------------------------------
    def install(self) -> "LayerTracer":
        """Patch every entry point; build testbeds only afterwards, so
        bound methods captured at construction are the wrapped ones."""
        repro_modules = [m for name, m in list(sys.modules.items())
                         if name == "repro" or name.startswith("repro.")]
        for layer, module_name, class_name, names in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            for name in names:
                if class_name is None:
                    self._patch_function(layer, module, name, repro_modules)
                else:
                    self._patch_method(layer, getattr(module, class_name),
                                       class_name, name)
        return self

    def _patch_method(self, layer: str, cls: type, class_name: str,
                      name: str) -> None:
        owner = next(k for k in cls.__mro__ if name in k.__dict__)
        raw = owner.__dict__[name]
        is_static = isinstance(raw, staticmethod)
        func = raw.__func__ if is_static else raw
        wrapped = self._wrap(layer, f"{class_name}.{name}", func,
                             (class_name, name) in _REFCOUNT_SENSITIVE)
        setattr(cls, name, staticmethod(wrapped) if is_static else wrapped)
        if owner is cls:
            self._restore.append(lambda: setattr(cls, name, raw))
        else:
            self._restore.append(lambda: delattr(cls, name))

    def _patch_function(self, layer: str, module, name: str,
                        repro_modules) -> None:
        # Importers bound the function with ``from ... import``, so every
        # module-level alias of the same object is replaced.
        original = getattr(module, name)
        wrapped = self._wrap(layer, name, original)
        for mod in repro_modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._restore.append(
                        lambda mod=mod, attr=attr: setattr(mod, attr,
                                                           original))

    def count_schedules(self, sim) -> None:
        """Count ``sim.schedule`` calls (an instance attribute, so the
        pure and the compiled engine are counted alike)."""
        schedule = sim.schedule

        def counted(*args):
            self.schedules += 1
            return schedule(*args)
        sim.schedule = counted

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- readout ----------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, int]]:
        """Cumulative counters; callers diff two readings."""
        return {"ns": dict(self.self_ns), "calls": dict(self.calls),
                "bytes": dict(self.nbytes),
                "schedules": {"all": self.schedules}}
