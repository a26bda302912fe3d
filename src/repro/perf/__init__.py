"""Performance tooling: cached+parallel sweeps and native dispatch.

Three legs (none of which alter simulated results — equivalence is
enforced by ``tests/test_perf_equivalence.py`` and the golden fixtures
in ``tests/perf_golden/``):

* :mod:`repro.perf.cache` — content-addressed on-disk cache of sweep
  cells, salted with a hash of the simulation source so any code
  change invalidates it;
* :mod:`repro.perf.runner` — deterministic parallel sweep execution
  over a ``multiprocessing`` spawn pool, shared by the CLI tables and
  the pytest benchmarks;
* :mod:`repro.perf.native` — import-time dispatch to the optional
  compiled hot core (``REPRO_NATIVE=0|1``).

Wall time is measured by ``perfbench/`` at the repository root, not
from inside the package.

The re-exports below are resolved lazily (PEP 562): the hot-path
modules (``repro.sim.engine``, ``repro.checksum``, …) import
``repro.perf.native`` at *their* import time, and an eager
``from repro.perf.cache import …`` here would close an import cycle
back through ``repro.core``.
"""

from typing import TYPE_CHECKING

__all__ = [
    "ResultCache",
    "cell_fingerprint",
    "code_salt",
    "SweepCell",
    "SweepOptions",
    "SweepRunner",
    "run_sweep",
]

_CACHE_NAMES = frozenset({"ResultCache", "cell_fingerprint", "code_salt"})
_RUNNER_NAMES = frozenset(
    {"SweepCell", "SweepOptions", "SweepRunner", "run_sweep"})

if TYPE_CHECKING:  # pragma: no cover - typing-time only
    from repro.perf.cache import (  # noqa: F401
        ResultCache,
        cell_fingerprint,
        code_salt,
    )
    from repro.perf.runner import (  # noqa: F401
        SweepCell,
        SweepOptions,
        SweepRunner,
        run_sweep,
    )


def __getattr__(name: str):
    if name in _CACHE_NAMES:
        from repro.perf import cache

        return getattr(cache, name)
    if name in _RUNNER_NAMES:
        from repro.perf import runner

        return getattr(runner, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
