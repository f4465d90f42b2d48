"""Engine execution backends.

A backend is one of three names (:data:`BACKEND_NAMES`), which
:func:`repro.sim.engine.build_engine` turns into an engine:

- ``"exact"`` — the reference per-node :class:`~repro.sim.engine.Engine`
  (general + fast-path kernels), bit-identical to historical behavior.
  The default.
- ``"vector"`` — a :class:`~repro.sim.backends.vector.VectorEngine`,
  which adds the numpy columnar kernel (Tier-B numpy RNG streams; an
  order of magnitude faster at ``n >= 10^4``).
- ``"vector-replay"`` — the columnar kernel drawing from the exact
  engine's Python RNG streams, consuming each as the exact engine
  does, producing bit-identical runs (Tier A); used by the equivalence
  tests and available anywhere a slower-but-provably-exact vector run
  is wanted.

Importing this package loads no kernel and never imports numpy: the
vector engine loads numpy when it is built and raises
:class:`BackendUnavailableError` with an actionable one-liner when it
is missing.  Use :func:`available_backends` to see what can run here.
"""

from repro._lazy import lazy_exports

#: Every exported name and the module that defines it, imported on first
#: use: ``from repro.sim.backends import BACKEND_NAMES`` loads no kernel.
_EXPORTS = {
    "AllInformed": "repro.sim.backends.base",
    "AllKnow": "repro.sim.backends.base",
    "BACKEND_NAMES": "repro.sim.backends.base",
    "BackendUnavailableError": "repro.sim.backends.base",
    "StopCondition": "repro.sim.backends.base",
    "VECTOR_CONTRACTS": "repro.sim.backends.base",
    "VectorContract": "repro.sim.backends.base",
    "VectorField": "repro.sim.backends.base",
    "available_backends": "repro.sim.backends.base",
    "backend_scope": "repro.sim.backends.base",
    "default_backend_name": "repro.sim.backends.base",
    "numpy_available": "repro.sim.backends.base",
    "resolve_backend": "repro.sim.backends.base",
    "set_default_backend": "repro.sim.backends.base",
    "vector_contract": "repro.sim.backends.base",
    "VectorEngine": "repro.sim.backends.vector",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
