"""Host-time layer spans recorded from outside the program.

:class:`Tracer` replaces the public functions and methods of the
simulator's layer packages with thin wrappers that time each call as a
span.  A span's *self time* is its duration minus the time its nested
spans cover, so the self times of all spans plus the time no span
covers add up to the traced wall time exactly.

Wrapping rules (see ``README.md`` in this directory):

* methods are wrapped on their classes: public methods, ``__init__``
  and every generator function (a generator body runs when the event
  scheduler resumes it, not when it is created, so each resumption is
  timed as its own span);
* module functions are wrapped at every binding that holds them — the
  defining module and each importer's ``from x import f`` name;
* ``functools.lru_cache`` objects, properties and other dunders are
  left alone; their time lands in the calling span.

Every replaced attribute is recorded in :attr:`Tracer.wrapped` and
:meth:`Tracer.restore` puts the original objects back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: The simulator packages the benchmark attributes time to, by layer.
LAYER_PACKAGES = {
    "crypto": "repro.crypto",
    "tpm": "repro.tpm",
    "hw": "repro.hw",
    "osim": "repro.osim",
    "core": "repro.core",
    "sim": "repro.sim",
    "dist": "repro.dist",
    "vtpm": "repro.vtpm",
    "apps": "repro.apps",
    "analysis": "repro.analysis",
}

#: Named parts of a layer.  A key is ``module``, ``module:Class``,
#: ``module:function`` or ``module:Class.method``; the most specific
#: match wins, then the module's parent packages, then the layer.
GROUPS = {
    "repro.crypto.sha1:SHA1": "crypto.sha1_stream",
    "repro.crypto.md5crypt": "crypto.md5crypt",
    "repro.crypto.rsa:generate_rsa_keypair": "crypto.keygen",
    "repro.crypto.rsa:RSAPrivateKey": "crypto.rsa_private",
    "repro.crypto.aes": "crypto.aes",
    "repro.crypto.sha512": "crypto.sha512",
    "repro.tpm.tpm:TPMInterface.seal": "tpm.seal",
    "repro.tpm.tpm:TPMInterface.unseal": "tpm.unseal",
    "repro.tpm.tpm:TPMInterface.quote": "tpm.quote",
    "repro.hw.skinit": "hw.skinit",
    "repro.osim.kernel:UntrustedKernel.__init__": "osim.kernel_build",
    "repro.core.slb": "core.slb_build",
    "repro.core.pal:PAL.code_bytes": "core.slb_build",
    "repro.core.session": "core.session",
    "repro.core.attestation": "core.verify",
    "repro.core.template": "core.clone",
    "repro.sim.sched": "sim.sched",
    "repro.sim.rng": "sim.rng",
    "repro.vtpm.instance:VirtualTPM.quote": "vtpm.quote",
    "repro.analysis.engine:load_project": "analysis.load_project",
    "repro.analysis.callgraph:build_callgraph": "analysis.callgraph",
}

_PACKAGE_LAYER = {package: layer for layer, package in LAYER_PACKAGES.items()}


def layer_of(key: str) -> str:
    """``"crypto.keygen"`` -> ``"crypto"``."""
    return key.split(".", 1)[0]


def span_key(module: str, qualname: str) -> str:
    """The span key for ``qualname`` defined in ``module``."""
    parts = qualname.split(".")
    for i in range(len(parts), 0, -1):
        key = GROUPS.get(f"{module}:{'.'.join(parts[:i])}")
        if key is not None:
            return key
    name = module
    while name:
        key = GROUPS.get(name) or _PACKAGE_LAYER.get(name)
        if key is not None:
            return key
        name = name.rpartition(".")[0]
    raise ValueError(f"{module} is in no traced layer")


class Tracer:
    """Self time and call counts per span key, plus probe deltas.

    ``clock`` returns nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.probes: Dict[str, List[int]] = {}
        #: ``(binding, key)`` for every attribute replaced, in order
        #: (``key`` is ``None`` for a probe-only wrapper).
        self.wrapped: List[Tuple[str, str]] = []
        #: Summed duration of outermost spans (for ``unattributed``).
        self.top_ns = 0
        # Open spans: [key, nanoseconds covered by finished children].
        self._stack: List[list] = []
        self._originals: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        """Zero every accumulator (spans stay installed)."""
        self.self_ns.clear()
        self.calls.clear()
        self.probes.clear()
        self.top_ns = 0

    # -- spans ----------------------------------------------------------------

    def _enter(self, key: str) -> list:
        stack = self._stack
        self.calls[key] += 1
        # A layer's unnamed helpers called from one of its named parts
        # (``mod_pow`` inside keygen) add their time to that part; their
        # calls still count under their own key.
        if stack and "." not in key and layer_of(stack[-1][0]) == key:
            key = stack[-1][0]
        frame = [key, 0]
        stack.append(frame)
        return frame

    def _exit(self, frame: list, elapsed: int) -> None:
        stack = self._stack
        stack.pop()
        self.self_ns[frame[0]] += elapsed - frame[1]
        if stack:
            stack[-1][1] += elapsed
        else:
            self.top_ns += elapsed

    def wrap_function(self, fn, key: Optional[str], probe=None):
        """A wrapper timing each call of ``fn`` as a ``key`` span.

        ``probe(*args, **kwargs)`` (optional) returns a tuple of counters
        read before and after the call; the deltas accumulate in
        :attr:`probes` under ``"module:qualname"`` of ``fn``.  With
        ``key=None`` the wrapper only probes and records no span.
        """
        clock = self._clock
        spec = f"{fn.__module__}:{fn.__qualname__}"
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return _TracedGenerator(self, key, fn(*args, **kwargs))
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = probe(*args, **kwargs) if probe is not None else None
            frame = self._enter(key) if key is not None else None
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                if frame is not None:
                    self._exit(frame, clock() - start)
                if before is not None:
                    self._add_probe(spec, before, probe(*args, **kwargs))
        return wrapper

    def _add_probe(self, spec: str, before, after) -> None:
        totals = self.probes.setdefault(spec, [0] * len(before))
        for i, (b, a) in enumerate(zip(before, after)):
            totals[i] += a - b

    # -- installing -----------------------------------------------------------

    def _replace(self, owner, name: str, new, binding: str,
                 key: Optional[str]) -> None:
        self._originals.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)
        self.wrapped.append((binding, key))

    def install(self, probes: Optional[dict] = None) -> None:
        """Wrap every layer package (importing all their modules first).

        ``probes`` maps ``"module:qualname"`` to a probe callable for
        that function (see :meth:`wrap_function`); a probed private
        function gets a probe-only wrapper and no span.
        """
        probes = dict(probes or {})
        for package in LAYER_PACKAGES.values():
            _import_all(package)
        modules = sorted(
            (name, mod) for name, mod in sys.modules.items()
            if mod is not None and (name == "repro" or name.startswith("repro."))
        )
        # One wrapper per function, shared by all bindings of it.
        functions: Dict[int, Tuple[object, str]] = {}
        for name, mod in modules:
            if not _in_layers(name):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isclass(value) and value.__module__ == name:
                    self._wrap_class(value, name, probes)
                elif (inspect.isfunction(value) and value.__module__ == name
                      and (_public(attr) or inspect.isgeneratorfunction(value))):
                    key = span_key(name, value.__qualname__)
                    probe = probes.pop(f"{name}:{value.__qualname__}", None)
                    functions[id(value)] = (
                        self.wrap_function(value, key, probe), key)
        for name, mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in functions:
                    wrapper, key = functions[id(value)]
                    self._replace(mod, attr, wrapper, f"{name}.{attr}", key)
        if probes:
            raise ValueError(f"probed functions not found: {sorted(probes)}")

    def _wrap_class(self, cls, module: str, probes: dict) -> None:
        if issubclass(cls, BaseException):
            return
        for attr, raw in list(vars(cls).items()):
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if not inspect.isfunction(fn):
                continue
            spec = f"{module}:{fn.__qualname__}"
            probe = probes.pop(spec, None)
            traced = (_public(attr) or attr == "__init__"
                      or inspect.isgeneratorfunction(fn))
            if not traced and probe is None:
                continue
            key = span_key(module, fn.__qualname__) if traced else None
            wrapper = self.wrap_function(fn, key, probe)
            if isinstance(raw, (staticmethod, classmethod)):
                wrapper = type(raw)(wrapper)
            self._replace(cls, attr, wrapper, f"{module}.{fn.__qualname__}", key)

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    # -- results --------------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"self_ms": ..., "calls": ...}}`` over all keys."""
        totals = {layer: {"self_ms": 0.0, "calls": 0} for layer in LAYER_PACKAGES}
        for key, ns in self.self_ns.items():
            totals[layer_of(key)]["self_ms"] += ns / 1e6
        for key, count in self.calls.items():
            totals[layer_of(key)]["calls"] += count
        return totals


class _TracedGenerator:
    """A generator proxy timing each resumption as one span."""

    __slots__ = ("_tracer", "_key", "_gen")

    def __init__(self, tracer: Tracer, key: str, gen) -> None:
        self._tracer = tracer
        self._key = key
        self._gen = gen

    def _resume(self, method, *args):
        tracer = self._tracer
        frame = tracer._enter(self._key)
        start = tracer._clock()
        try:
            return method(*args)
        finally:
            tracer._exit(frame, tracer._clock() - start)

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self._gen.__next__)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *args):
        return self._resume(self._gen.throw, *args)

    def close(self):
        return self._resume(self._gen.close)


def _in_layers(module: str) -> bool:
    return any(module == package or module.startswith(package + ".")
               for package in _PACKAGE_LAYER)


def _public(name: str) -> bool:
    return not name.startswith("_")


def _import_all(package: str) -> None:
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        importlib.import_module(info.name)
