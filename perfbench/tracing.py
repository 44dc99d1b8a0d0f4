"""Span tracing of rabi_spectra from outside the package.

:class:`Tracer` wraps every public function of the package's modules and
rebinds the wrapper in every namespace that holds the function: the defining
module, modules that took it with a ``from``-import, and the package's
re-exports.  Calls made through a module attribute (``polys.p_fast_parts``
from ``perturb``) resolve the rebound name at call time, so they are caught
too.  Private helpers are not wrapped; their time is the self time of the
public function that called them.

Each span adds its duration to its parent's child time; a name's self time is
the sum of its spans' durations minus their child time.  So the self times of
all names add up exactly to the time covered by top-level spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from types import ModuleType

import rabi_spectra
from rabi_spectra import cli, eigensolve, model, perturb, polys, squeeze

MODULES: tuple[ModuleType, ...] = (model, eigensolve, squeeze, polys, perturb, cli)


class Tracer:
    """Span recorder: per-name calls and self times, plus layer counters."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.top_s = 0.0
        self._stack: list[list] = []
        self._bound: list[tuple[ModuleType, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for module in MODULES:
            short = module.__name__.rsplit(".", 1)[1]
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)
        for namespace in (rabi_spectra, *MODULES):
            for attr, value in list(vars(namespace).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._bound.append((namespace, attr, value))
                    setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._bound):
            setattr(namespace, attr, value)
        self._bound.clear()

    def _wrap(self, qualname: str, fn):
        stack = self._stack
        clock = self.clock
        observe = getattr(self, "_observe_" + qualname.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, qualname, args, kwargs]  # child time, span identity
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                else:
                    self.top_s += duration
                self.calls[qualname] += 1
                self.self_s[qualname] += duration - frame[0]
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # Counters read from arguments and results at the layer boundaries.

    def _observe_model_build_chain(self, args, kwargs, result) -> None:
        self.counts["model.build_chain.rows"] += result.n
        if self._stack and self._stack[-1][1] == "eigensolve.converged_levels":
            _, _, cert_args, cert_kwargs = self._stack[-1]
            levels = cert_args[2] if len(cert_args) > 2 else cert_kwargs["level_count"]
            self.counts["eigensolve.cert_solves"] += 1
            self.counts["eigensolve.row_levels"] += result.n * levels

    def _observe_eigensolve_converged_levels(self, args, kwargs, result) -> None:
        key = "eigensolve.truncation_dim.max"
        self.counts[key] = max(self.counts[key], result.truncation_dim)

    def _observe_perturb_v_tilde_row(self, args, kwargs, result) -> None:
        self.counts["perturb.v_tilde_row.entries"] += result[0].size

    def _observe_polys_p_fast_parts(self, args, kwargs, result) -> None:
        self.counts["polys.p_fast_parts.escalated"] += bool(result.escalated)
