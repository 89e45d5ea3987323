"""Layer tracing from outside the program.

While installed, a ``Tracer`` replaces every public function of the
``config``, ``fock``, ``coefficients``, ``protocol``, ``oracle`` and
``runner`` modules with a timing wrapper, in every ``zenocool`` namespace
that holds it (modules import each other's names with ``from .x import
f``). scipy's ``logsumexp``, as ``protocol`` and ``fock`` import it, is
wrapped the same way under the name ``protocol.logsumexp``. Nothing in
the program changes; ``uninstall`` puts every original back.

Each wrapper is a span. A span's self time is its duration minus the time
covered by the spans it encloses. Spans are aggregated in memory by name:
calls, total seconds and self seconds.

Three counters are taken at the same boundaries: constructions of
``PopulationDistribution`` (its ``__post_init__`` is wrapped), levels
evaluated by ``build_table``, and uniform draws made by the generators
that ``sample_trajectories`` creates (``numpy.random.default_rng`` returns
a counting proxy while that span is open).
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("config", "fock", "coefficients", "protocol", "oracle", "runner")
SAMPLER_SPAN = "oracle.sample_trajectories"


class _CountingGenerator:
    """Forwards to a numpy Generator, counting the values each call draws."""

    def __init__(self, generator, counts: Counter):
        self._generator = generator
        self._counts = counts

    def __getattr__(self, name):
        attr = getattr(self._generator, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            self._counts["oracle.rng_draws"] += int(np.size(out))
            return out
        return counted


class Tracer:
    def __init__(self, package):
        self._package = package
        self._patches: list[tuple[object, str, object]] = []
        self.spans: dict[str, list] = {}     # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.initial_n_max: list[int] = []
        self.batches: list = []
        self._stack: list[list] = []         # open spans: [child_s, name]

    def reset(self):
        """Forget everything recorded so far (spans, counters, batches)."""
        self.spans.clear()
        self.counts.clear()
        self.initial_n_max.clear()
        self.batches.clear()

    def current(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def _wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                agg = spans.setdefault(name, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _targets(self) -> dict[int, tuple[object, object]]:
        pkg = self._package
        after = {
            "coefficients.build_table": self._after_build_table,
            "fock.thermal_distribution": self._after_thermal,
            "oracle.sample_trajectories": self._after_sampler,
        }
        targets = {}
        for layer in LAYERS:
            module = getattr(pkg, layer)
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    targets[id(obj)] = (obj, self._wrap(name, obj, after.get(name)))
        lse = pkg.protocol.logsumexp
        targets[id(lse)] = (lse, self._wrap("protocol.logsumexp", lse))
        return targets

    def _after_build_table(self, args, kwargs, result):
        self.counts["coefficients.levels_evaluated"] += result.values.size

    def _after_thermal(self, args, kwargs, result):
        self.initial_n_max.append(result.n_max)

    def _after_sampler(self, args, kwargs, result):
        self.batches.append(result)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        prefix = self._package.__name__
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == prefix
                                      or mod_name.startswith(prefix + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])

        dist = self._package.fock.PopulationDistribution
        post_init = dist.__post_init__
        counts = self.counts

        def counted_post_init(obj):
            counts["fock.PopulationDistribution.count"] += 1
            post_init(obj)
        self._patch(dist, "__post_init__", counted_post_init)

        default_rng = np.random.default_rng

        def traced_default_rng(*args, **kwargs):
            generator = default_rng(*args, **kwargs)
            if self.current() == SAMPLER_SPAN:
                return _CountingGenerator(generator, counts)
            return generator
        self._patch(np.random, "default_rng", traced_default_rng)
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------------------------

    def total(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, *names: str) -> float:
        return sum(self.spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def useful_draw_ratio(self) -> float:
        """Draws spent on live trajectories over all draws the sampler made.

        A trajectory that survived L measurements out of n needed its level
        draw and min(L + 1, n) survival tests; every other draw went to a
        trajectory that was already dead.
        """
        useful = sum(b.n_trajectories + int(np.minimum(b.survival_lengths + 1,
                                                        b.n_steps).sum())
                     for b in self.batches)
        draws = self.counts["oracle.rng_draws"]
        return useful / draws if draws else float("nan")
