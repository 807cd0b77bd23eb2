"""Per-layer tracing of adagibbs, installed from outside the package.

Every public function and method of each layer module is replaced by a
wrapper at every place the package looks it up: the defining module, every
other module that imported it by name (``adagibbs.experiments`` holds its own
reference to ``transience_experiment``), the package namespace, and module
level tables such as ``EXPERIMENT_FUNCTIONS``.  Methods are patched on their
class.  No source file changes.

Each wrapper counts calls and charges exclusive time to its function: the
thread's CPU clock is read on every entry and exit, and the time since the
previous reading goes to the function on top of that thread's stack.  CPU
time rather than wall time keeps the numbers honest when replicate threads
wait for the interpreter lock.  Functions called on every sampler step only
count; spans (name, parent id, wall start/end, thread CPU) are kept only at
coarse boundaries (op, experiment, replicate run, kernel build, IACT call),
stay in memory and are written out once at the end of a run.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import inspect
import itertools
import threading
import time

LAYERS = (
    "cli",
    "experiments",
    "samplers",
    "ladder",
    "weights",
    "targets",
    "kernels",
    "bounds",
    "variance",
    "adaptation",
)

# Classes defined in one module but belonging to another layer.
LAYER_OF_CLASS = {"adagibbs.ladder.LadderTarget": "targets"}

# Helpers reached only from inside an already wrapped function of the same
# layer, several times per sampler step; wrapping them would add cost and no
# information.
SKIP = {
    "adagibbs.ladder.schedule_a",
    "adagibbs.ladder.ladder_epsilon",
    "adagibbs.ladder.Schedule",
    "adagibbs.ladder.LadderState",
    "adagibbs.adaptation.AdaptState",
    "adagibbs.ladder.LadderTarget.conditional",
    "adagibbs.samplers.Trajectory.__post_init__",
    "adagibbs.samplers.ProposalFamily.check_gamma",
}

METROPOLIS_RUNS = ("adap_rsmwg_run", "adap_rs_adap_mwg_run")
SAMPLER_RUNS = ("rsg_run", "adap_rsg_run", *METROPOLIS_RUNS)
KERNEL_BUILDS = (
    "single_coordinate_kernel",
    "gibbs_kernel_matrix",
    "state_dependent_gibbs_kernel",
    "systematic_scan_kernel",
    "mwg_kernel_matrix",
    "random_reversible_chain",
)
CONDITIONALS = ("conditional", "conditional_cdf", "conditional_density")
EVOLUTIONS = ("truncated_ladder_evolution", "unbounded_ladder_law")

_clock = time.thread_time_ns
_wall = time.perf_counter_ns
_MISSING = object()


class _ThreadState:
    __slots__ = ("stack", "spans", "mark", "calls", "extra")

    def __init__(self):
        self.stack = []  # function records, innermost last
        self.spans = []  # open span ids, innermost last
        self.mark = _clock()
        self.calls = {}  # key -> [calls, entries from another layer, self ns, layer]
        self.extra = {}  # counter name -> value


class Tracer:
    """Owns the wrappers, counters and spans of one traced process."""

    def __init__(self):
        self._tls = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._main = self._state()
        self.spans = []  # (id, parent, name, wall start ns, wall end ns, cpu ns)
        self._patches = []

    # -- state -------------------------------------------------------------

    def _state(self):
        try:
            return self._tls.state
        except AttributeError:
            state = _ThreadState()
            self._tls.state = state
            with self._lock:
                self._states.append(state)
            return state

    def add(self, name, value):
        extra = self._state().extra
        extra[name] = extra.get(name, 0) + value

    def snapshot(self):
        """Totals merged over threads: ``(calls, extra)``."""
        calls, extra = {}, {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, rec in list(state.calls.items()):
                total = calls.setdefault(key, [0, 0, 0])
                for field in range(3):
                    total[field] += rec[field]
            for name, value in list(state.extra.items()):
                extra[name] = extra.get(name, 0) + value
        return calls, extra

    # -- spans ---------------------------------------------------------------

    def open_span(self):
        state = self._state()
        if state.spans:
            parent = state.spans[-1]
        elif state is not self._main and self._main.spans:
            # Pool threads start with an empty stack: their parent is the
            # span the submitting thread is blocked in.
            parent = self._main.spans[-1]
        else:
            parent = None
        span_id = next(self._ids)
        state.spans.append(span_id)
        return span_id, parent, _wall(), _clock()

    def close_span(self, token, name):
        span_id, parent, wall0, cpu0 = token
        self._state().spans.pop()
        self.spans.append((span_id, parent, name, wall0, _wall(), _clock() - cpu0))

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, key, layer, span_name, hook):
        tls = self._tls
        new_state = self._state
        open_span = self.open_span
        close_span = self.close_span
        is_span = span_name is not None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                state = tls.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            token = open_span() if is_span else None
            now = _clock()
            if stack:
                top = stack[-1]
                top[2] += now - state.mark
                entry = top[3] != layer
            else:
                entry = True
            rec = state.calls.get(key)
            if rec is None:
                rec = state.calls[key] = [0, 0, 0, layer]
            rec[0] += 1
            rec[1] += entry
            stack.append(rec)
            state.mark = now
            try:
                result = fn(*args, **kwargs)
            finally:
                now = _clock()
                rec[2] += now - state.mark
                stack.pop()
                state.mark = now
                if is_span:
                    close_span(token, span_name(args, kwargs) if callable(span_name) else span_name)
            if hook is not None:
                hook(tracer, args, result)
                state.mark = _clock()
            return result

        return wrapper

    def install(self):
        """Wrap every public function of the layer modules at every lookup
        site; returns ``self`` for chaining."""
        modules = {
            layer: importlib.import_module(f"adagibbs.{layer}") for layer in LAYERS
        }
        package = importlib.import_module("adagibbs")
        replaced = {}  # id(original) -> wrapper, for module-level functions
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                qual = f"{module.__name__}.{name}"
                if name.startswith("_") or qual in SKIP:
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    key = f"{layer}.{name}"
                    replaced[id(obj)] = (obj, self._make(obj, key, layer, name))
                elif inspect.isclass(obj):
                    self._install_class(obj, LAYER_OF_CLASS.get(qual, layer), qual)
        for module in (package, *modules.values()):
            self._replace_in_namespace(vars(module), module, replaced)
        self._patch(modules["experiments"], "open", self._timed_open)
        return self

    def _install_class(self, cls, layer, qual):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in ("__init__", "__post_init__"):
                continue
            if f"{qual}.{name}" in SKIP or isinstance(raw, (property, staticmethod)):
                continue
            if name == "__init__" and hasattr(cls, "__dataclass_fields__"):
                continue  # generated; its __post_init__ carries the work
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._make(raw.__func__, key, layer, name))
            elif inspect.isfunction(raw):
                wrapped = self._make(raw, key, layer, name)
            else:
                continue
            self._patch(cls, name, wrapped)

    def _make(self, fn, key, layer, name):
        span_name, hook = None, None
        if layer == "samplers" and name in SAMPLER_RUNS:
            span_name = f"run/{name}"
            hook = _metropolis_hook if name in METROPOLIS_RUNS else _gibbs_hook
        elif layer == "kernels" and name in KERNEL_BUILDS:
            span_name, hook = f"kernel/{name}", _kernel_hook
        elif layer == "variance" and name == "iact_estimate":
            span_name, hook = "iact", _iact_hook
        elif layer == "experiments" and name == "run_experiment":
            span_name = _experiment_span_name
        elif layer == "ladder" and name in EVOLUTIONS:
            hook = _evolution_hook
        elif key in ("targets.FiniteProductTarget.conditional",
                     "targets.FiniteProductTarget.conditional_cdf"):
            return self._wrap(_cache_counting(self, fn), key, layer, None, None)
        return self._wrap(fn, key, layer, span_name, hook)

    def _replace_in_namespace(self, namespace, owner, replaced):
        for name, value in list(namespace.items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                self._patch(owner, name, hit[1])
            elif isinstance(value, dict) and not name.startswith("__"):
                for k, v in list(value.items()):
                    hit = replaced.get(id(v))
                    if hit is not None and hit[0] is v:
                        self._patch_item(value, k, hit[1])

    def _patch(self, owner, name, value):
        self._patches.append(("attr", owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def _patch_item(self, table, key, value):
        self._patches.append(("item", table, key, table[key]))
        table[key] = value

    def uninstall(self):
        """Restore every patched attribute and table entry."""
        for kind, owner, name, old in reversed(self._patches):
            if kind == "item":
                owner[name] = old
            elif old is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, old)
        self._patches.clear()

    # -- file output of the experiments harness --------------------------------

    def _timed_open(self, *args, **kwargs):
        return _TimedFile(self, builtins.open(*args, **kwargs))


class _TimedFile:
    """File proxy charging open-to-close wall time to ``experiments.io_ns``."""

    def __init__(self, tracer, fh):
        self._tracer = tracer
        self._fh = fh
        self._t0 = _wall()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def close(self):
        if not self._fh.closed:
            self._fh.close()
            self._tracer.add("experiments.io_ns", _wall() - self._t0)

    def write(self, data):
        return self._fh.write(data)

    def __iter__(self):
        return iter(self._fh)

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _experiment_span_name(args, kwargs):
    config = args[0] if args else kwargs["config"]
    return f"experiment/{config.kind}"


def _gibbs_hook(tracer, args, traj):
    tracer.add("samplers.steps", traj.n_steps)


def _metropolis_hook(tracer, args, traj):
    # One proposal per step.
    tracer.add("samplers.steps", traj.n_steps)
    tracer.add("samplers.proposed", traj.n_steps)
    tracer.add("samplers.accepted", sum(traj.accepted))


def _kernel_hook(tracer, args, result):
    kernel = result[0] if isinstance(result, tuple) else result
    tracer.add("kernels.bytes_computed", 8 * kernel.n * kernel.n)


def _iact_hook(tracer, args, result):
    tracer.add("variance.iact_points", len(args[0]))


def _evolution_hook(tracer, args, result):
    steps = len(result.tv) - 1 if hasattr(result, "tv") else result.n_steps
    tracer.add("ladder.evolution_steps", steps)


def _cache_counting(tracer, fn):
    """Count conditional-table lookups and the cache entries they add."""

    @functools.wraps(fn)
    def lookup(self, *args, **kwargs):
        before = len(self._cond_cache)
        result = fn(self, *args, **kwargs)
        tracer.add("targets.finite_lookups", 1)
        tracer.add("targets.cache_added", len(self._cond_cache) - before)
        return result

    return lookup


# ---------------------------------------------------------------------------
# per-layer metrics


def _layer_self_ns(calls, layer):
    return sum(rec[2] for key, rec in calls.items() if key.split(".", 1)[0] == layer)


def _sum(calls, keys, field):
    return sum(calls[k][field] for k in keys if k in calls)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(calls, extra, spans, workers):
    """Per-layer metrics of one op from its counter deltas and spans."""
    s = 1e-9
    steps = extra.get("samplers.steps", 0)
    samplers_ns = _layer_self_ns(calls, "samplers")
    rule = calls.get("ladder.ladder_update_rule", [0, 0, 0])
    evolution_keys = [f"ladder.{name}" for name in EVOLUTIONS]
    conditional_keys = [
        f"targets.{cls}.{name}"
        for cls in ("FiniteProductTarget", "LadderTarget", "ContinuousProductTarget")
        for name in CONDITIONALS
    ]
    lookups = extra.get("targets.finite_lookups", 0)
    replicates = [sp for sp in spans if sp[2].startswith("run/") and sp[1] in _counterexample_ids(spans)]
    if replicates:
        phase = max(sp[4] for sp in replicates) - min(sp[3] for sp in replicates)
        parallel_eff = _ratio(sum(sp[5] for sp in replicates), workers * phase)
    else:
        parallel_eff = 0.0
    bounds_keys = [k for k in calls if k.startswith("bounds.")]
    return {
        "samplers.steps": steps,
        "samplers.self_s": samplers_ns * s,
        "samplers.ns_per_step": _ratio(samplers_ns, steps),
        "samplers.accept_ratio": _ratio(
            extra.get("samplers.accepted", 0), extra.get("samplers.proposed", 0)
        ),
        "ladder.rule_calls": rule[0],
        "ladder.rule_self_s": rule[2] * s,
        "ladder.evolution_steps": extra.get("ladder.evolution_steps", 0),
        "ladder.evolution_self_s": _sum(calls, evolution_keys, 2) * s,
        "weights.constructions": calls.get("weights.SelectionWeights.__post_init__", [0])[0],
        "weights.self_s": _layer_self_ns(calls, "weights") * s,
        "targets.conditional_calls": _sum(calls, conditional_keys, 1),
        "targets.self_s": _layer_self_ns(calls, "targets") * s,
        "targets.cond_cache_hit_ratio": (
            1.0 - extra.get("targets.cache_added", 0) / lookups if lookups else 0.0
        ),
        "kernels.builds": _sum(calls, [f"kernels.{name}" for name in KERNEL_BUILDS], 0),
        "kernels.self_s": _layer_self_ns(calls, "kernels") * s,
        "kernels.bytes_computed": extra.get("kernels.bytes_computed", 0),
        "bounds.calls": _sum(calls, bounds_keys, 1),
        "bounds.self_s": _layer_self_ns(calls, "bounds") * s,
        "variance.iact_calls": calls.get("variance.iact_estimate", [0])[0],
        "variance.iact_points": extra.get("variance.iact_points", 0),
        "variance.spectral_calls": calls.get("variance.spectral_decomposition", [0])[0],
        "variance.self_s": _layer_self_ns(calls, "variance") * s,
        "adaptation.batches": calls.get("adaptation.weight_update", [0])[0],
        "adaptation.observer_calls": calls.get(
            "adaptation.ComponentwiseAdaptation.observer", [0]
        )[0],
        "adaptation.self_s": _layer_self_ns(calls, "adaptation") * s,
        "experiments.self_s": _layer_self_ns(calls, "experiments") * s,
        "experiments.io_s": extra.get("experiments.io_ns", 0) * s,
        "experiments.parallel_eff": parallel_eff,
        "cli.self_s": _layer_self_ns(calls, "cli") * s,
    }


def _counterexample_ids(spans):
    return {sp[0] for sp in spans if sp[2] == "experiment/counterexample"}


def diff(after, before):
    """Counter deltas between two :meth:`Tracer.snapshot` results."""
    calls_a, extra_a = after
    calls_b, extra_b = before
    calls = {}
    for key, rec in calls_a.items():
        old = calls_b.get(key, (0, 0, 0))
        calls[key] = [rec[0] - old[0], rec[1] - old[1], rec[2] - old[2]]
    extra = {k: v - extra_b.get(k, 0) for k, v in extra_a.items()}
    return calls, extra
