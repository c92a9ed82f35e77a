"""Per-layer spans recorded from outside the package.

`Tracer.install()` replaces every public module-level function of the
betahole layers with a wrapper that records a span (name, parent span,
start, end, escaping exception) and puts the original back on
`uninstall()`.  A function is rebound in every betahole module that holds
it, because `from .x import f` copies the binding (`lex_compare_ep` lives
in `sequences` but is called through `survivor`, `critical`, `bifurcation`
and `cli`).  Spans stay in memory; `summarize()` folds one request's spans
into per-function totals and self times.
"""

import functools
import importlib
import time

LAYERS = ("words", "sequences", "numeric", "survivor", "bifurcation",
          "critical")

# extra value kept on a span, by function: (key, f(args, result))
_OBSERVE = {
    "survivor.compile": ("states", lambda args, res: len(res)),
    "bifurcation.atlas": ("records", lambda args, res: len(res)),
    "survivor.dimension": ("exact",
                           lambda args, res: "outer" not in res.method),
    "survivor.alpha_bounds": ("base", lambda args, res: id(args[0])),
}


class Tracer:
    def __init__(self):
        self.modules = [importlib.import_module("betahole")] + [
            importlib.import_module("betahole." + n)
            for n in LAYERS + ("cli",)]
        self.spans = []
        self._stack = []
        self._patches = []  # (module, attribute, original, wrapper)
        self.targets = set()
        for layer in LAYERS:
            mod = importlib.import_module("betahole." + layer)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or isinstance(obj, type) or \
                        not callable(obj) or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qual = "%s.%s" % (layer, name)
                self.targets.add(qual)
                wrapper = self._wrap(qual, obj)
                for m in self.modules:
                    for key, val in list(vars(m).items()):
                        if val is obj:
                            self._patches.append((m, key, obj, wrapper))

    def install(self):
        self.spans.clear()
        self._stack.clear()
        for m, key, _, wrapper in self._patches:
            setattr(m, key, wrapper)

    def uninstall(self):
        for m, key, orig, _ in self._patches:
            setattr(m, key, orig)

    def _wrap(self, qual, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        cache_info = getattr(fn, "cache_info", None)
        key, observe = _OBSERVE.get(qual, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [qual, stack[-1] if stack else -1, 0.0, 0.0, None, None,
                   True]
            stack.append(len(spans))
            spans.append(rec)
            misses = cache_info().misses if cache_info else 0
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                rec[4] = e
                raise
            finally:
                rec[3] = clock()
                stack.pop()
            if cache_info:
                rec[6] = cache_info().misses > misses
            if observe:
                rec[5] = (key, observe(args, result))
            return result
        return traced


def summarize(spans, request_s):
    """Fold one request's spans into a JSON-able dict.

    fn: name -> [calls, total_s, self_s, solves]; `solves` counts calls
    that missed the function's own cache (every call if it has none).
    errors: layer -> exceptions raised, each counted once at the innermost
    span it escaped from.  cli_self_s is request time outside all spans.
    """
    child = [0.0] * len(spans)
    outside = request_s
    for q, parent, t0, t1, *_ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
        else:
            outside -= t1 - t0
    errors, seen = {}, set()
    for q, _, _, _, err, *_ in reversed(spans):  # innermost span first
        if err is not None and id(err) not in seen:
            seen.add(id(err))
            layer = q.split(".")[0]
            errors[layer] = errors.get(layer, 0) + 1
    fn, states, bases = {}, [], set()
    records = exact = atlas_scans = 0
    for i, (q, parent, t0, t1, err, extra, miss) in enumerate(spans):
        row = fn.setdefault(q, [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += t1 - t0
        row[2] += t1 - t0 - child[i]
        row[3] += miss
        if extra:
            k, v = extra
            if k == "states":
                states.append(v)
            elif k == "records":
                records += v
            elif k == "exact":
                exact += v
            elif k == "base":
                bases.add(v)
        if q == "bifurcation.basic_interval" and parent >= 0 and \
                spans[parent][0] == "bifurcation.atlas":
            atlas_scans += 1
    return {"fn": fn, "errors": errors, "cli_self_s": outside,
            "states": states, "bases": len(bases), "records": records,
            "exact": exact, "atlas_scans": atlas_scans,
            "spans": len(spans)}


def layer_metric(name, aggs, items, targets):
    """Per-request value of one per-layer metric over traced requests.

    Returns None when the metric names a function that no longer exists.
    """
    n = max(len(aggs), 1)
    parts = name.split(".")
    if name == "cli.self_s":
        return sum(a["cli_self_s"] for a in aggs) / n
    if len(parts) == 2:
        layer, stat = parts
        if stat == "errors":
            return sum(a["errors"].get(layer, 0) for a in aggs) / n
        if stat == "self_s":
            return sum(row[2] for a in aggs for q, row in a["fn"].items()
                       if q.startswith(layer + ".")) / n
        raise ValueError("unknown per-layer metric %r" % name)
    qual, stat = ".".join(parts[:2]), parts[2]
    if qual not in targets:
        return None
    rows = [a["fn"].get(qual, [0, 0.0, 0.0, 0]) for a in aggs]
    calls = sum(r[0] for r in rows)
    if stat == "calls":
        return calls / n
    if stat == "self_s":
        return sum(r[2] for r in rows) / n
    if stat == "solves":
        return sum(r[3] for r in rows) / n
    if stat == "states_total":
        return sum(sum(a["states"]) for a in aggs) / n
    if stat == "states_max":
        return max((s for a in aggs for s in a["states"]), default=0)
    if stat == "per_report":
        return calls / max(items, 1)
    if stat == "exact_share":
        return sum(a["exact"] for a in aggs) / calls if calls else 0.0
    if stat == "records":
        return sum(a["records"] for a in aggs) / n
    if stat == "yield":
        scans = sum(a["atlas_scans"] for a in aggs)
        return sum(a["records"] for a in aggs) / scans if scans else 0.0
    if stat == "per_base":
        return sum(r[0] / a["bases"] for r, a in zip(rows, aggs)
                   if a["bases"]) / n
    raise ValueError("unknown per-layer metric %r" % name)
