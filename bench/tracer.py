"""Span tracing of littlewood's modules, installed from outside the program.

`install` wraps each probed function at every place it is looked up: the
binding in its defining module (internal and recursive calls go through
module globals) and every `from ... import` copy in the other littlewood
modules.  The wrapper sits outside any `lru_cache`, so cache hits are counted
as calls too.  Spans are kept on a stack per thread, because
`convergence_table` runs rows on a thread pool; a span's self time is its
duration minus the time of the spans it directly contains.  Durations are
per-thread CPU time (`time.thread_time`), so a pool thread's spans do not
count the time it spends waiting for the GIL while the other thread runs.

The per-layer metrics are derived from the raw totals in `layer_metrics`,
which the benchmark calls after summing the totals of every job of a pass.
"""
from __future__ import annotations

import importlib
import sys
import threading
from time import thread_time

# module -> functions wrapped in it.  The private intconv entries are the two
# routes `convolve` chooses between.
PROBES = {
    "intconv": ("convolve", "_schoolbook", "_ntt_convolve"),
    "gf2k": ("build_gf2k", "galois"),
    "polynomials": ("is_odd_prime", "fekete", "shifted_fekete", "norm_2q_exact",
                    "convergence_table"),
    "limits": ("fekete_limit_recursive", "galois_limit_recursive",
               "fekete_triangle_row", "galois_triangle_row", "limit_table",
               "shifted_fekete_limit", "phi_piecewise", "phi_min"),
    "piecewise": ("eulerian_spline", "pw_add", "pw_mul", "pw_scale", "pw_affine",
                  "pw_restrict", "pw_minimize"),
    "sturm": ("isolate_roots",),
    "partitions": ("even_size_profiles", "galois_size_profiles", "even_block_profiles"),
    "ratpoly": ("poly_add", "poly_mul", "poly_scale", "poly_eval",
                "poly_compose_affine", "poly_range", "poly_derivative"),
    "special_numbers": ("_tangent", "_carlitz", "eulerian_general",
                        "eulerian_polynomial", "tangent_numbers", "carlitz_numbers"),
    "cli": ("main",),
}
# Generator functions: the wrapper drains them inside the span, so the span
# covers the enumeration and not the caller's loop body.
_GENERATORS = {f"partitions.{fn}" for fn in PROBES["partitions"]}
_PW_OPS = ("pw_add", "pw_mul", "pw_scale", "pw_affine", "pw_restrict")
# The NTT capacity at the time the benchmark was written: a schoolbook call
# producing more coefficients than this is the fallback route.
_NTT_CAPACITY = 1 << 21
# Counters combined by max, not sum, across the jobs of a pass.
MAX_COUNTERS = ("gf2k.table_bytes",)


class Tracer:
    """Per-name span totals: calls, outermost inclusive time and self time,
    all in per-thread CPU seconds."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: dict[str, list] = {}   # name -> [calls, incl_s, self_s]
        self.counters: dict[str, float] = {}
        self.fields: list = []             # FieldGF2k objects built
        self.missing: list[str] = []       # probes whose function does not exist

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, on_result=None):
        drain = name in _GENERATORS

        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [name, 0.0]  # name, time of direct children
            stack.append(frame)
            started = thread_time()
            try:
                out = fn(*args, **kwargs)
                if drain:
                    out = list(out)
            finally:
                elapsed = thread_time() - started
                stack.pop()
                outermost = all(f[0] != name for f in stack)
                if stack:
                    stack[-1][1] += elapsed
                with self._lock:
                    totals = self.spans.setdefault(name, [0, 0.0, 0.0])
                    totals[0] += 1
                    if outermost:
                        totals[1] += elapsed
                    totals[2] += elapsed - frame[1]
            if on_result is not None:
                on_result(args, out)
            return iter(out) if drain else out

        return traced

    def raw(self) -> dict:
        """Totals of this process, in the form `layer_metrics` takes."""
        counters = dict(self.counters)
        counters["gf2k.table_bytes"] = sum(_field_bytes(f) for f in self.fields)
        return {"spans": self.spans, "counters": counters}


def _field_bytes(fld) -> int:
    antilog = fld.antilog.buffer_info()[1] * fld.antilog.itemsize
    # the lazily filled log dict: its hash table plus two int objects per
    # entry (28 bytes each for values below 2^30)
    log = getattr(fld, "_log", None) or {}
    return antilog + len(fld.trace) + sys.getsizeof(log) + 56 * len(log)


def _ntt_size(out_len: int) -> int:
    size = 1
    while size < out_len:
        size <<= 1
    return size


def _hooks(tracer: Tracer) -> dict:
    def convolve(args, out):
        a, b = args
        tracer.count("intconv.coeff_products", len(a) * len(b))

    def schoolbook(args, out):
        a, b = args
        if len(a) + len(b) - 1 > _NTT_CAPACITY:
            tracer.count("intconv.fallback_calls", 1)

    def ntt(args, out):
        a, b = args
        tracer.count("intconv.transform_points", _ntt_size(len(a) + len(b) - 1))

    def built(args, out):
        tracer.count("polynomials.coeffs_built", len(out))

    def field(args, out):
        with tracer._lock:
            if all(f is not out for f in tracer.fields):
                tracer.fields.append(out)

    def rows(args, out):
        tracer.count("polynomials.rows", len(out))

    def pieces(args, out):
        tracer.count("piecewise.pieces_out", len(out.pieces))

    def profiles(args, out):
        tracer.count("partitions.profiles", len(out))

    hooks = {
        "intconv.convolve": convolve,
        "intconv._schoolbook": schoolbook,
        "intconv._ntt_convolve": ntt,
        "polynomials.fekete": built,
        "polynomials.shifted_fekete": built,
        "polynomials.convergence_table": rows,
        "gf2k.build_gf2k": field,
    }
    hooks.update({f"piecewise.{op}": pieces for op in _PW_OPS})
    hooks.update({f"partitions.{fn}": profiles for fn in PROBES["partitions"]})
    return hooks


def install(tracer: Tracer) -> None:
    """Wrap every probed function wherever a littlewood module binds it."""
    modules = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "littlewood" or n.startswith("littlewood."))
    ]
    hooks = _hooks(tracer)
    for mod_name, fn_names in PROBES.items():
        home = importlib.import_module(f"littlewood.{mod_name}")
        for fn_name in fn_names:
            original = getattr(home, fn_name, None)
            name = f"{mod_name}.{fn_name}"
            if original is None:
                tracer.missing.append(name)
                continue
            wrapper = tracer.wrap(name, original, hooks.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def combine(raws: list[dict]) -> dict:
    """Totals of several jobs: sums, except MAX_COUNTERS which take the max."""
    spans: dict[str, list] = {}
    counters: dict[str, float] = {}
    for raw in raws:
        for name, (calls, incl, own) in raw["spans"].items():
            t = spans.setdefault(name, [0, 0.0, 0.0])
            t[0] += calls
            t[1] += incl
            t[2] += own
        for key, value in raw["counters"].items():
            if key in MAX_COUNTERS:
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    return {"spans": spans, "counters": counters}


def layer_metrics(raw: dict) -> dict[str, float]:
    """Per-layer metrics from combined totals (see bench/README.md)."""
    spans, counters = raw["spans"], raw["counters"]

    def calls(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[0] for n in names)

    def incl(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    def module_self(mod):
        return own(*(f"{mod}.{fn}" for fn in PROBES[mod]))

    def qualified(mod, fns):
        return [f"{mod}.{fn}" for fn in fns]

    hits, misses = counters.get("special_numbers.eulerian_hits", 0), counters.get(
        "special_numbers.eulerian_misses", 0)
    return {
        "intconv.calls": calls("intconv.convolve"),
        "intconv.schoolbook_calls": calls("intconv._schoolbook"),
        "intconv.ntt_calls": calls("intconv._ntt_convolve"),
        "intconv.fallback_calls": counters.get("intconv.fallback_calls", 0),
        "intconv.coeff_products": counters.get("intconv.coeff_products", 0),
        "intconv.transform_points": counters.get("intconv.transform_points", 0),
        "intconv.self_s": module_self("intconv"),
        "gf2k.build_s": incl("gf2k.build_gf2k"),
        "gf2k.galois_s": own("gf2k.galois"),
        "gf2k.table_mb": counters.get("gf2k.table_bytes", 0) / 2**20,
        "polynomials.build_s": own("polynomials.fekete", "polynomials.shifted_fekete"),
        "polynomials.coeffs_built": counters.get("polynomials.coeffs_built", 0),
        "polynomials.primality_s": incl("polynomials.is_odd_prime"),
        "polynomials.norm_self_s": own("polynomials.norm_2q_exact"),
        "polynomials.rows": counters.get("polynomials.rows", 0),
        "limits.recursive_s": incl(*qualified("limits", (
            "fekete_limit_recursive", "galois_limit_recursive",
            "fekete_triangle_row", "galois_triangle_row"))),
        "limits.pointwise_calls": calls("limits.shifted_fekete_limit"),
        "limits.pointwise_s": incl("limits.shifted_fekete_limit"),
        "limits.phi_piecewise_s": incl("limits.phi_piecewise"),
        # the certified minimisation phi_min runs once the pieces are built
        "limits.phi_min_s": incl("piecewise.pw_minimize"),
        "piecewise.op_calls": calls(*qualified("piecewise", _PW_OPS)),
        "piecewise.pieces_out": counters.get("piecewise.pieces_out", 0),
        "piecewise.self_s": module_self("piecewise"),
        "sturm.isolate_calls": calls("sturm.isolate_roots"),
        "sturm.self_s": module_self("sturm"),
        "partitions.profiles": counters.get("partitions.profiles", 0),
        "partitions.self_s": module_self("partitions"),
        "ratpoly.poly_mul_calls": calls("ratpoly.poly_mul"),
        "ratpoly.self_s": module_self("ratpoly"),
        "special_numbers.calls": calls(*qualified(
            "special_numbers", PROBES["special_numbers"])),
        "special_numbers.eulerian_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "special_numbers.self_s": module_self("special_numbers"),
        "cli.import_s": counters.get("cli.import_s", 0.0),
        "cli.self_s": own("cli.main"),
    }
