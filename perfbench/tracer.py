"""Per-layer tracing of borelline, installed from outside the program.

`Tracer.install()` replaces the public functions of every borelline module,
and the constructors the metrics need, with wrappers that time and count
each call. The wrappers are put into every module namespace that bound the
original (the modules import each other's functions by name), so calls
between modules go through them too.

Each timed call is a frame on one stack: its duration is added to the
function's inclusive time, and its duration minus its timed children's is
added to its module's self time. Calls of the layer entry points also keep
a span (name, start, end, parent span, request id) in memory, written out
when the run ends. Hot field operations are counted only: their time stays
in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("cli", "suites", "digits", "polyfp", "towers", "linalg", "sl2lab",
           "characters", "weyl", "classify")

# Functions whose calls are kept as spans; all other wrapped functions are
# aggregated only (count, inclusive time, self time).
SPAN_FUNCTIONS = {
    "cli.main", "suites.run_suites", "towers.FieldTower.__init__",
    "sl2lab.InducedModule.__init__", "sl2lab.CostandardModule.__init__",
    "sl2lab.is_irreducible", "sl2lab.socle_head_report", "sl2lab.spin",
    "sl2lab.hecke_operators", "sl2lab.HeckeOperators.idempotent_split",
    "sl2lab.pi_image", "sl2lab.verify_irreducibility_chain", "sl2lab.l_submodule",
    "classify.report", "classify.steinberg_decompose",
    "classify.torus_character_from_json", "characters.truncate",
    "characters.extract_pattern", "characters.classify_exact",
    "characters.lucas_criterion", "weyl.datum_from_json",
}

# Instance methods, counted only: the field element operators run millions
# of times per lab request.
COUNTED_METHODS = {
    "towers.FieldElement.__mul__": "towers.field_mul",
    "towers.FieldElement.__add__": "towers.field_addsub",
    "towers.FieldElement.__sub__": "towers.field_addsub",
    "towers.FieldElement.__neg__": "towers.field_addsub",
    "towers.FieldElement.inverse": "towers.field_inv",
    "towers.FieldElement.is_zero": "towers.field_is_zero",
    "towers.FieldTower._mul_coords": "towers.mul_lookup",
    "linalg.MonomialMap.apply": "linalg.monomial_apply",
    "linalg.MonomialMap.compose": "linalg.monomial_compose",
}

# Instance methods timed like public functions.
TIMED_METHODS = (
    "towers.FieldTower.__init__", "sl2lab.InducedModule.__init__",
    "sl2lab.CostandardModule.__init__", "sl2lab.HeckeOperators.idempotent_split",
)


class Tracer:
    def __init__(self):
        self.calls = {}
        self.seconds = {}
        self.self_seconds = dict.fromkeys(MODULES, 0.0)
        self.counts = {}
        self.spans = []
        self.towers = []
        self._stack = []
        self._next_span = 0
        self.request_id = None
        self._request_start = 0.0
        self._refused_at = None
        self.refusal_seconds = 0.0
        self._spin_results = set()
        self.distinct_spins = 0
        self.rref_insert_useful = 0
        self._capability_error = Exception

    # -- requests ------------------------------------------------------------

    def begin_request(self, request_id):
        self.request_id = request_id
        self._refused_at = None
        self._spin_results.clear()
        self._request_start = time.perf_counter()

    def end_request(self, exit_code):
        end = time.perf_counter()
        if exit_code == 3:
            at = self._refused_at if self._refused_at is not None else end
            self.refusal_seconds += at - self._request_start
        self.distinct_spins += len(self._spin_results)
        self._spin_results.clear()

    # -- wrappers ------------------------------------------------------------

    def _timed(self, key, module, fn, keep_span, on_result=None):
        self.calls[key] = 0
        self.seconds[key] = 0.0
        calls, seconds, self_seconds = self.calls, self.seconds, self.self_seconds
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if keep_span:
                tracer._next_span += 1
                frame = [0.0, tracer._next_span]
            else:
                frame = [0.0, parent]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except tracer._capability_error:
                if tracer._refused_at is None:
                    tracer._refused_at = clock()
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[key] += 1
                seconds[key] += dur
                self_seconds[module] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if keep_span:
                    spans.append((frame[1], parent, tracer.request_id, key, start, end))
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        self.counts.setdefault(name, 0)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_generator(self, name, fn):
        self.counts.setdefault(name, 0)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    # -- result hooks --------------------------------------------------------

    def _on_spin(self, args, sub):
        # an induced module is determined by (p, a, m, coefficient level);
        # keying by those rather than id() keeps the count repeatable
        m = args[0]
        rows = tuple(tuple(x.coords for x in row) for row in sub.rows)
        self._spin_results.add((m.p, m.a, m.m, m.coeff_level, rows))

    def _on_rref_insert(self, args, result):
        if result[1] is not None:
            self.rref_insert_useful += 1

    def _on_tower(self, args, result):
        self.towers.append(args[0])

    # -- installation --------------------------------------------------------

    def install(self):
        import borelline
        from borelline import cli, towers

        mods = {name: sys.modules[f"borelline.{name}"] for name in MODULES}
        self._capability_error = towers.CapabilityError
        hooks = {
            "sl2lab.spin": self._on_spin,
            "linalg.rref_insert": self._on_rref_insert,
            "towers.FieldTower.__init__": self._on_tower,
        }
        replaced = {}
        for mname, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
                    key = f"{mname}.{name}"
                    replaced[id(obj)] = self._timed(
                        key, mname, obj, key in SPAN_FUNCTIONS, hooks.get(key))
        gen = mods["sl2lab"]._projective_vectors
        replaced[id(gen)] = self._counted_generator("sl2lab.lines_enumerated", gen)

        for key in TIMED_METHODS:
            mname, cname, meth = key.split(".")
            cls = getattr(mods[mname], cname)
            setattr(cls, meth, self._timed(key, mname, getattr(cls, meth),
                                           key in SPAN_FUNCTIONS, hooks.get(key)))
        for key, name in COUNTED_METHODS.items():
            mname, cname, meth = key.split(".")
            cls = getattr(mods[mname], cname)
            setattr(cls, meth, self._counted(name, getattr(cls, meth)))

        # rebind every module-level reference, including cross-module imports
        for mod in list(mods.values()) + [borelline]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])
        suites = mods["suites"].SUITES
        for name, fn in list(suites.items()):
            suites[name] = replaced.get(id(fn), fn)

        self._install_cli(cli)

    def _install_cli(self, cli):
        """Time argument parsing and JSON serialisation inside `cli.main`."""
        build_parser = cli.build_parser
        parse_timer = self._timed("cli.parse_args", "cli",
                                  lambda parse, argv: parse(argv), False)

        def traced_build_parser():
            parser = build_parser()
            parse = parser.parse_args
            parser.parse_args = lambda argv=None: parse_timer(parse, argv)
            return parser

        cli.build_parser = traced_build_parser
        real_json = cli.json

        class JsonProxy:
            loads = staticmethod(real_json.loads)
            JSONDecodeError = real_json.JSONDecodeError
            dumps = staticmethod(self._timed("cli.serialize", "cli", real_json.dumps, False))

        cli.json = JsonProxy

    # -- results -------------------------------------------------------------

    def snapshot(self):
        """Plain data for the worker to aggregate and report."""
        entries = sum(len(cache) for t in self.towers for cache in t._mul_cache.values())
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "self_seconds": dict(self.self_seconds),
            "counts": dict(self.counts),
            "mul_cache_entries": entries,
            "refusal_seconds": self.refusal_seconds,
            "distinct_spins": self.distinct_spins,
            "rref_insert_useful": self.rref_insert_useful,
        }

    def span_records(self):
        return [{"span": span_id, "parent": parent, "request": request,
                 "name": name, "start": start, "end": end}
                for span_id, parent, request, name, start, end in self.spans]


def merge(total, snap):
    """Add one snapshot into a running total (both plain dicts)."""
    for field in ("calls", "seconds", "self_seconds", "counts"):
        dest = total.setdefault(field, {})
        for k, v in snap[field].items():
            dest[k] = dest.get(k, 0) + v
    for field in ("mul_cache_entries", "refusal_seconds", "distinct_spins",
                  "rref_insert_useful"):
        total[field] = total.get(field, 0) + snap[field]
    return total


SUITE_FUNCTIONS = {
    "digit-lemma": "suite_digit_lemma", "lucas": "suite_lucas",
    "power-sums": "suite_power_sums", "sl2-relations": "suite_sl2_relations",
    "sl2-socle-head": "suite_sl2_socle_head", "sl2-chain": "suite_sl2_chain",
    "hecke-split": "suite_hecke_split", "pattern-roundtrip": "suite_pattern_roundtrip",
}


def layer_metrics(total):
    """The per-layer metrics named in BENCHMARK.json, from merged snapshots."""
    calls = total.get("calls", {})
    secs = total.get("seconds", {})
    counts = total.get("counts", {})

    def s(*keys):
        return sum(secs.get(k, 0.0) for k in keys)

    def n(key):
        return calls.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "cli.parse_s": (s("cli.build_parser", "cli.parse_args"), "s"),
        "cli.serialize_s": (s("cli.serialize"), "s"),
    }
    for suite, fn in SUITE_FUNCTIONS.items():
        out[f"suites.{suite.replace('-', '_')}_s"] = (s(f"suites.{fn}"), "s")
    mul_lookups = counts.get("towers.mul_lookup", 0)
    entries = total.get("mul_cache_entries", 0)
    spins = n("sl2lab.spin")
    out.update({
        "digits.lucas_binom_calls": (n("digits.lucas_binom"), "count"),
        "digits.lucas_binom_s": (s("digits.lucas_binom"), "s"),
        "digits.check_digit_lemma_s": (s("digits.check_digit_lemma"), "s"),
        "digits.require_prime_s": (s("digits.require_prime"), "s"),
        "polyfp.mul_calls": (n("polyfp.mul"), "count"),
        "towers.build_s": (s("towers.FieldTower.__init__"), "s"),
        "towers.field_mul_calls": (counts.get("towers.field_mul", 0), "count"),
        "towers.field_addsub_calls": (counts.get("towers.field_addsub", 0), "count"),
        "towers.field_inv_calls": (counts.get("towers.field_inv", 0), "count"),
        "towers.field_is_zero_calls": (counts.get("towers.field_is_zero", 0), "count"),
        "towers.mul_cache_entries": (entries, "count"),
        "towers.mul_cache_hit_ratio": (ratio(mul_lookups - entries, mul_lookups), "ratio"),
        "linalg.rref_insert_calls": (n("linalg.rref_insert"), "count"),
        "linalg.rref_insert_s": (s("linalg.rref_insert"), "s"),
        "linalg.rref_insert_useful_ratio": (
            ratio(total.get("rref_insert_useful", 0), n("linalg.rref_insert")), "ratio"),
        "linalg.rref_calls": (n("linalg.rref"), "count"),
        "linalg.rref_s": (s("linalg.rref"), "s"),
        "linalg.kernel_calls": (n("linalg.kernel"), "count"),
        "linalg.monomial_apply_calls": (counts.get("linalg.monomial_apply", 0), "count"),
        "linalg.monomial_compose_calls": (counts.get("linalg.monomial_compose", 0), "count"),
        "linalg.mat_mul_calls": (n("linalg.mat_mul"), "count"),
        "linalg.mat_mul_s": (s("linalg.mat_mul"), "s"),
        "sl2lab.induced_build_s": (s("sl2lab.InducedModule.__init__"), "s"),
        "sl2lab.costandard_build_s": (s("sl2lab.CostandardModule.__init__"), "s"),
        "sl2lab.hecke_s": (s("sl2lab.hecke_operators",
                             "sl2lab.HeckeOperators.idempotent_split"), "s"),
        "sl2lab.pi_image_s": (s("sl2lab.pi_image"), "s"),
        "sl2lab.spin_calls": (spins, "count"),
        "sl2lab.spin_s": (s("sl2lab.spin"), "s"),
        "sl2lab.lines_enumerated": (counts.get("sl2lab.lines_enumerated", 0), "count"),
        "sl2lab.distinct_spin_ratio": (ratio(total.get("distinct_spins", 0), spins), "ratio"),
        "sl2lab.is_irreducible_s": (s("sl2lab.is_irreducible"), "s"),
        "sl2lab.socle_head_s": (s("sl2lab.socle_head_report"), "s"),
        "sl2lab.refusal_s": (total.get("refusal_seconds", 0.0), "s"),
        "characters.truncate_s": (s("characters.truncate"), "s"),
        "characters.extract_pattern_s": (s("characters.extract_pattern"), "s"),
        "characters.classify_exact_s": (s("characters.classify_exact"), "s"),
        "characters.lucas_criterion_s": (s("characters.lucas_criterion"), "s"),
        "weyl.datum_from_json_s": (s("weyl.datum_from_json"), "s"),
        "classify.report_s": (s("classify.report"), "s"),
        "classify.steinberg_decompose_s": (s("classify.steinberg_decompose"), "s"),
    })
    for mod in MODULES:
        out[f"{mod}.self_s"] = (total.get("self_seconds", {}).get(mod, 0.0), "s")
    return out
