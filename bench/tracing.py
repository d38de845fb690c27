"""Per-layer spans recorded from the benchmark's own files.

The tracer replaces every public function of the six request-path modules at
each module-level name through which the program calls it (for example
``chandet.cli.alpha_sru_optimize`` and ``chandet.detect.partial_trace``), plus
``Channel.__init__``. A span is named after the defining module and function,
so ``chandet.pptdetect.compose`` records as ``channels.compose``. Spans are
kept as running sums in memory; a layer's self time is its span time minus the
time of the spans it caused. ``uninstall`` puts every original back.
"""

import importlib
import inspect
import math
import time
from collections import defaultdict

MODULES = ("cli", "channels", "detect", "pptdetect", "measure", "qmath")
# One-line helpers called in inner loops; their time stays with the caller.
UNTRACED = {"dag", "vec", "unvec"}

OPTIMIZER = "detect.alpha_sru_optimize"


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "raised")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.raised = 0


class Tracer:
    def __init__(self):
        self.stats = defaultdict(SpanStats)
        self.stack = []  # child seconds accumulated by each open span
        self.open = defaultdict(int)  # open spans by name
        self.counts = defaultdict(int)
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        stats = self.stats[name]
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            self.stack.append(0.0)
            self.open[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.raised += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self.open[name] -= 1
                child = self.stack.pop()
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - child
                if self.stack:
                    self.stack[-1] += elapsed
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_detect_alpha_sru_optimize(self, args, kwargs, result):
        self.counts["optimizer_starts"] += int(kwargs.get("starts", args[2] if len(args) > 2 else 50))

    def _on_qmath_partial_trace(self, args, kwargs, result):
        if self.open[OPTIMIZER]:
            self.counts["optimizer_partial_traces"] += 1

    def _on_measure_pauli_decompose(self, args, kwargs, result):
        self.counts["pauli_kept"] += len(result)
        self.counts["pauli_strings"] += 4 ** int(round(math.log2(len(args[0]))))

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = {m: importlib.import_module(f"chandet.{m}") for m in MODULES}
        wrappers = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and attr not in UNTRACED
                    and obj.__module__.startswith("chandet.")
                ):
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    if name not in wrappers:
                        wrappers[name] = self._wrap(name, obj)
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[name])
        channel = modules["channels"].Channel
        self._patched.append((channel, "__init__", channel.__init__))
        channel.__init__ = self._wrap("channels.Channel", channel.__init__)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- metrics -----------------------------------------------------------

    def metrics(self, requests, overhead_frac):
        """Per-request per-layer metrics, keyed by the names in BENCHMARK.json."""
        s = self.stats
        root = s["cli.main"].total or 1.0
        out = {}

        def ms(name, self_only=False):
            st = s[name]
            return 1e3 * (st.self_time if self_only else st.total) / requests

        def per_request(value):
            return value / requests

        for name in (
            "detect.alpha_sru_optimize", "detect.operator_schmidt", "detect.build_sru_witness",
            "detect.evaluate_witness", "pptdetect.ppt_conjugate", "pptdetect.ppt_witness",
            "pptdetect.spa_transpose", "channels.Channel", "channels.kraus_from_choi",
            "channels.transpose_superoperator", "channels.compose", "channels.superoperator_to_choi",
            "channels.classify", "measure.pauli_decompose", "measure.group_settings",
            "measure.simulate_counts", "cli.parse_channel_spec", "cli.render_report",
        ):
            out[f"{name}.ms"] = ms(name)
        for name in ("pptdetect.detect_npt", "measure.estimate_witness", "cli.main", "cli.run_pipeline"):
            out[f"{name}.self_ms"] = ms(name, self_only=True)
        for name in (
            "detect.alpha_sru_optimize", "pptdetect.ppt_conjugate", "pptdetect.ppt_witness",
            "pptdetect.spa_transpose", "channels.Channel", "channels.kraus_from_choi",
            "channels.transpose_superoperator", "measure.pauli_decompose", "measure.simulate_counts",
            "qmath.partial_trace", "qmath.partial_transpose", "qmath.haar_unitary",
        ):
            out[f"{name}.calls"] = per_request(s[name].calls)
        out["pptdetect.ppt_witness.raised"] = per_request(s["pptdetect.ppt_witness"].raised)
        out["cli.parse_channel_spec.rejected"] = per_request(s["cli.parse_channel_spec"].raised)
        c = self.counts
        starts = c["optimizer_starts"]
        out["detect.alpha_sru_optimize.sweeps_per_start"] = (
            c["optimizer_partial_traces"] / (2 * starts) if starts else 0.0
        )
        strings = c["pauli_strings"]
        out["measure.pauli_decompose.kept_frac"] = c["pauli_kept"] / strings if strings else 0.0
        for module in MODULES:
            own = sum(st.self_time for name, st in s.items() if name.split(".", 1)[0] == module)
            out[f"{module}.self_share"] = own / root
        out["trace_overhead_frac"] = overhead_frac
        return out
