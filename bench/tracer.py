"""Spans around the library's public functions, recorded from outside.

The traced run replaces each listed function wherever a caller looks it up:
in every ``equizeta`` module namespace that binds it (so ``zeta``'s imported
``bilateral_exp_sum_continued_result`` is wrapped as well as ``series``'s
own), and on the model classes for the per-model methods.  Each call
records one span (name, start, end, parent span, task id) in flat arrays
kept in memory; self time is derived from the spans afterwards.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

from metrics import FUNCTIONS, REGIONS, SUITES, TERMS

SERIES_RADIUS = 0.8


def _nonpositive_integer(w: complex, tol: float = 1e-12) -> bool:
    return abs(w.imag) < tol and w.real < 0.5 and abs(w.real - round(w.real)) < tol


def hyp2f1_region(a, b, c, z) -> str:
    """The route ``series.hyp2f1`` takes, by the rule in its docstring."""
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    if z == 0 or _nonpositive_integer(a) or _nonpositive_integer(b) or abs(z) <= SERIES_RADIUS:
        return "series"
    if z != 1.0 and abs(z / (z - 1.0)) <= SERIES_RADIUS:
        return "pfaff"
    if abs(z) >= 1.0 / SERIES_RADIUS:
        return "inv_z"
    if abs(c - a - b) < 1e-12 and abs(1.0 - z) <= SERIES_RADIUS:
        return "logcase"
    return "lerch"


def _terms(label: str, args, out) -> int:
    """Work count of one returned call, in the unit the function reports."""
    if label in ("series.hyp2f1", "series.bilateral_exp_sum_continued_result",
                 "series.bilateral_exp_sum_direct", "series.bilateral_exp_sum_resummed",
                 "zeta.torsion_log_resummed"):
        return out.terms_used
    if label in ("zeta.ruelle_log_closed", "zeta.ruelle_log_direct"):
        return out.terms
    if label == "zeta.flat_trace_measure":
        return len(out.atoms)
    if label == "zeta.pair_with_test_function":
        return len(args[0].atoms)
    if label == "models.family_values":
        return len(out[0]) + len(out[1])
    return len(out)  # length_spectrum, orbit_contributions


class Tracer:
    def __init__(self):
        self.labels = list(FUNCTIONS)
        self.start = array("d")
        self.end = array("d")
        self.name = array("h")
        self.parent = array("l")
        self.task = array("l")
        self.nested = array("b")  # inside another span of the same name
        self.region = array("b")  # hyp2f1 route, -1 elsewhere
        self.errors = np.zeros(len(self.labels), dtype=np.int64)
        self.terms = np.zeros(len(self.labels), dtype=np.int64)
        self.converged = 0
        self.task_id = -1
        self._stack: list[int] = []
        self._active = [0] * len(self.labels)
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, label: str, fn):
        nid = self.labels.index(label)
        counts_terms = label in TERMS
        is_hyp = label == "series.hyp2f1"
        is_cli = label == "cli.main"
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.name)
            tracer.name.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.task.append(tracer.task_id)
            tracer.nested.append(1 if tracer._active[nid] else 0)
            tracer.region.append(REGIONS.index(hyp2f1_region(*args[:4])) if is_hyp else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer._active[nid] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer.errors[nid] += 1
                raise
            finally:
                t1 = perf_counter()
                tracer._active[nid] -= 1
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if counts_terms:
                tracer.terms[nid] += _terms(label, args, out)
            if is_hyp and out.converged:
                tracer.converged += 1
            if is_cli and out != 0:
                tracer.errors[nid] += 1
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every listed function in every namespace that binds it."""
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "equizeta" or n.startswith("equizeta."))]
        for label in self.labels:
            module, name = label.split(".", 1)
            if label.startswith("models.") and name in ("length_spectrum", "orbit_contributions",
                                                        "family_values"):
                self._install_method(name, label)
                continue
            original = getattr(sys.modules[f"equizeta.{module}"], name)
            wrapped = self._wrap(label, original)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, wrapped)

    def _install_method(self, name: str, label: str) -> None:
        base = sys.modules["equizeta.models"].FlowModel
        todo = list(base.__subclasses__())
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if name in vars(cls):
                original = vars(cls)[name]
                self._undo.append((cls, name, original))
                setattr(cls, name, self._wrap(label, original))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "labels": np.array(self.labels),
            "name": np.frombuffer(self.name, dtype=np.int16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "task": np.frombuffer(self.task, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def layer_metrics(self, suite_seconds: dict[str, float], sampler) -> dict[str, float]:
        """Per-layer metrics from the spans and counters of the traced pass.

        Span times are wall seconds less the speed samples that ran inside
        them (bench/timing.py); they are not rescaled.
        """
        n_labels = len(self.labels)
        name = np.frombuffer(self.name, dtype=np.int16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nested = np.frombuffer(self.nested, dtype=np.int8)
        region = np.frombuffer(self.region, dtype=np.int8)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        dur = end - start - sampler.overlap(start, end)
        # Children of one span run one after another inside it (one thread),
        # so its self time is its duration minus theirs.
        child = parent >= 0
        self_s = dur - np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        calls = np.bincount(name, minlength=n_labels)
        self_ms = 1e3 * np.bincount(name, weights=self_s, minlength=n_labels)
        outer = nested == 0
        busy_ms = 1e3 * np.bincount(name[outer], weights=dur[outer], minlength=n_labels)

        out: dict[str, float] = {}
        for i, label in enumerate(self.labels):
            out[f"{label}.calls"] = int(calls[i])
            out[f"{label}.self_ms"] = float(self_ms[i])
            out[f"{label}.busy_ms"] = float(busy_ms[i])
            out[f"{label}.errors"] = int(self.errors[i])
            if label in TERMS:
                out[f"{label}.terms"] = int(self.terms[i])
        hyp = region >= 0
        r_calls = np.bincount(region[hyp], minlength=len(REGIONS))
        r_self = 1e3 * np.bincount(region[hyp], weights=self_s[hyp], minlength=len(REGIONS))
        for i, reg in enumerate(REGIONS):
            out[f"series.hyp2f1.calls.{reg}"] = int(r_calls[i])
            out[f"series.hyp2f1.self_ms.{reg}"] = float(r_self[i])
        returned = out["series.hyp2f1.calls"] - out["series.hyp2f1.errors"]
        out["series.hyp2f1.converged_ratio"] = self.converged / returned if returned else 0.0
        built = out["models.length_spectrum.terms"] + out["models.family_values.terms"]
        used = out["zeta.ruelle_log_direct.terms"] + out["zeta.flat_trace_measure.terms"]
        out["models.spectrum_useful_ratio"] = used / built if built else 0.0
        for suite in SUITES:
            out[f"selftest.{suite.replace('/', '.')}.busy_ms"] = 1e3 * suite_seconds.get(suite, 0.0)
        return out
