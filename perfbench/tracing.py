"""Spans around the calls into each cossinm layer, from outside the library.

For a traced pass the tracer rebinds module attributes (the names the
library's own modules look up at call time) to wrappers that record a
span: name, start, end, parent span and the operand size.  Spans stay in
memory and are written out when the run ends.  A span's self time is its
duration minus the durations of its direct children, so the self times of
one call add up exactly to that call's root span.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from contextlib import contextmanager

import numpy as np

import cossinm
from cossinm import driver, schemes, verify

ROOT = "bench.call"        # one benchmark call; its self time is loop glue
ENTRY = "driver.entry"     # a public product-path entry call

# (module, attribute, span name).  The driver names are the ones
# cos_sin / wave_cos_sin / pade_cos_sin call; the schemes names are the
# ones the factored chains call.
REBIND = (
    (cossinm, "cos_sin", ENTRY),
    (cossinm, "wave_cos_sin", ENTRY),
    (cossinm, "pade_cos_sin", ENTRY),
    (driver, "select_scheme", "driver.select_scheme"),
    (driver, "norm1", "matcore.norm1"),
    (driver, "taylor_cos_sin", "schemes.evaluate"),
    (driver, "wave_kernels", "schemes.evaluate"),
    (driver, "pade8_cos_sin", "schemes.evaluate"),
    (driver, "matmul", "matcore.matmul"),
    (driver, "linear_combination", "matcore.linear_combination"),
    (schemes, "matmul", "matcore.matmul"),
    (schemes, "linear_combination", "matcore.linear_combination"),
    (schemes, "lu_solve_pair", "matcore.lu_solve_pair"),
    (verify, "reference_cos_sin", "verify.reference_cos_sin"),
    (verify, "relative_error_2", "verify.relative_error_2"),
)
NAMES = (ROOT,) + tuple(dict.fromkeys(name for _m, _a, name in REBIND))


def _operand_size(name: str, args: tuple) -> tuple[int, int]:
    """(n, terms) of a span's operands, read without holding on to them."""
    if name == "matcore.matmul":
        return args[0].shape[0], 0
    if name == "matcore.linear_combination":
        terms = args[0]
        if isinstance(terms, Sequence) and terms:
            return terms[0][1].shape[0], len(terms)
    return 0, 0


class Tracer:
    def __init__(self) -> None:
        # one row per span: name index, start, end, parent row (-1 = none),
        # operand n, linear-combination terms
        self.rows: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        index = NAMES.index(name)
        rows, stack = self.rows, self._open
        sized = name in ("matcore.matmul", "matcore.linear_combination")

        def traced(*args, **kwargs):
            n, terms = _operand_size(name, args) if sized else (0, 0)
            row = [index, 0.0, 0.0, stack[-1] if stack else -1, n, terms]
            stack.append(len(rows))
            rows.append(row)
            row[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        saved = [(module, attr, getattr(module, attr))
                 for module, attr, _name in REBIND]
        try:
            for module, attr, name in REBIND:
                setattr(module, attr, self.wrap(name, getattr(module, attr)))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        rows = np.array(self.rows, dtype=np.float64).reshape(-1, 6)
        return {
            "name": rows[:, 0].astype(np.int16),
            "start": rows[:, 1],
            "end": rows[:, 2],
            "parent": rows[:, 3].astype(np.int64),
            "n": rows[:, 4].astype(np.int64),
            "terms": rows[:, 5].astype(np.int64),
        }


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child],
                          minlength=len(duration))
    return duration - covered


def save(path, spans: dict[str, np.ndarray]) -> None:
    np.savez(path, names=np.array(NAMES), **spans)
