"""Spans around every call into the public functions of the geo360 modules.

Tracer.install replaces each public module-level function of the layers with
a timing wrapper and uninstall puts the originals back. The package calls
across modules through module attributes (`motion_model.prepare_block_...`)
and within a module through its globals, which are the same dictionary, so
every such call passes through a wrapper. Private helpers (`_PlaneSampler`,
`_search_geodesic`, ...) are not wrapped: their time is self time of the
public function that called them.

`metrics` is not part of the benchmarked chain and is not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from collections import defaultdict

LAYERS = ("cli", "video_io", "geometry", "motion_model", "mocomp", "camera_est", "cam_code")


def _frame_bytes(frames) -> int:
    return sum(
        f.y.nbytes + (0 if f.cb is None else f.cb.nbytes + f.cr.nbytes) for f in frames
    )


# Counts computed from a call's input sizes or public return value, as
# counter(args, kwargs, result). geo360's callers pass these first arguments
# positionally.
COUNTERS = {
    "video_io.read_yuv": lambda a, k, r: {"bytes": _frame_bytes(r)},
    "video_io.read_flo": lambda a, k, r: {"bytes": 12 + 8 * r.du.size},
    "video_io.read_camera_csv": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    "motion_model.map_block_geometry_batch": lambda a, k, r: {"pixels": r[0].size},
    "camera_est.eight_point": lambda a, k, r: {"rows": len(a[0])},
    "cam_code.encode_stream": lambda a, k, r: {
        "records": len(r.records), "payload_bits": r.payload_bits,
    },
}


class Tracer:
    """In-memory spans: (name, start, end, parent index, run id, counts)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self):
        for layer in LAYERS:
            module = importlib.import_module(f"geo360.{layer}")
            for name, fn in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(f"{layer}.{name}", fn))

    def uninstall(self):
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id, None)
            if counter is not None:
                spans[index] = spans[index][:5] + (counter(args, kwargs, result),)
            return result

        return traced


def spans_by_run(spans: list[tuple]) -> dict:
    """RunSpans per run id."""
    child_time = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    rows = defaultdict(list)
    for i, (name, start, end, parent, run_id, counts) in enumerate(spans):
        rows[run_id].append((name, end - start, end - start - child_time[i], counts))
    return {run_id: RunSpans(r) for run_id, r in rows.items()}


class RunSpans:
    """The spans of one run id: (name, inclusive s, self s, counts) rows."""

    def __init__(self, rows: list[tuple]):
        self.rows = rows

    def inclusive(self, *names) -> float:
        return sum(dur for name, dur, _, _ in self.rows if name in names)

    def calls(self, name) -> int:
        return sum(1 for row in self.rows if row[0] == name)

    def self_of(self, name) -> float:
        return sum(own for n, _, own, _ in self.rows if n == name)

    def self_time(self, layer) -> float:
        return sum(own for name, _, own, _ in self.rows if name.split(".")[0] == layer)

    def layer_calls(self, layer) -> int:
        return sum(1 for row in self.rows if row[0].split(".")[0] == layer)

    def count(self, name, key) -> int:
        return sum(c[key] for n, _, _, c in self.rows if n == name and c)

    def total_self(self) -> float:
        return sum(own for _, _, own, _ in self.rows)


def chain_layer_metrics(run: RunSpans, workload, chain_s: float) -> dict:
    """Per-layer numbers of one traced chain iteration."""
    compare_self = run.self_of("mocomp.compare_sequence")
    map_calls = run.calls("motion_model.map_block_geometry_batch")
    records = run.count("cam_code.encode_stream", "records")
    payload_bits = run.count("cam_code.encode_stream", "payload_bits")
    return {
        "cli.self_s": run.self_time("cli"),
        "video_io.read_yuv_s": run.inclusive("video_io.read_yuv"),
        "video_io.read_flo_s": run.inclusive("video_io.read_flo"),
        "video_io.camera_csv_s": run.inclusive(
            "video_io.read_camera_csv", "video_io.write_camera_csv"
        ),
        "video_io.bytes_read": sum(
            run.count(n, "bytes")
            for n in ("video_io.read_yuv", "video_io.read_flo", "video_io.read_camera_csv")
        ),
        "geometry.calls": run.layer_calls("geometry"),
        "geometry.self_s": run.self_time("geometry"),
        "motion_model.prepare_calls": run.calls("motion_model.prepare_block_geometry"),
        "motion_model.prepare_s": run.inclusive("motion_model.prepare_block_geometry"),
        "motion_model.map_batch_calls": map_calls,
        "motion_model.map_batch_s": run.inclusive("motion_model.map_block_geometry_batch"),
        "motion_model.pixels_mapped": run.count(
            "motion_model.map_block_geometry_batch", "pixels"
        ),
        "motion_model.mapping_reuse": workload.geodesic_searches / map_calls if map_calls else 0.0,
        "mocomp.compare_self_s": compare_self,
        "mocomp.searches": workload.searches,
        "mocomp.taps_computed": workload.taps,
        "mocomp.bytes_gathered_computed": 8 * workload.taps,
        "mocomp.taps_per_s": workload.taps / compare_self if compare_self else 0.0,
        "camera_est.flow_to_pairs_s": run.inclusive("camera_est.flow_to_pairs"),
        "camera_est.eight_point_s": run.inclusive("camera_est.eight_point"),
        "camera_est.eight_point_rows": run.count("camera_est.eight_point", "rows"),
        "camera_est.epipole_sign_s": run.inclusive(
            "camera_est.epipole_from_essential", "camera_est.disambiguate_sign"
        ),
        "camera_est.finetune_s": run.inclusive("camera_est.flow_finetune"),
        "cam_code.encode_s": run.inclusive("cam_code.encode_stream"),
        "cam_code.decode_s": run.inclusive("cam_code.decode_stream"),
        "cam_code.record_encode_s": run.inclusive("cam_code.encode_record"),
        "cam_code.predict_s": run.inclusive("cam_code.predict_direction"),
        "cam_code.records": records,
        "cam_code.payload_bits": payload_bits,
        "cam_code.bits_per_record": payload_bits / records if records else 0.0,
        "trace.chain_s": chain_s,
        "trace.unattributed_s": chain_s - run.total_self(),
    }


def median_metrics(per_iteration: list[dict]) -> dict:
    return {
        key: statistics.median(m[key] for m in per_iteration) for key in per_iteration[0]
    }
