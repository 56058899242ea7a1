"""Timing shims around the program's public functions, for the traced run.

A :class:`Shims` context installs wrappers that open a span on the
program's own :class:`repro.observability.Tracer` around each named
public function, so shim spans and the program's stage spans land in one
tree (re-nested by time in :mod:`spans`).  Nothing in ``src/`` changes:
the wrappers replace module attributes and class methods for the
duration of the ``with`` block and are removed on exit.

Sub-steps are named by role, not by implementation: ``mds.smacof`` is
whichever public SMACOF function the active localization engine calls,
``service.claim`` is ``JobStore.claim_next`` on every store.
A role's nested calls (a public function calling another of the same
role) record only the outermost span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

import envinfo

#: role -> [(module, function)] wrapped with a span.
SPAN_ROLES: Dict[str, List[Tuple[str, str]]] = {
    "network.measure": [("repro.network.measurement", "measure_distances")],
    "mds.complete": [
        ("repro.geometry.mds", "complete_distance_matrix"),
        ("repro.geometry.mds", "complete_distance_matrix_batch"),
        ("repro.geometry.mds", "complete_distance_matrix_sparse"),
    ],
    "mds.classical": [
        ("repro.geometry.mds", "classical_mds"),
        ("repro.geometry.mds", "classical_mds_batch"),
        ("repro.geometry.mds", "torgerson_gram_batch"),
        ("repro.geometry.mds", "classical_mds_from_gram_stack"),
    ],
    "mds.smacof": [
        ("repro.geometry.mds", "smacof_refine"),
        ("repro.geometry.mds", "smacof_refine_counted"),
        ("repro.geometry.mds", "smacof_refine_batch"),
    ],
    "ubf.enumerate": [("repro.geometry.ballfit", "balls_through_point_pairs")],
    "iff.flood": [("repro.core.iff", "iff_fragment_sizes")],
    "surface.landmarks": [("repro.surface.landmarks", "elect_landmarks")],
    "surface.voronoi": [("repro.surface.landmarks", "assign_voronoi_cells")],
    "surface.cdg": [("repro.surface.cdg", "build_cdg")],
    "surface.cdm": [("repro.surface.cdm", "build_cdm")],
    "surface.triangulation": [
        ("repro.surface.triangulation", "complete_triangulation")
    ],
    "surface.edgeflip": [("repro.surface.edgeflip", "edge_flip")],
    "surface.holepatch": [("repro.surface.holepatch", "patch_holes")],
    "service.job": [("repro.service.worker", "execute_job")],
}

#: role -> (module, class, method) wrapped with a span.
METHOD_ROLES: Dict[str, Tuple[str, str, str]] = {
    "network.khop": ("repro.network.graph", "NetworkGraph", "k_hop_collections"),
    "network.bfs": ("repro.network.graph", "NetworkGraph", "bfs_hops"),
    "network.shortest_path": ("repro.network.graph", "NetworkGraph", "shortest_path"),
    "service.submit": ("repro.service.jobstore", "JobStore", "submit"),
    "service.claim": ("repro.service.jobstore", "JobStore", "claim_next"),
    "service.reap": ("repro.service.jobstore", "JobStore", "reap_expired"),
    "service.complete": ("repro.service.jobstore", "JobStore", "complete"),
}

#: stage -> the function ``repro.core.pipeline`` calls for it; wrapped
#: to measure the stage's peak RSS (no span: the program has one).
MEMORY_STAGES: Dict[str, str] = {
    "localization": "run_frames_parallel",
    "ubf": "run_ubf_parallel",
    "iff": "run_iff",
}


def _counts(role: str, result: Any) -> Optional[Dict[str, Any]]:
    """Work counts a shim span records next to its timing."""
    if role == "network.khop":
        return {"members": int(sum(c[0].size for c in result))}
    if role == "iff.flood":
        return {"reach": int(sum(result.values()))}
    return None


class Shims:
    """Install every shim for one traced run (``with Shims(tracer):``)."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.peak_rss_mb: Dict[str, float] = {}
        self.hwm_reset = True
        #: ``JobStore.load`` calls made inside ``claim_next`` spans.
        self.claim_loads = 0
        self._undo: List[Tuple[Any, str, Any]] = []
        self._active: Dict[str, bool] = {}

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Shims":
        try:
            for role, targets in SPAN_ROLES.items():
                for module_name, attr in targets:
                    original = getattr(importlib.import_module(module_name), attr)
                    self._replace_everywhere(original, self._spanned(role, original))
            for role, (module_name, cls_name, attr) in METHOD_ROLES.items():
                cls = getattr(importlib.import_module(module_name), cls_name)
                self._set(cls, attr, self._spanned(role, getattr(cls, attr)))
            from repro.service.jobstore import JobStore

            self._set(JobStore, "load", self._claim_counted(JobStore.load))
            pipeline = importlib.import_module("repro.core.pipeline")
            for stage, attr in MEMORY_STAGES.items():
                original = getattr(pipeline, attr)
                self._set(pipeline, attr, self._measured(stage, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self._restore()

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original: Callable, wrapper: Callable) -> None:
        """Rebind ``original`` in every loaded ``repro`` module that holds it
        (the defining module and every ``from ... import`` site)."""
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, role: str, original: Callable) -> Callable:
        tracer = self.tracer
        active = self._active

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if active.get(role):
                return original(*args, **kwargs)
            active[role] = True
            try:
                with tracer.span(role) as span:
                    result = original(*args, **kwargs)
                    counts = _counts(role, result)
                    if counts:
                        span.set_many(counts)
            finally:
                active[role] = False
            return result

        return wrapper

    def _claim_counted(self, original: Callable) -> Callable:
        """Count the claiming thread's reads; a lease heartbeat thread
        also loads records, outside any claim."""
        main = threading.get_ident()

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self._active.get("service.claim") and threading.get_ident() == main:
                self.claim_loads += 1
            return original(*args, **kwargs)

        return wrapper

    def _measured(self, stage: str, original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.stage_memory(stage):
                return original(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def stage_memory(self, stage: str):
        """Record the stage's peak RSS: reset ``VmHWM`` on entry, read on exit.

        Where the reset is refused the reading falls back to the process
        peak, which can only over-state a stage.
        """
        self.hwm_reset = envinfo.reset_hwm() and self.hwm_reset
        try:
            yield
        finally:
            peak = envinfo.read_hwm_mb()
            self.peak_rss_mb[stage] = max(self.peak_rss_mb.get(stage, 0.0), peak)
