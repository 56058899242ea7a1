"""Output checks; every check and every operation counts toward ``attempted``.

A failed check or an operation that raised counts once in ``failed`` and
is reported on standard error; the run then prints ``"correct": false``.
"""

from __future__ import annotations

import contextlib
import json
import sys
import traceback
from dataclasses import replace
from typing import Any, Dict, Iterable, List, Sequence

import numpy as np

from repro.core.parallel import run_frames_parallel
from repro.core.ubf import run_ubf
from repro.geometry.mds import SMACOF_BATCH_COORD_TOL
from repro.network.localization import build_frames

#: Nodes in the pinned oracle sample (spread evenly over the node IDs).
ORACLE_SAMPLE = 64


class Checks:
    """Counts attempted and failed operations and checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            message = f"check failed: {name}" + (f" ({detail})" if detail else "")
            self.failures.append(message)
            print(message, file=sys.stderr)
        return bool(ok)

    @contextlib.contextmanager
    def operation(self, name: str):
        """Count one operation; an exception inside marks it failed.

        The exception is reported and swallowed so the run can finish and
        print its counts; the caller sees the failure via ``failed``.
        """
        self.attempted += 1
        try:
            yield
        except Exception:  # noqa: BLE001 -- any crash is a counted failure
            self.failed += 1
            self.failures.append(f"operation failed: {name}")
            print(f"operation failed: {name}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    @property
    def failed_pct(self) -> float:
        return 100.0 * self.failed / max(1, self.attempted)


def detection_outputs(result) -> tuple:
    """The outputs two detections must agree on."""
    return (
        sorted(result.candidates),
        sorted(result.boundary),
        [sorted(g) for g in result.groups],
    )


def check_detection(checks: Checks, result, label: str) -> None:
    """The boundary lies inside the candidates; groups partition it."""
    checks.check(
        f"{label}: boundary within candidates",
        result.boundary <= result.candidates,
        f"{len(result.boundary - result.candidates)} boundary nodes are not candidates",
    )
    members = [n for g in result.groups for n in g]
    checks.check(
        f"{label}: groups partition the boundary",
        len(members) == len(set(members)) and set(members) == result.boundary,
        f"{len(members)} grouped, {len(set(members))} distinct, "
        f"{len(result.boundary)} boundary",
    )


def check_meshes(checks: Checks, graph, groups: Sequence[Sequence[int]], meshes) -> None:
    """Each mesh is built on one group, its edge paths are real paths on
    that group, and a closed 2-manifold mesh has a whole, non-negative genus.
    """
    group_sets = [set(g) for g in groups]
    for index, mesh in enumerate(meshes):
        label = f"mesh {index}"
        group = set(mesh.group)
        checks.check(
            f"{label}: built on a detected group",
            group in group_sets and set(mesh.vertices) <= group,
        )
        vertices = set(mesh.vertices)
        bad_paths = 0
        for (u, v), path in mesh.paths.items():
            ok = (
                u in vertices
                and v in vertices
                and {path[0], path[-1]} == {u, v}
                and set(path) <= group
                and all(graph.has_edge(a, b) for a, b in zip(path, path[1:]))
            )
            bad_paths += not ok
        checks.check(
            f"{label}: edge paths are group paths",
            bad_paths == 0 and all(u in vertices and v in vertices for u, v in mesh.edges),
            f"{bad_paths} bad paths",
        )
        if mesh.is_two_manifold():
            genus = mesh.genus()
            checks.check(
                f"{label}: closed mesh has whole non-negative genus",
                genus is not None and genus >= 0,
                f"euler characteristic {mesh.euler_characteristic()}",
            )


def two_faced_edges(meshes) -> tuple:
    """(edges on exactly two faces, all edges) over every mesh."""
    counts = [c for m in meshes for c in m.edge_face_counts().values()]
    return sum(1 for c in counts if c == 2), len(counts)


def oracle_sample(n_nodes: int) -> List[int]:
    """The pinned oracle sample: ``ORACLE_SAMPLE`` evenly spaced node IDs."""
    return sorted(set(np.linspace(0, n_nodes - 1, ORACLE_SAMPLE).astype(int).tolist()))


def check_oracles(checks: Checks, network, config, measured, result) -> None:
    """UBF verdicts and counters against the ``naive`` kernel, and MDS
    frames against the ``pernode`` engine, on the pinned sample."""
    mode = config.resolved_localization()
    hops = config.ubf.collection_hops
    sample = oracle_sample(network.n_nodes)
    frames = run_frames_parallel(
        network,
        measured,
        mode=mode,
        hops=hops,
        engine=config.localization_config.engine,
        nodes=sample,
    )
    naive = run_ubf(
        network,
        replace(config.ubf, kernel="naive"),
        measured=measured,
        localization=mode,
        nodes=sample,
        frames={f.node: f for f in frames},
    )
    produced = [result.ubf_outcomes[n] for n in sample]
    mismatched = [a.node for a, b in zip(produced, naive) if a != b]
    checks.check(
        "ubf matches the naive kernel on the sample",
        len(produced) == len(naive) and not mismatched,
        f"nodes {mismatched[:8]}",
    )
    if mode != "mds":
        return
    oracle = build_frames(
        network.graph, measured, hops=hops, engine="pernode", nodes=sample
    )
    worst = 0.0
    structural = []
    for a, b in zip(frames, oracle):
        if (
            a.node != b.node
            or list(a.members) != list(b.members)
            or a.n_one_hop != b.n_one_hop
            or a.smacof_iterations != b.smacof_iterations
        ):
            structural.append(a.node)
            continue
        worst = max(worst, float(np.abs(a.coordinates - b.coordinates).max()))
    checks.check(
        "frames match the pernode engine on the sample",
        not structural and worst <= SMACOF_BATCH_COORD_TOL,
        f"structural mismatches {structural[:8]}, worst coordinate deviation {worst:.3e}",
    )


def same_frames(a: Iterable, b: Iterable) -> bool:
    """Byte-identical frame lists (members, counts and coordinates)."""
    a, b = list(a), list(b)
    return len(a) == len(b) and all(
        x.node == y.node
        and list(x.members) == list(y.members)
        and x.n_one_hop == y.n_one_hop
        and x.smacof_iterations == y.smacof_iterations
        and x.coordinates.tobytes() == y.coordinates.tobytes()
        for x, y in zip(a, b)
    )


def job_results_match(record_result: Dict[str, Any], direct: Dict[str, Any]) -> bool:
    """A stored job result equals a direct run's (after the JSON round trip)."""
    return record_result == json.loads(json.dumps(direct))
