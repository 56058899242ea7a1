"""The benchmark's workloads, driven only through the program's public API.

``paper_measured`` and ``true_scale`` call ``generate_network``,
``BoundaryDetector(cfg).detect`` and ``SurfaceBuilder(SurfaceConfig())
.build`` exactly as a user does; ``campaign_queue`` drives ``JobStore``
and ``Worker``.  Untraced runs give the end-to-end metrics.  A traced run
repeats the same calls with ``tracer=Tracer()`` plus the shims of
:mod:`shims` and gives the per-layer metrics.  Why each workload exists,
and what each metric means, is in README.md.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import spans
from checks import (
    Checks,
    check_detection,
    check_meshes,
    check_oracles,
    detection_outputs,
    job_results_match,
    same_frames,
    two_faced_edges,
)
from envinfo import peak_rss_mb
from shims import Shims
from speed import Sample, SpeedProbe
from repro.core.config import DetectorConfig
from repro.core.parallel import run_frames_parallel, run_ubf_parallel
from repro.core.pipeline import BoundaryDetector
from repro.evaluation.metrics import evaluate_detection
from repro.geometry.native import load_kernels
from repro.network.generator import DeploymentConfig, generate_network
from repro.network.measurement import NoError, UniformAbsoluteError, measure_distances
from repro.observability.export import load_trace
from repro.observability.tracer import Tracer
from repro.service.jobstore import JobSpec, JobStore
from repro.service.worker import Worker, execute_job
from repro.shapes.library import scenario_by_name
from repro.surface.pipeline import SurfaceBuilder, SurfaceConfig

#: End-to-end metrics (untraced runs): name -> unit.
E2E_METRICS: Dict[str, str] = {
    "detect_s": "s",
    "mesh_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "correct_pct": "%",
    "mistaken_pct": "%",
    "jobs_per_s": "1/s",
}

#: Per-layer metrics (traced run): name -> unit.  A layer a workload does
#: not exercise reads 0.
PER_LAYER_METRICS: Dict[str, str] = {
    "network.generate.s": "s",
    "network.khop.s": "s",
    "network.khop.members": "count",
    "network.bfs.s": "s",
    "network.bfs.calls": "count",
    "network.shortest_path.s": "s",
    "network.shortest_path.calls": "count",
    "network.measure.s": "s",
    "localization.s": "s",
    "localization.frames": "count",
    "localization.members": "count",
    "localization.smacof_iterations": "count",
    "mds.complete.s": "s",
    "mds.classical.s": "s",
    "mds.smacof.s": "s",
    "ubf.s": "s",
    "ubf.enumerate.s": "s",
    "ubf.probe.s": "s",
    "ubf.candidates": "count",
    "ubf.balls_tested": "count",
    "ubf.points_checked": "count",
    "ubf.checks_per_ball": "ratio",
    "iff.s": "s",
    "iff.kept": "count",
    "iff.demoted": "count",
    "iff.flood_reach": "count",
    "grouping.s": "s",
    "grouping.groups": "count",
    "surface.s": "s",
    "surface.attempts": "count",
    "surface.kept_ratio": "ratio",
    "surface.landmarks.s": "s",
    "surface.voronoi.s": "s",
    "surface.cdg.s": "s",
    "surface.cdm.s": "s",
    "surface.triangulation.s": "s",
    "surface.edgeflip.s": "s",
    "surface.holepatch.s": "s",
    "surface.landmarks": "count",
    "surface.triangles": "count",
    "surface.two_faced_pct": "%",
    "parallel.frames_w1.s": "s",
    "parallel.frames_w2.s": "s",
    "parallel.ubf_w1.s": "s",
    "parallel.ubf_w2.s": "s",
    "parallel.speedup_w2": "ratio",
    "service.submit.ms": "ms",
    "service.claim.ms": "ms",
    "service.claim_p90.ms": "ms",
    "service.reap.ms": "ms",
    "service.complete.ms": "ms",
    "service.job.s": "s",
    "service.records_read_per_claim": "count",
    "service.bookkeeping_share": "ratio",
    "localization.peak_rss_mb": "MiB",
    "ubf.peak_rss_mb": "MiB",
    "iff.peak_rss_mb": "MiB",
    "surface.peak_rss_mb": "MiB",
    "trace.overhead_pct": "%",
    "trace.detect_coverage_pct": "%",
    "trace.surface_coverage_pct": "%",
}

#: Set-ups per pipeline run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Set-ups per ``campaign_queue`` run (each writes the whole history).
CAMPAIGN_SETUP_REPEATS = 5

#: Passes of a pipeline run, and builds of the detected groups per pass.
PASSES = 3
BUILDS = 2

#: A traced span must leave at most this share of itself uncovered.
MIN_COVERAGE_PCT = 90.0


@dataclass
class Outcome:
    """What one run measured: metric values, sample counts and checks."""

    metrics: Dict[str, float]
    samples: Dict[str, int]
    checks: Checks
    trace: Optional[List[Dict[str, Any]]] = None
    times: Optional[Dict[str, List[float]]] = None


# ---------------------------------------------------------------------------
# Pipeline workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineWorkload:
    """Deployment and detector settings of one pipeline workload.

    The inputs are pinned: network ``i`` is deployed with seed
    ``deployment_seeds[i]`` and ``detect`` draws its ranging error from
    ``default_rng`` of the same seed, whatever ``--seed`` says (README.md
    gives the measurements behind this).  A run deploys every network,
    then makes :data:`PASSES` passes: on each network one ``detect`` and
    :data:`BUILDS` builds of its groups.  The counts are fixed, so every
    run takes the same samples and runs the same checks however fast the
    machine is.
    """

    name: str
    scenario: str
    n_surface: int
    n_interior: int
    target_degree: float
    error: float
    deployment_seeds: Tuple[int, ...]
    parallel_probe: bool

    def detector_config(self) -> DetectorConfig:
        if self.error > 0:
            return DetectorConfig(error_model=UniformAbsoluteError(self.error))
        return DetectorConfig(error_model=NoError())

    def deploy(self, index: int):
        return generate_network(
            scenario_by_name(self.scenario),
            DeploymentConfig(
                n_surface=self.n_surface,
                n_interior=self.n_interior,
                target_degree=self.target_degree,
                seed=self.deployment_seeds[index],
            ),
            scenario=self.scenario,
        )


PIPELINES = {
    w.name: w
    for w in (
        PipelineWorkload(
            "paper_measured", "one_hole", 850, 1255, 18.8, 0.3,
            deployment_seeds=(11,), parallel_probe=True,
        ),
        PipelineWorkload(
            "true_scale", "two_holes", 2000, 3000, 24.0, 0.0,
            deployment_seeds=(11,), parallel_probe=False,
        ),
    )
}


@dataclass
class PipelineRun:
    """One network's ``detect`` and builds: outputs and timed samples."""

    result: Any
    meshes: list
    detect: Sample
    mesh: List[Sample]

    @property
    def wall_s(self) -> float:
        return self.detect.wall_s + sum(m.wall_s for m in self.mesh)


def _setup_pipeline(w: PipelineWorkload, seed: int, tracer=None) -> list:
    """Deploy the run's networks and warm every lazy path.

    The warm-up runs the whole pipeline once on a 150-node network of the
    same shape, so native-kernel loading, LAPACK lookups and imports are
    paid here and never inside a timed ``detect`` or ``build``.
    """
    load_kernels()
    networks = []
    for index in range(len(w.deployment_seeds)):
        if tracer is None:
            networks.append(w.deploy(index))
        else:
            with tracer.span("network.generate"):
                networks.append(w.deploy(index))
    tiny = generate_network(
        scenario_by_name(w.scenario),
        DeploymentConfig(n_surface=60, n_interior=90, target_degree=12.0, seed=seed),
    )
    config = w.detector_config()
    result = BoundaryDetector(config).detect(tiny, rng=np.random.default_rng(seed))
    SurfaceBuilder(SurfaceConfig()).build(tiny.graph, result.groups)
    evaluate_detection(tiny, result)
    return networks


def _mesh_outputs(meshes) -> list:
    return [(m.vertices, sorted(m.edges)) for m in meshes]


def _pipeline_once(
    w: PipelineWorkload,
    network,
    rng_seed: int,
    checks: Checks,
    probe: SpeedProbe,
    *,
    tracer=None,
    shims=None,
    builds: int = 1,
) -> Optional[PipelineRun]:
    """One ``detect`` and ``builds`` builds of its groups; None when a call
    raised (counted).  Repeated builds must give the same meshes."""
    result = None
    detector = BoundaryDetector(w.detector_config())
    with checks.operation("detect"), probe.measure() as detect:
        result = detector.detect(
            network, rng=np.random.default_rng(rng_seed), tracer=tracer
        )
    if result is None:
        return None
    built = []
    mesh = []
    for _ in range(builds):
        meshes = None
        builder = SurfaceBuilder(SurfaceConfig(), tracer=tracer)
        with checks.operation("mesh"), probe.measure() as sample:
            if tracer is None:
                meshes = builder.build(network.graph, result.groups)
            else:
                with tracer.span("surface"), shims.stage_memory("surface"):
                    meshes = builder.build(network.graph, result.groups)
        if meshes is None:
            return None
        mesh.append(sample)
        built.append(_mesh_outputs(meshes))
    checks.check(
        "repeated builds give the same meshes",
        all(outputs == built[0] for outputs in built[1:]),
    )
    return PipelineRun(result, meshes, detect, mesh)


def _measured_for(w: PipelineWorkload, network, rng_seed: int):
    """The ranging ``detect`` draws internally for this network and seed."""
    config = w.detector_config()
    if config.resolved_localization() == "true":
        return None
    return measure_distances(
        network.graph, config.error_model, np.random.default_rng(rng_seed)
    )


def _check_pass_outputs(
    checks: Checks, networks, runs: List[Optional[PipelineRun]]
) -> Tuple[int, int, int, int, int, int]:
    """Output checks on one pass; returns summed detection/mesh counts."""
    truth = found = correct = mistaken = two_faced = edges = 0
    for index, (network, run) in enumerate(zip(networks, runs)):
        if run is None:
            continue
        check_detection(checks, run.result, f"network {index}")
        check_meshes(checks, network.graph, run.result.groups, run.meshes)
        stats = evaluate_detection(network, run.result)
        truth += stats.n_truth
        found += stats.n_found
        correct += stats.n_correct
        mistaken += stats.n_mistaken
        two, all_edges = two_faced_edges(run.meshes)
        two_faced += two
        edges += all_edges
    return truth, found, correct, mistaken, two_faced, edges


def run_pipeline(w: PipelineWorkload, seed: int, trace: bool) -> Outcome:
    if trace:
        return _trace_pipeline(w, seed)
    checks = Checks()
    probe = SpeedProbe()
    setups = []
    for _ in range(SETUP_REPEATS):
        with probe.measure() as sample:
            networks = _setup_pipeline(w, seed)
        setups.append(sample)

    passes = [
        [
            _pipeline_once(
                w, net, w.deployment_seeds[i], checks, probe, builds=BUILDS
            )
            for i, net in enumerate(networks)
        ]
        for _ in range(PASSES)
    ]
    first_pass = passes[0]
    for runs in passes[1:]:
        for index, (a, b) in enumerate(zip(first_pass, runs)):
            if a is not None and b is not None:
                checks.check(
                    f"network {index}: repeated detect and build give the same outputs",
                    detection_outputs(a.result) == detection_outputs(b.result)
                    and _mesh_outputs(a.meshes) == _mesh_outputs(b.meshes),
                )
    done = [run for runs in passes for run in runs if run is not None]
    timed = {
        "detect_s": [run.detect for run in done],
        "mesh_s": [sample for run in done for sample in run.mesh],
        "setup_s": setups,
    }
    detect_times = [s.scaled_s for s in timed["detect_s"]]
    mesh_times = [s.scaled_s for s in timed["mesh_s"]]

    truth, found, correct, mistaken, _, _ = _check_pass_outputs(
        checks, networks, first_pass
    )
    if first_pass[0] is not None:
        check_oracles(
            checks,
            networks[0],
            w.detector_config(),
            _measured_for(w, networks[0], w.deployment_seeds[0]),
            first_pass[0].result,
        )
    metrics: Dict[str, float] = {}
    if detect_times and mesh_times:
        metrics.update(
            detect_s=median(detect_times),
            mesh_s=median(mesh_times),
            jobs_per_s=1.0 / (median(detect_times) + median(mesh_times)),
            correct_pct=100.0 * correct / max(1, truth),
            mistaken_pct=100.0 * mistaken / max(1, found),
        )
    metrics["setup_s"] = median(s.scaled_s for s in setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return Outcome(
        metrics=metrics,
        samples={
            "detect_s": len(detect_times),
            "mesh_s": len(mesh_times),
            "setup_s": len(setups),
            "networks": len(networks),
            "passes": PASSES,
            "builds": BUILDS,
        },
        checks=checks,
        times=_times(timed, probe),
    )


def _times(timed: Dict[str, List[Sample]], probe: SpeedProbe) -> Dict[str, Any]:
    """The run record's samples: scaled and wall times, and probe times."""
    times: Dict[str, Any] = {"probe_s": probe.times}
    for name, samples in timed.items():
        times[name] = [s.scaled_s for s in samples]
        times[f"{name}_wall"] = [s.wall_s for s in samples]
    return times


def _trace_pipeline(w: PipelineWorkload, seed: int) -> Outcome:
    """Untraced reference pass, traced pass with shims, parallel probe."""
    checks = Checks()
    tracer = Tracer()
    probe = SpeedProbe()
    with tracer.span("bench", workload=w.name, seed=seed):
        with tracer.span("setup"):
            networks = _setup_pipeline(w, seed, tracer)
        seeds = w.deployment_seeds
        plain = [
            _pipeline_once(w, net, s, checks, probe) for net, s in zip(networks, seeds)
        ]
        with Shims(tracer) as shims:
            with tracer.span("traced"):
                traced = [
                    _pipeline_once(
                        w, net, s, checks, probe, tracer=tracer, shims=shims
                    )
                    for net, s in zip(networks, seeds)
                ]
    for index, (a, b) in enumerate(zip(plain, traced)):
        checks.check(
            f"network {index}: traced and untraced detections agree",
            a is not None
            and b is not None
            and detection_outputs(a.result) == detection_outputs(b.result),
        )
    _, _, _, _, two_faced, edges = _check_pass_outputs(checks, networks, traced)

    forest = spans.nest([spans.from_span(root) for root in tracer.roots])
    traced_root = next(n for n in spans.walk(forest) if n.name == "traced")
    layer = [traced_root]
    k = float(len(networks))
    metrics = {name: 0.0 for name in PER_LAYER_METRICS}

    def per_network(name: str) -> float:
        return spans.total(layer, name) / k

    def attr(name: str, key: str) -> float:
        return spans.attr_sum(layer, name, key) / k

    metrics["network.generate.s"] = spans.total(forest, "network.generate") / k
    for role in ("khop", "bfs", "shortest_path", "measure"):
        metrics[f"network.{role}.s"] = per_network(f"network.{role}")
    metrics["network.khop.members"] = attr("network.khop", "members")
    metrics["network.bfs.calls"] = spans.count(layer, "network.bfs") / k
    metrics["network.shortest_path.calls"] = (
        spans.count(layer, "network.shortest_path") / k
    )
    metrics["localization.s"] = (
        spans.self_total(
            layer, {"localization", "localization.frames", "localization.shard"}
        )
        / k
    )
    metrics["localization.frames"] = attr("localization", "n_frames")
    metrics["localization.members"] = attr("localization", "total_members")
    metrics["localization.smacof_iterations"] = attr(
        "localization", "total_smacof_iterations"
    )
    for role in ("complete", "classical", "smacof"):
        metrics[f"mds.{role}.s"] = per_network(f"mds.{role}")
    metrics["ubf.s"] = per_network("ubf")
    metrics["ubf.enumerate.s"] = per_network("ubf.enumerate")
    metrics["ubf.probe.s"] = metrics["ubf.s"] - metrics["ubf.enumerate.s"]
    metrics["ubf.candidates"] = attr("ubf", "n_candidates")
    metrics["ubf.balls_tested"] = attr("ubf", "balls_tested")
    metrics["ubf.points_checked"] = attr("ubf", "points_checked")
    metrics["ubf.checks_per_ball"] = metrics["ubf.points_checked"] / max(
        1.0, metrics["ubf.balls_tested"]
    )
    metrics["iff.s"] = per_network("iff")
    metrics["iff.kept"] = attr("iff", "n_kept")
    metrics["iff.demoted"] = attr("iff", "n_demoted")
    metrics["iff.flood_reach"] = attr("iff.flood", "reach")
    metrics["grouping.s"] = per_network("grouping")
    metrics["grouping.groups"] = attr("grouping", "n_groups")
    metrics["surface.s"] = per_network("surface")
    attempts = spans.count(layer, "surface.attempt")
    n_meshes = sum(len(run.meshes) for run in traced if run is not None)
    metrics["surface.attempts"] = attempts / k
    metrics["surface.kept_ratio"] = n_meshes / max(1, attempts)
    for step in (
        "landmarks", "voronoi", "cdg", "cdm", "triangulation", "edgeflip", "holepatch"
    ):
        metrics[f"surface.{step}.s"] = per_network(f"surface.{step}")
    all_meshes = [m for run in traced if run is not None for m in run.meshes]
    metrics["surface.landmarks"] = sum(len(m.vertices) for m in all_meshes) / k
    metrics["surface.triangles"] = sum(len(m.triangles()) for m in all_meshes) / k
    metrics["surface.two_faced_pct"] = 100.0 * two_faced / max(1, edges)
    for stage, peak in shims.peak_rss_mb.items():
        metrics[f"{stage}.peak_rss_mb"] = peak
    checks.check("VmHWM reset available for stage memory", shims.hwm_reset)

    done = [(a, b) for a, b in zip(plain, traced) if a is not None and b is not None]
    if done:
        untraced_s = sum(a.wall_s for a, _ in done)
        traced_s = sum(b.wall_s for _, b in done)
        metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    for root_name, key in (
        ("detect", "trace.detect_coverage_pct"),
        ("surface", "trace.surface_coverage_pct"),
    ):
        roots = [n for n in spans.walk(layer) if n.name == root_name]
        if roots:
            metrics[key] = min(spans.coverage_pct(n) for n in roots)
            checks.check(
                f"traced {root_name} spans are covered by child spans",
                metrics[key] >= MIN_COVERAGE_PCT,
                f"{metrics[key]:.1f}% < {MIN_COVERAGE_PCT}%",
            )
    if w.parallel_probe:
        metrics.update(_parallel_probe(w, networks[0], seeds[0], checks))
    return Outcome(
        metrics=metrics,
        samples={
            "networks": len(networks),
            "spans": sum(1 for _ in spans.walk(forest)),
        },
        checks=checks,
        trace=[root.to_dict() for root in tracer.roots],
    )


def _parallel_probe(
    w: PipelineWorkload, network, rng_seed: int, checks: Checks
) -> Dict[str, float]:
    """Frames and UBF at ``workers`` 1 and 2; outputs must be byte-identical."""
    config = w.detector_config()
    mode = config.resolved_localization()
    measured = _measured_for(w, network, rng_seed)
    timings: Dict[str, float] = {}
    frames = {}
    for workers in (1, 2):
        start = time.perf_counter()
        frames[workers] = run_frames_parallel(
            network,
            measured,
            mode=mode,
            hops=config.ubf.collection_hops,
            engine=config.localization_config.engine,
            workers=workers,
        )
        timings[f"parallel.frames_w{workers}.s"] = time.perf_counter() - start
    by_node = {f.node: f for f in frames[1]}
    outcomes = {}
    for workers in (1, 2):
        start = time.perf_counter()
        outcomes[workers] = run_ubf_parallel(
            network,
            config.ubf,
            measured=measured,
            localization=mode,
            workers=workers,
            frames=by_node,
        )
        timings[f"parallel.ubf_w{workers}.s"] = time.perf_counter() - start
    checks.check(
        "parallel probe: frames identical at workers 1 and 2",
        same_frames(frames[1], frames[2]),
    )
    checks.check(
        "parallel probe: ubf outcomes identical at workers 1 and 2",
        outcomes[1] == outcomes[2],
    )
    timings["parallel.speedup_w2"] = (
        timings["parallel.frames_w1.s"] + timings["parallel.ubf_w1.s"]
    ) / (timings["parallel.frames_w2.s"] + timings["parallel.ubf_w2.s"])
    return timings


# ---------------------------------------------------------------------------
# campaign_queue
# ---------------------------------------------------------------------------

#: Cache-hit records in the store before the timed phase.
HISTORY_JOBS = 300

#: Fresh jobs submitted and drained in the timed phase.
FRESH_JOBS = 100

#: Fresh jobs per timed chunk of submits or of the drain; the speed probe
#: runs between chunks.
CHUNK_JOBS = 10

#: Fresh jobs re-run directly through ``execute_job`` to check results.
DIRECT_SAMPLE = (0, FRESH_JOBS // 3, 2 * FRESH_JOBS // 3, FRESH_JOBS - 1)


def fresh_spec(index: int) -> JobSpec:
    """Fresh job ``index``: pinned, so every run drains the same jobs and
    the per-job medians do not move with the networks a seed draws."""
    return JobSpec(
        n_surface=40,
        n_interior=60,
        target_degree=12.0,
        seed=index,
        surface=True,
    )


def history_spec(seed: int) -> JobSpec:
    """The job whose duplicates form the cache-hit history; ``--seed``
    picks it, outside the fresh jobs' seeds."""
    return replace(fresh_spec(0), seed=1_000_000 + seed)


def campaign_setup(seed: int, base: Path, history: int = HISTORY_JOBS) -> JobStore:
    """A fresh store whose history is ``history`` cache-hit records.

    One job runs for real to fill the result cache; its duplicates are
    then born ``done`` at submit time.
    """
    load_kernels()
    store = JobStore(tempfile.mkdtemp(prefix="store-", dir=str(base)))
    spec = history_spec(seed)
    store.submit(spec)
    Worker(store, "setup", trace_clock="wall").run(exit_when_idle=True)
    for _ in range(history):
        store.submit(spec)
    return store


def history_is_cache_hits(store: JobStore, history: int = HISTORY_JOBS) -> bool:
    records = store.jobs()
    return (
        len(records) == history + 1
        and all(r.state == "done" for r in records)
        and sum(1 for r in records if r.cache_hit) == history
    )


def _campaign_round(
    store: JobStore,
    checks: Checks,
    probe: SpeedProbe,
    tracer: Optional[Tracer] = None,
) -> Dict[str, Any]:
    """Submit the fresh jobs, then drain them with one in-process worker.

    Both phases run in chunks of :data:`CHUNK_JOBS` jobs, each a timed
    sample; the worker claims in submission order, so job ``i`` runs in
    drain chunk ``i // CHUNK_JOBS``.
    """
    chunks = range(0, FRESH_JOBS, CHUNK_JOBS)
    submitted = []
    submits = []
    for first in chunks:
        with probe.measure() as sample:
            for index in range(first, min(first + CHUNK_JOBS, FRESH_JOBS)):
                submitted.append(store.submit(fresh_spec(index)))
        submits.append(sample)
    worker = Worker(store, "bench", trace_clock="wall")
    drains = []
    with checks.operation("drain"):
        for first in chunks:
            last = first + CHUNK_JOBS >= FRESH_JOBS
            span = (
                nullcontext() if tracer is None else tracer.span("service.drain")
            )
            with probe.measure() as sample, span:
                if last:
                    worker.run(exit_when_idle=True)
                else:
                    worker.run(max_jobs=CHUNK_JOBS)
            drains.append(sample)
    records = [store.load(r.job_id) for r in submitted]
    for record in records:
        checks.check(
            f"job {record.job_id} ends done",
            record.state == "done" and not record.cache_hit,
            f"state {record.state}",
        )
    return {
        "records": records,
        "scales": [
            drains[min(i // CHUNK_JOBS, len(drains) - 1)].scale if drains else 1.0
            for i in range(len(records))
        ],
        "submit": submits,
        "drain": drains,
    }


def _job_span_durations(
    store: JobStore, records, scales
) -> Tuple[List[float], List[float]]:
    """Scaled durations of each job's ``detect`` and ``surface`` spans."""
    detect, surface = [], []
    for record, scale in zip(records, scales):
        trace = load_trace(store.trace_path(record.job_id))
        forest = [spans.from_span(s) for s in trace]
        for node in spans.walk(forest):
            if node.name == "detect":
                detect.append(scale * node.duration)
            elif node.name == "surface":
                surface.append(scale * node.duration)
    return detect, surface


def run_campaign(seed: int, trace: bool, scratch: Path) -> Outcome:
    """One fixed batch of jobs (not a ``--seconds`` loop: claim cost grows
    with every record, so the job count must not depend on speed)."""
    base = Path(tempfile.mkdtemp(prefix="campaign-", dir=str(scratch)))
    try:
        if trace:
            return _trace_campaign(seed, base)
        return _run_campaign(seed, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _run_campaign(seed: int, base: Path) -> Outcome:
    checks = Checks()
    probe = SpeedProbe()
    setups = []
    stores = []
    for _ in range(CAMPAIGN_SETUP_REPEATS):
        with probe.measure() as sample:
            stores.append(campaign_setup(seed, base))
        setups.append(sample)
    store = stores[-1]
    for old in stores[:-1]:
        shutil.rmtree(old.root, ignore_errors=True)
    checks.check("setup history is cache hits", history_is_cache_hits(store))

    done = _campaign_round(store, checks, probe)
    finished = [
        (r, scale) for r, scale in zip(done["records"], done["scales"])
        if r.state == "done"
    ]
    records = [r for r, _ in finished]
    for index in DIRECT_SAMPLE:
        record = done["records"][index]
        with checks.operation(f"direct execute_job {index}"):
            checks.check(
                f"job {record.job_id} matches a direct execute_job",
                record.result is not None
                and job_results_match(record.result, execute_job(record.spec)),
            )
    detect, surface = _job_span_durations(
        store, records, [scale for _, scale in finished]
    )
    stats = [r.result["stats"] for r in records]
    truth = sum(s["n_truth"] for s in stats)
    found = sum(s["n_found"] for s in stats)
    busy_s = sum(s.scaled_s for s in done["submit"] + done["drain"])
    metrics = {
        "setup_s": median(s.scaled_s for s in setups),
        "jobs_per_s": len(records) / busy_s,
        "correct_pct": 100.0 * sum(s["n_correct"] for s in stats) / max(1, truth),
        "mistaken_pct": 100.0 * sum(s["n_mistaken"] for s in stats) / max(1, found),
        "peak_rss_mb": peak_rss_mb(),
    }
    if detect:
        metrics["detect_s"] = median(detect)
    if surface:
        metrics["mesh_s"] = median(surface)
    return Outcome(
        metrics=metrics,
        samples={
            "setup_s": len(setups),
            "jobs": len(records),
            "detect_s": len(detect),
            "mesh_s": len(surface),
            "history": HISTORY_JOBS,
        },
        checks=checks,
        times={
            **_times(
                {"setup_s": setups, "submit": done["submit"], "drain": done["drain"]},
                probe,
            ),
            "detect_s": detect,
            "mesh_s": surface,
        },
    )


def _trace_campaign(seed: int, base: Path) -> Outcome:
    """An untraced round for reference, then a traced round on a twin store."""
    checks = Checks()
    tracer = Tracer()
    probe = SpeedProbe()
    metrics = {name: 0.0 for name in PER_LAYER_METRICS}
    plain = _campaign_round(campaign_setup(seed, base), checks, probe)
    with tracer.span("bench", workload="campaign_queue", seed=seed):
        store = campaign_setup(seed, base)
        with Shims(tracer) as shims:
            traced = _campaign_round(store, checks, probe, tracer=tracer)
    for a, b in zip(plain["records"], traced["records"]):
        checks.check(
            f"job {b.job_id}: traced and untraced results agree",
            a.result == b.result,
        )
    forest = spans.nest([spans.from_span(root) for root in tracer.roots])

    def durations(name: str) -> List[float]:
        return [n.duration for n in spans.walk(forest) if n.name == name]

    submit = durations("service.submit")
    claims = durations("service.claim")
    jobs = durations("service.job")
    metrics["service.submit.ms"] = 1e3 * median(submit)
    metrics["service.claim.ms"] = 1e3 * median(claims)
    metrics["service.claim_p90.ms"] = 1e3 * spans.percentile(claims, 90.0)
    metrics["service.reap.ms"] = 1e3 * median(durations("service.reap"))
    metrics["service.complete.ms"] = 1e3 * median(durations("service.complete"))
    metrics["service.job.s"] = median(jobs)
    metrics["service.records_read_per_claim"] = shims.claim_loads / max(1, len(claims))
    drain = spans.total(forest, "service.drain")
    metrics["service.bookkeeping_share"] = 1.0 - sum(jobs) / drain
    untraced_s = sum(s.wall_s for s in plain["submit"] + plain["drain"])
    traced_s = sum(s.wall_s for s in traced["submit"] + traced["drain"])
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    return Outcome(
        metrics=metrics,
        samples={"claims": len(claims), "submits": len(submit), "jobs": len(jobs)},
        checks=checks,
        trace=[root.to_dict() for root in tracer.roots],
    )


WORKLOADS = tuple(PIPELINES) + ("campaign_queue",)


def run_workload(name: str, seed: int, trace: bool, scratch: Path) -> Outcome:
    if name in PIPELINES:
        return run_pipeline(PIPELINES[name], seed, trace)
    if name == "campaign_queue":
        return run_campaign(seed, trace, scratch)
    raise KeyError(name)
