"""The three benchmark workloads and their correctness gates.

Each workload sets up once (:meth:`Workload.setup`), then runs identical
rounds until the measuring window closes (:meth:`Workload.run_round`).
A round returns a plain record: its wall time, its primary metric, the
cells or jobs it ran and the failures its gate found.  The workload seed
reaches the program only through ``build_workload(seed=...)`` (directly
or inside a ``SimJob``).  Every simulation uses ``CoreConfig.scaled()``
and starts with empty modelled caches.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from typing import Dict, List

from perfbench import ROOT, SRC, WORK
from perfbench.hostspeed import HostSpeed
from perfbench.metrics import median, ratio, tail_percentile

#: The paper's four techniques, pinned here rather than read from
#: ``repro`` so the workloads stay fixed if a technique is added.
TECHNIQUES = ("nowp", "instrec", "conv", "wpemul")

#: Stats counters summed into the wrong-path and cache layer metrics.
_STAT_FIELDS = ("instructions", "mispredict_windows", "wp_fetched",
                "wp_executed", "wp_mem_ops", "wp_addr_recovered",
                "conv_attempts", "conv_found")


def digest(result) -> str:
    """SHA-256 prefix of ``result.to_dict()`` minus its host wall time."""
    data = result.to_dict()
    data.pop("wall_seconds", None)
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def outputs_match(got: list, want: list, tolerance: float) -> bool:
    """Program output against the Python reference: ints exactly,
    floats within ``tolerance`` relative (``1e-9`` absolute floor)."""
    if want is None or len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if isinstance(w, float):
            if abs(g - w) > max(tolerance * abs(w), 1e-9):
                return False
        elif g != w:
            return False
    return True


def conv_error_pct(ipcs: Dict[str, Dict[str, float]]) -> float:
    """Mean over kernels of |IPC_conv / IPC_wpemul - 1| x 100 (the
    paper's error metric, wpemul as reference)."""
    errors = [abs(t["conv"] / t["wpemul"] - 1.0) * 100.0
              for t in ipcs.values()
              if t.get("conv") and t.get("wpemul")]
    return sum(errors) / len(errors) if errors else 0.0


def summarize(kips: float, jobs_per_s: float, latencies: List[float],
              ipcs: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Every end-to-end metric but ``setup_s`` and ``peak_rss_mb``, plus
    the percentile ``req_p90_ms`` used and the sample count (for the
    report)."""
    pct, p90 = tail_percentile(latencies)
    return {"kips": kips, "jobs_per_s": jobs_per_s,
            "req_p50_ms": median(latencies), "req_p90_ms": p90,
            "conv_err_pct": conv_error_pct(ipcs),
            "_tail_pct": pct, "_samples": len(latencies)}


def reported_kips(rounds: List[dict]) -> float:
    """kips from the ``wall_seconds`` the simulations report."""
    return ratio(sum(r["instructions"] for r in rounds),
                 sum(r["sim_seconds"] for r in rounds)) / 1000.0


def result_counts(result) -> Dict[str, float]:
    """Simulated counters of one result, for the per-layer sums."""
    counters = result.stats.counters()
    out = {field: counters[field] for field in _STAT_FIELDS}
    caches = result.cache_stats
    for level in ("l1d", "llc"):
        out[f"{level}_accesses"] = caches[level]["accesses"]
        out[f"{level}_misses"] = caches[level]["misses"]
    out["l1d_wp_accesses"] = caches["l1d"]["wp_accesses"]
    return out


def live_counts(sim) -> Dict[str, int]:
    """Counters of the live frontend and core after an in-process run."""
    return {
        "superblock_instructions": sim.frontend.superblock_instructions,
        "instructions_produced": sim.frontend.instructions_produced,
        "wp_instructions_emulated": sim.frontend.wp_instructions_emulated,
        "timingblock_instructions": sim.core.timingblock_instructions,
        "streamblock_instructions": sim.core.streamblock_instructions,
    }


def reset_jit_pools() -> None:
    """Drop the process-wide compiled timing and wrong-path blocks, so
    every round pays first-touch JIT compile as a fresh ``repro
    compare`` process does.  Functional superblocks live per program,
    and every round builds fresh programs."""
    from repro.core import timingblock
    from repro.wrongpath import streamblock
    timingblock._POOL.clear()
    streamblock._POOL.clear()


class Workload:
    """Base: set up once, then run rounds."""

    name = ""
    primary = "kips"
    #: What one round attempts (for reporting only).
    unit = "cells"
    #: Rounds every untraced run completes, however long they take.
    min_rounds = 1
    #: Untimed rounds run (and gated) before the measuring window opens.
    warmup = 0
    #: Whether other processes (pool workers, a daemon) do the work, so
    #: their peak RSS counts too.
    children = False

    def __init__(self, seed: int):
        self.seed = seed
        self.failures: List[str] = []
        #: Host-speed probe times, each taken next to the work.
        self.speed = HostSpeed()

    def single_input(self) -> None:
        """Run the same input in every round, so a traced run compares
        traced and untraced rounds on equal work."""

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, index: int, tracer=None) -> dict:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def end_to_end(self, rounds: List[dict], wall: float) -> Dict[str, float]:
        """Every end-to-end metric but ``setup_s`` and ``peak_rss_mb``."""
        raise NotImplementedError

    def layer_counts(self, rounds: List[dict]) -> Dict[str, float]:
        """Per-layer metrics that come from results, not spans."""
        return {}

    def describe_round(self, index: int, record: dict) -> List[str]:
        """Report lines for one finished round."""
        return []


# -- branchy: in-process cells -----------------------------------------------------


class Branchy(Workload):
    """``gap.bfs`` and ``spec.int.hashjoin_like`` run to program exit
    under all four techniques in one process, as ``repro compare`` does.

    Round ``r`` simulates input set ``r % INPUTS``: the workload seed
    derives ``INPUTS`` data seeds, so one run averages over several
    inputs and ``conv_err_pct`` (taken over the first ``INPUTS`` rounds,
    which every run completes) moves little between seeds.  Later rounds
    repeat an input and must repeat its digests.  A traced run keeps to
    input 0 (:meth:`single_input`).

    The host-time metrics take each cell (kernel, technique, input) at
    the median of its repeats and sum over the fixed set of cells, so
    how many rounds the host's speed lets fit in the window changes how
    many repeats a cell gets, never which inputs the metric covers.
    """

    name = "branchy"
    #: (registry name, scale)
    KERNELS = (("gap.bfs", "tiny"), ("spec.int.hashjoin_like", "tiny"))
    INPUTS = 4

    def __init__(self, seed: int):
        super().__init__(seed)
        self.inputs = self.INPUTS

    def single_input(self) -> None:
        self.inputs = 1

    @property
    def min_rounds(self) -> int:
        return self.inputs

    def data_seed(self, index: int) -> int:
        return self.seed * self.INPUTS + index % self.inputs

    def setup(self) -> None:
        import repro.workloads
        from repro.core.config import CoreConfig
        reset_jit_pools()
        self.config = CoreConfig.scaled()
        self.references = {}
        for slot in range(self.inputs):
            for kernel, scale in self.KERNELS:
                built = repro.workloads.build_workload(
                    kernel, scale=scale, seed=self.data_seed(slot))
                self.references[kernel, slot] = (
                    built.expected_output,
                    built.meta.get("float_tolerance", 1e-6))
        self.first_digests: Dict[tuple, str] = {}

    def run_round(self, index: int, tracer=None) -> dict:
        import repro.workloads
        from repro.simulator.simulation import Simulator
        start = time.perf_counter()
        reset_jit_pools()
        slot = index % self.inputs
        cells = []
        for kernel, scale in self.KERNELS:
            program = repro.workloads.build_workload(
                kernel, scale=scale, seed=self.data_seed(index),
                check=False).program
            for technique in TECHNIQUES:
                label = f"{kernel}/{technique}"
                if tracer is not None:
                    tracer.set_context(f"r{index}/{label}")
                sim = Simulator(program, config=self.config,
                                technique=technique, name=kernel)
                self.speed.sample()
                t0 = time.perf_counter()
                try:
                    result = sim.run()
                except Exception as exc:  # noqa: BLE001 - counted by the gate
                    self.fail(f"round {index} {label}: "
                              f"{type(exc).__name__}: {exc}")
                    cells.append({"label": label, "ok": False})
                    continue
                seconds = time.perf_counter() - t0
                cells.append(self._cell(index, kernel, technique, sim,
                                        result, seconds))
        if tracer is not None:
            tracer.set_context(None)
        self._check_round(index, cells)
        done = [c for c in cells if "seconds" in c]
        kips = ratio(sum(c["instructions"] for c in done),
                     sum(c["seconds"] for c in done)) / 1000.0
        return {"wall": time.perf_counter() - start, "primary": kips,
                "slot": slot, "cells": cells, "attempted": len(cells),
                "failed": sum(1 for c in cells if not c["ok"])}

    def _cell(self, index, kernel, technique, sim, result,
              seconds) -> dict:
        label = f"{kernel}/{technique}"
        want, tolerance = self.references[kernel, index % self.inputs]
        ok = True
        if not outputs_match(result.output, want, tolerance):
            self.fail(f"round {index} {label}: output {result.output!r} "
                      f"!= reference {want!r}")
            ok = False
        cell = {"label": label, "kernel": kernel, "technique": technique,
                "instructions": result.instructions, "seconds": seconds,
                "ipc": result.ipc, "digest": digest(result), "ok": ok,
                "counts": dict(result_counts(result), **live_counts(sim))}
        return cell

    def _check_round(self, index: int, cells: List[dict]) -> None:
        """Same instruction count under every technique, and the same
        digest as the first round on the same input for every cell."""
        by_kernel: Dict[str, Dict[str, int]] = {}
        for cell in cells:
            if "instructions" in cell:
                by_kernel.setdefault(cell["kernel"], {})[
                    cell["technique"]] = cell["instructions"]
        for kernel, counts in by_kernel.items():
            if len(set(counts.values())) > 1:
                self.fail(f"round {index} {kernel}: techniques retire "
                          f"different instruction counts {counts}")
                for cell in cells:
                    if cell.get("kernel") == kernel:
                        cell["ok"] = False
        slot = index % self.inputs
        for cell in cells:
            if "digest" not in cell:
                continue
            first = self.first_digests.setdefault((cell["label"], slot),
                                                  cell["digest"])
            if cell["digest"] != first:
                self.fail(f"round {index} {cell['label']}: digest "
                          f"{cell['digest']} != round-{slot} digest "
                          f"{first}")
                cell["ok"] = False

    def end_to_end(self, rounds, wall):
        ipcs: Dict[str, Dict[str, float]] = {}
        times: Dict[tuple, List[float]] = {}
        instructions: Dict[tuple, int] = {}
        for r in rounds:
            for cell in r["cells"]:
                if "seconds" not in cell:
                    continue
                key = (cell["label"], r["slot"])
                times.setdefault(key, []).append(cell["seconds"])
                instructions[key] = cell["instructions"]
                ipcs.setdefault(f"{cell['kernel']}#{r['slot']}", {})[
                    cell["technique"]] = cell["ipc"]
        cell_s = {key: median(v) for key, v in times.items()}
        total = sum(cell_s.values())
        # One request is one input under every kernel and technique (a
        # round).  Single cells make a poor sample: their times cluster
        # by kernel, and the median falls between two clusters.
        per_input: Dict[int, float] = {}
        for (_, slot), seconds in cell_s.items():
            per_input[slot] = per_input.get(slot, 0.0) + seconds
        return summarize(ratio(sum(instructions.values()), total) / 1000.0,
                         ratio(len(cell_s), total),
                         [t * 1000.0 for t in per_input.values()], ipcs)

    def layer_counts(self, rounds):
        cells = [c for r in rounds for c in r["cells"] if "counts" in c]
        return sum_counts([c["counts"] for c in cells], len(rounds))

    def describe_round(self, index: int, record: dict) -> List[str]:
        slot = record["slot"]
        if index == slot:
            return [f"  round {index} input {slot} {c['label']:32} digest "
                    f"{c.get('digest', '-')} {c.get('instructions', 0):>7}"
                    f" instr {c.get('seconds', 0.0):6.3f} s"
                    for c in record["cells"]]
        same = all(c.get("digest") == self.first_digests.get(
            (c["label"], slot)) for c in record["cells"])
        return [f"  round {index} input {slot}: {len(record['cells'])} "
                f"cell digests {'identical to' if same else 'DIFFER from'}"
                f" round {slot}, {record['wall']:.2f} s"]


def sum_counts(counts: List[Dict[str, float]], rounds: int
               ) -> Dict[str, float]:
    """Per-layer metrics from summed simulated and live counters,
    counts given per round."""
    total: Dict[str, float] = {}
    for entry in counts:
        for key, value in entry.items():
            total[key] = total.get(key, 0) + value
    per_round = max(1, rounds)
    get = total.get
    return {
        "functional.superblock_frac": ratio(get("superblock_instructions", 0),
                                            get("instructions_produced", 0)),
        "functional.wp_emulated": get("wp_instructions_emulated", 0)
        / per_round,
        "core.timingblock_frac": ratio(get("timingblock_instructions", 0),
                                       get("instructions", 0)),
        "wrongpath.windows": get("mispredict_windows", 0) / per_round,
        "wrongpath.wp_executed": get("wp_executed", 0) / per_round,
        "wrongpath.streamblock_frac": ratio(
            get("streamblock_instructions", 0), get("wp_fetched", 0)),
        "wrongpath.conv_found_ratio": ratio(get("conv_found", 0),
                                            get("conv_attempts", 0)),
        "wrongpath.addr_recovered_ratio": ratio(get("wp_addr_recovered", 0),
                                                get("wp_mem_ops", 0)),
        "cache.l1d_miss_ratio": ratio(get("l1d_misses", 0),
                                      get("l1d_accesses", 0)),
        "cache.llc_miss_ratio": ratio(get("llc_misses", 0),
                                      get("llc_accesses", 0)),
        "cache.wp_access_frac": ratio(get("l1d_wp_accesses", 0),
                                      get("l1d_accesses", 0)),
    }


# -- sweep: the embedded experiment engine ---------------------------------------


def probe_before_jobs(path: str) -> None:
    """Pool-worker initializer: time the host-speed probe before every
    job this worker runs, appending each time to ``<path>.<pid>``.

    The engine submits ``repro.engine.executor._execute_payload``, which
    pickles by name, so the worker runs whatever that name holds here.
    """
    from repro.engine import executor
    execute = executor._execute_payload
    speed = HostSpeed()
    out = f"{path}.{os.getpid()}"

    def probed(payload: dict) -> dict:
        speed.sample()
        with open(out, "a") as fh:
            fh.write(f"{speed.samples[-1]!r}\n")
        return execute(payload)

    executor._execute_payload = probed


class Sweep(Workload):
    """An embedded ``ExperimentEngine(jobs=2)`` on a fresh store: every
    registry kernel x {nowp, conv} cold, then x {conv, wpemul} (half
    hits), with one checkpointed ``sample_workload`` per pass."""

    name = "sweep"
    primary = "jobs_per_s"
    unit = "jobs"
    children = True
    WORKERS = 2
    #: Registry kernels swept; empty means all of them.
    KERNELS: tuple = ()
    CAP = 1000
    SAMPLE = dict(workload="gap.pr", technique="conv", scale="tiny",
                  detail_length=2000, fastforward_length=6000,
                  max_instructions=40_000)

    def setup(self) -> None:
        from repro.engine import SimJob, code_fingerprint
        from repro.workloads import workload_names
        code_fingerprint()

        def grid(techniques):
            return [SimJob(workload=kernel, technique=technique,
                           scale="tiny", seed=self.seed,
                           max_instructions=self.CAP)
                    for kernel in self.KERNELS or workload_names()
                    for technique in techniques]
        self.passes = (grid(("nowp", "conv")), grid(("conv", "wpemul")))
        self.first_digests: Dict[str, str] = {}

    def _engine(self, root: str):
        """An engine on a fresh store that also returns the list it
        appends ``(wall seconds, outcomes)`` to for every ``run`` call,
        including the ones ``sample_workload`` makes.  Its pool workers
        probe the host speed before every job (:func:`probe_before_jobs`)
        into ``<root>/probe.<pid>``."""
        from concurrent.futures import ProcessPoolExecutor
        from repro.engine import ExperimentEngine, ResultStore
        calls: List[tuple] = []
        probes = os.path.join(root, "probe")

        class TimedEngine(ExperimentEngine):
            def run(self, jobs, fresh=False):
                t0 = time.perf_counter()
                outcomes = super().run(jobs, fresh=fresh)
                calls.append((time.perf_counter() - t0, outcomes))
                return outcomes

            def _make_pool(self, workers):
                return ProcessPoolExecutor(max_workers=workers,
                                           initializer=probe_before_jobs,
                                           initargs=(probes,))

        return TimedEngine(store=ResultStore(root),
                           jobs=self.WORKERS), calls

    def _collect_probes(self, root: str) -> None:
        """Move the pool workers' probe times into :attr:`speed`; a round
        without any means the pool never took the initializer, and the
        run stops rather than report unscaled figures."""
        found = 0
        for name in os.listdir(root):
            if name.startswith("probe."):
                with open(os.path.join(root, name)) as fh:
                    for line in fh:
                        self.speed.samples.append(float(line))
                        found += 1
        if not found:
            raise RuntimeError("no host-speed probe ran in the sweep's "
                               "pool workers")

    def run_round(self, index: int, tracer=None) -> dict:
        from repro.simulator.sampling import sample_workload
        root = os.path.join(WORK, f"sweep-{os.getpid()}-{index}")
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root)
        engine, calls = self._engine(root)
        start = time.perf_counter()
        passes, sampled = [], []
        try:
            for jobs in self.passes:
                passes.append(engine.run(jobs))
                try:
                    sampled.append(sample_workload(
                        seed=self.seed, engine=engine, **self.SAMPLE))
                except RuntimeError as exc:
                    self.fail(f"round {index} sample: {exc}")
            wall = time.perf_counter() - start
            self._collect_probes(root)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return self._check(index, calls, passes, sampled, wall)

    def _check(self, index, calls, passes, sampled, wall) -> dict:
        """Every outcome ok; pass 2 repeats and the second sampled run
        are store hits, digest-identical to pass 1; digests repeat
        across rounds."""
        outcomes = [o for _, batch in calls for o in batch]
        failed = 0
        for outcome in outcomes:
            if not outcome.ok:
                failed += 1
                self.fail(f"round {index} {outcome.job.label}: "
                          f"{outcome.status} {outcome.error}")
        pass1 = {o.job.key: o for o in passes[0]}
        for outcome in passes[0] + passes[1]:
            if not outcome.ok:
                continue
            label = outcome.job.label
            dig = digest(outcome.result)
            first = self.first_digests.setdefault(label, dig)
            twin = pass1.get(outcome.job.key)
            bad = dig != first
            if twin is not None and twin is not outcome:
                if outcome.status != "hit":
                    self.fail(f"round {index} {label}: pass-2 repeat was "
                              f"{outcome.status}, not a store hit")
                    bad = True
                elif twin.ok and digest(twin.result) != dig:
                    self.fail(f"round {index} {label}: pass-2 hit differs "
                              f"from pass 1")
                    bad = True
            if bad:
                failed += 1
        if len(sampled) == 2:
            # calls: pass 1, its sample, pass 2, its sample.
            misses = [o.job.label for o in calls[-1][1]
                      if o.status != "hit"]
            if misses or sampled[0].digest() != sampled[1].digest():
                failed += 1
                self.fail(f"round {index}: pass-2 sampled run differs "
                          f"from pass 1 or missed the store ({misses})")
        executed = [o for o in outcomes if o.status == "ok"]
        ipcs: Dict[str, Dict[str, float]] = {}
        for outcome in passes[1]:
            if outcome.ok:
                ipcs.setdefault(outcome.job.workload, {})[
                    outcome.job.technique] = outcome.result.ipc
        return {
            "wall": wall,
            "primary": ratio(len(outcomes), wall),
            "attempted": len(outcomes) + len(sampled),
            "failed": failed,
            "jobs": len(outcomes),
            "instructions": sum(o.result.instructions for o in executed),
            "sim_seconds": sum(o.result.wall_seconds for o in executed),
            "pool_seconds": sum(w for w, batch in calls
                                if any(o.status != "hit" for o in batch)),
            "retries": sum(max(0, o.attempts - 1) for o in outcomes),
            "hits": sum(1 for o in outcomes if o.status == "hit"),
            "intervals": sum(s.intervals for s in sampled),
            "ipcs": ipcs,
            "counts": [result_counts(o.result) for o in executed
                       if o.job.kind == "sim"],
        }

    def end_to_end(self, rounds, wall):
        # A request is one round, the whole sweep: its jobs are submitted
        # a pass at once, and two workers share the host, so a single
        # job's time says more about its neighbours than about itself.
        return summarize(reported_kips(rounds),
                         ratio(sum(r["jobs"] for r in rounds), wall),
                         [r["wall"] * 1000.0 for r in rounds],
                         rounds[0]["ipcs"])

    def layer_counts(self, rounds):
        n = max(1, len(rounds))
        out = sum_counts([c for r in rounds for c in r["counts"]], n)
        out.update({
            "simulator.run_s": sum(r["sim_seconds"] for r in rounds) / n,
            "simulator.intervals": sum(r["intervals"] for r in rounds) / n,
            "engine.retries": sum(r["retries"] for r in rounds) / n,
            "engine.worker_busy_frac": ratio(
                sum(r["sim_seconds"] for r in rounds),
                self.WORKERS * sum(r["pool_seconds"] for r in rounds)),
        })
        return out

    def describe_round(self, index: int, record: dict) -> List[str]:
        return [f"  round {index}: {record['jobs']} jobs "
                f"({record['hits']} store hits), {record['intervals']} "
                f"sample intervals, {record['wall']:.2f} s"]


# -- serve: the sweep daemon under two closed-loop clients ---------------------


class Serve(Workload):
    """``python -m repro serve --jobs 2`` as a subprocess; two client
    connections each send one job per request and wait for the reply
    (closed loop).  A round submits fresh keys: a cold pass in which
    both clients ask for the same key at about the same time, so the
    scheduler runs it once and shares it, then a repeated pass over
    every ``REPEAT_EVERY``-th key, answered from the store.  Three
    requests in four therefore wait on a simulation, and
    ``req_p50_ms`` falls on one rather than on a store hit."""

    name = "serve"
    primary = "jobs_per_s"
    unit = "requests"
    children = True
    CAP = 8000
    KERNELS = ("gap.bfs", "gap.cc", "gap.pr", "gap.sssp",
               "spec.int.hashjoin_like", "spec.int.sort_like",
               "spec.int.strmatch_like", "spec.int.tree_like",
               "spec.int.xz_like", "spec.fp.reduce_like",
               "spec.fp.saxpy_like", "spec.fp.stencil_like")
    REPEAT_EVERY = 3
    WAIT = 60.0
    #: ``conv_err_pct`` averages the first rounds' fresh inputs.
    min_rounds = 4
    #: Round 0 starts the pool workers and fills the compiled blocks
    #: they keep, which a long-running daemon pays once.
    warmup = 1

    def setup(self) -> None:
        os.makedirs(WORK, exist_ok=True)
        # Short name: a Unix socket path must fit in about 100 bytes.
        self.socket = os.path.join(WORK, f"s{os.getpid()}.sock")
        self.cache = os.path.join(WORK, f"serve-{os.getpid()}")
        shutil.rmtree(self.cache, ignore_errors=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                     if p])
        self.log_path = self.cache + ".log"
        self.log = open(self.log_path, "w")
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket",
             self.socket, "--cache-dir", self.cache, "--jobs", "2"],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=self.log)
        self._wait_ready()

    def _wait_ready(self) -> None:
        from repro.service import ServiceClient, ServiceError
        deadline = time.perf_counter() + self.WAIT
        while True:
            if self.daemon.poll() is not None:
                raise RuntimeError(f"daemon exited with code "
                                   f"{self.daemon.returncode}; see "
                                   f"{self.log_path}")
            try:
                with ServiceClient(self.socket, connect_timeout=1.0) as c:
                    c.ping()
                return
            except (ServiceError, OSError):
                if time.perf_counter() > deadline:
                    raise RuntimeError("daemon never answered ping")
                time.sleep(0.02)

    def teardown(self) -> None:
        from repro.service import ServiceClient, ServiceError
        daemon = getattr(self, "daemon", None)
        if daemon is None:
            return
        try:
            if daemon.poll() is None:
                try:
                    ServiceClient(self.socket,
                                  connect_timeout=5.0).shutdown()
                except (ServiceError, OSError):
                    pass
                try:
                    daemon.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    daemon.terminate()
                    try:
                        daemon.wait(timeout=10)
                    except subprocess.TimeoutExpired:
                        daemon.kill()
                        daemon.wait()
        finally:
            self.log.close()
            shutil.rmtree(self.cache, ignore_errors=True)
            for path in (self.socket, self.log_path):
                if os.path.exists(path):
                    os.unlink(path)

    def _jobs(self, index: int) -> list:
        from repro.engine import SimJob
        # Fresh keys every round: the workload seed moves with the round.
        seed = self.seed * 1000 + index
        return [SimJob(workload=kernel, technique=technique, scale="tiny",
                       seed=seed, max_instructions=self.CAP)
                for kernel in self.KERNELS
                for technique in ("conv", "wpemul")]

    def run_round(self, index: int, tracer=None) -> dict:
        from repro.service import ServiceClient
        jobs = self._jobs(index)
        phases = (("cold", jobs), ("repeat", jobs[::self.REPEAT_EVERY]))
        records: Dict[str, list] = {"a": [], "b": []}
        errors: List[str] = []
        # The clients meet before every request, and the host speed is
        # probed there: the daemon and the other client are idle then.
        meet = threading.Barrier(len(records), action=self.speed.sample,
                                 timeout=self.WAIT)

        def client(name: str) -> None:
            if tracer is not None:
                tracer.set_context(f"r{index}/{name}")
            try:
                with ServiceClient(self.socket,
                                   connect_timeout=10.0) as conn:
                    for phase, order in phases:
                        for job in order:
                            meet.wait()
                            # The probe the barrier has just taken.
                            probe = self.speed.samples[-1]
                            t1 = time.perf_counter()
                            outcome = conn.run([job])[0]
                            records[name].append(
                                (phase, job, outcome,
                                 time.perf_counter() - t1, probe))
            except Exception as exc:  # noqa: BLE001 - reported by the gate
                meet.abort()
                errors.append(f"client {name}: {type(exc).__name__}: {exc}")

        start = time.perf_counter()
        threads = [threading.Thread(target=client, args=(name,))
                   for name in records]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=self.WAIT * 2)
        wall = time.perf_counter() - start
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("serve client did not finish")
        for message in errors:
            self.fail(f"round {index} {message}")
        return self._check(index, jobs, records, wall, len(errors))

    def _check(self, index, jobs, records, wall, client_errors) -> dict:
        from repro.engine.journal import read_jsonl
        failed = client_errors
        seen: Dict[str, str] = {}
        for name, entries in records.items():
            for phase, job, outcome, *_ in entries:
                if not outcome.ok:
                    failed += 1
                    self.fail(f"round {index} client {name} {job.label}: "
                              f"{outcome.status} {outcome.error}")
                    continue
                dig = digest(outcome.result)
                if seen.setdefault(job.key, dig) != dig:
                    failed += 1
                    self.fail(f"round {index} client {name} {job.label} "
                              f"({phase}): digest differs between "
                              f"requests")
        executed: Dict[str, int] = {}
        for entry in read_jsonl(os.path.join(self.cache, "journal.jsonl")):
            if entry.get("status") == "ok":
                executed[entry["key"]] = executed.get(entry["key"], 0) + 1
        for job in jobs:
            if executed.get(job.key) != 1:
                failed += 1
                self.fail(f"round {index} {job.label}: journal shows "
                          f"{executed.get(job.key, 0)} executions, want 1")
        entries = [e for rows in records.values() for e in rows]
        done = [o for _, _, o, *_ in entries if o.status == "ok"]
        ipcs: Dict[str, Dict[str, float]] = {}
        for _, job, outcome, *_ in entries:
            if outcome.ok:
                ipcs.setdefault(f"{job.workload}#{index}", {})[
                    job.technique] = outcome.result.ipc
        status = [o.status for _, _, o, *_ in entries]
        return {
            "wall": wall,
            "primary": ratio(len(entries), wall),
            "attempted": len(entries) + len(jobs),
            "failed": failed,
            "jobs": len(entries),
            "latencies": [s * 1000.0 for *_, s, _ in entries],
            "probe": sum(p for *_, p in entries) / max(1, len(entries)),
            "hit_ms": [s * 1000.0 for _, _, o, s, _ in entries
                       if o.status == "hit"],
            "sim_ms": [s * 1000.0 for _, _, o, s, _ in entries
                       if o.status == "ok"],
            "shared": status.count("shared"),
            "hits": status.count("hit"),
            "instructions": sum(o.result.instructions for o in done),
            "sim_seconds": sum(o.result.wall_seconds for o in done),
            "ipcs": ipcs,
            "counts": [result_counts(o.result) for o in done],
        }

    def end_to_end(self, rounds, wall):
        # A host whose speed switches between two levels for seconds at a
        # time makes a median over rounds flip between the levels, so the
        # rates are totals over the window.  Each round's latencies are
        # brought to the run's mean host speed by the round's mean probe,
        # so a quantile does not move with how the run split between fast
        # and slow spells either.  (One request's own probe would carry
        # the probe's noise into the tail.)
        mean = sum(self.speed.samples) / len(self.speed.samples)
        return summarize(reported_kips(rounds),
                         ratio(sum(r["jobs"] for r in rounds), wall),
                         [ms * mean / r["probe"] for r in rounds
                          for ms in r["latencies"]],
                         {k: v for r in rounds[:self.min_rounds]
                          for k, v in r["ipcs"].items()})

    def layer_counts(self, rounds):
        n = max(1, len(rounds))
        jobs = sum(r["jobs"] for r in rounds)
        out = sum_counts([c for r in rounds for c in r["counts"]], n)
        out.update({
            "simulator.run_s": sum(r["sim_seconds"] for r in rounds) / n,
            "service.hit_p50_ms": median([v for r in rounds
                                          for v in r["hit_ms"]]),
            "service.sim_p50_ms": median([v for r in rounds
                                          for v in r["sim_ms"]]),
            "service.shared_frac": ratio(sum(r["shared"] for r in rounds),
                                         jobs),
            "service.hit_frac": ratio(sum(r["hits"] for r in rounds), jobs),
        })
        return out

    def describe_round(self, index: int, record: dict) -> List[str]:
        return [f"  round {index}: {record['jobs']} requests "
                f"({record['hits']} hits, {record['shared']} shared), "
                f"{record['wall']:.2f} s"]


WORKLOADS = {cls.name: cls for cls in (Branchy, Sweep, Serve)}


def make(name: str, seed: int) -> Workload:
    try:
        return WORKLOADS[name](seed)
    except KeyError:
        raise SystemExit(f"unknown workload {name!r}; choose from "
                         f"{', '.join(WORKLOADS)}") from None
