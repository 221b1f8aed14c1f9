#!/usr/bin/env python3
"""End-to-end assembly benchmark for PPA-assembler.

    python3 asmbench/run.py --workload hc2-lr --seed 1 --seconds 30 --trace 0

Run from the root of a source tree. Each run

1. builds ppa_assemble and the benchmark's tools from source with
   asmbench/CMakeLists.txt into .bench_build/asmbench (a no-op when current);
2. generates, with asmbench_gen, the workload's reference genome (one per
   workload) and DRAWS FASTQs sequenced from it, each with its own read
   seed derived from --seed;
3. with --trace 0, runs `ppa_assemble <draw.fastq> --threads 2 ...` as a
   fresh process, one assembly at a time (closed loop), cycling over the
   draws, every draw at least once and then for as long as --seconds
   allows, and reports medians of wall time, CPU time and peak RSS taken
   from wait4, plus the median over the draws of the contigs' QUAST-style
   quality; before each assembly it generates the draw again and fails
   unless the copy is byte-identical, and setup_s is the median time of
   all the run's generations; with --trace 1, alternates that untraced run
   on draw 0 with asmbench_traced, which replays the pipeline in-process
   call by call, and reports per-layer metrics (medians over the traced
   runs) instead;
4. checks every assembly: a non-zero exit, missing or malformed contigs, a
   misassembly, or a genome fraction below the workload's floor is a
   failure, and so is a traced run whose contigs differ from the untraced
   run's.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Everything the run writes stays under
.bench_build/ in the source tree; see asmbench/README.md for the metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "asmbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "asmbench")
WORK_ROOT = os.path.join(ROOT, ".bench_build", "work")
BASELINE = os.path.join(BENCH_DIR, "baseline.json")

THREADS = 2        # ppa_assemble --threads; 4 saturate a 4-core host
DRAWS = 3          # read sets sequenced per run; assemblies cycle over them
MIN_CONTIG = 500   # QUAST-style assessment cutoff
BUILD_JOBS = 4

# HC-2-sim at scale 2, exactly as sim::MakeDataset(kHc2, 2) builds it:
# seed 0 reproduces `ppa_sim_export hc2 --scale 2` byte for byte.
HC2_INPUT = {
    "name": "HC-2-sim", "genome-length": 500000, "repeat-families": 10,
    "repeat-length": 300, "repeat-copies": 5, "genome-seed": 1002,
    "read-length": 100, "coverage": 30, "error-rate": 0.005,
    "read-seed": 2002,
}
# A small genome read very deeply: 375 k reads over 250 kbp (150x).
DEEP_INPUT = {
    "name": "deep-cov", "genome-length": 250000, "repeat-families": 6,
    "repeat-length": 300, "repeat-copies": 5, "genome-seed": 1150,
    "read-length": 100, "coverage": 150, "error-rate": 0.005,
    "read-seed": 2150,
}

WORKLOADS = {
    "hc2-lr": {"input": HC2_INPUT, "theta": 2, "labeling": "lr",
               "min_genome_fraction": 95.0},
    "hc2-sv": {"input": HC2_INPUT, "theta": 2, "labeling": "sv",
               "min_genome_fraction": 95.0},
    "deep-cov": {"input": DEEP_INPUT, "theta": 5, "labeling": "lr",
                 "min_genome_fraction": 95.0},
}

# Metric names and units: BENCHMARK.json at the root is the one list.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
E2E_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
# All per-layer metrics but pipeline.traced_vs_untraced come straight from
# asmbench_traced.
LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

COMPLEMENT = str.maketrans("ACGTN", "TGCAN")


class BenchError(Exception):
    """The benchmark itself could not run (build, tools, inputs)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def spawn(argv, stdout_path, stderr_path, env):
    """Runs argv to completion; returns (exit_code, wall_s, rusage)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout_path,
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path,
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, env, file_actions=actions)
    try:
        _, status, rusage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        raise
    return os.waitstatus_to_exitcode(status), time.perf_counter() - start, rusage


class Runner:
    """One benchmark run: the inputs of one (workload, seed) and its checks."""

    def __init__(self, workload, seed, env):
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.env = env
        self.dir = os.path.join(WORK_ROOT, f"{workload}-seed{seed}")
        os.makedirs(self.dir, exist_ok=True)
        self.reference = self.path("draw0.ref.fasta")
        self.quality = {}  # contig digest -> asmbench_eval report
        self.draw_digest = {}  # draw -> contig digest of its first assembly
        self.attempted = 0
        self.failed = 0

    def path(self, name):
        return os.path.join(self.dir, name)

    def fastq(self, draw):
        return self.path(f"draw{draw}.fastq")

    def tool(self, name, flags):
        """Runs a benchmark tool; returns the JSON object it prints."""
        argv = [os.path.join(BUILD_DIR, name)]
        for key, value in flags.items():
            argv += [f"--{key}", str(value)]
        out, err = self.path(f"{name}.out"), self.path(f"{name}.err")
        code, _, _ = spawn(argv, out, err, self.env)
        if code != 0:
            with open(err) as f:
                raise BenchError(f"{name} exited {code}: {f.read()[-2000:]}")
        with open(out) as f:
            return json.load(f)

    # ---- Set-up. ---------------------------------------------------------
    def generate(self, draw, prefix):
        """Writes <prefix>.fastq/.ref.fasta; returns (setup_s, sha256)."""
        flags = dict(self.wl["input"])
        flags["read-seed"] += self.seed * DRAWS + draw
        flags["out"] = self.path(prefix)
        report = self.tool("asmbench_gen", flags)
        h = hashlib.sha256()
        for suffix in (".fastq", ".ref.fasta"):
            with open(self.path(prefix + suffix), "rb") as f:
                for block in iter(lambda: f.read(1 << 20), b""):
                    h.update(block)
        self.provenance = {k: report[k] for k in (
            "hardware_concurrency", "simd_level", "force_scalar", "git_sha",
            "timestamp_utc")}
        self.input_size = {k: report[k] for k in (
            "reads", "bases", "reference_bp")}
        return report["setup_s"], h.hexdigest()

    def setup(self, draws):
        """Generates draws 0..draws-1 once each."""
        self.setup_times, self.input_sha256 = [], []
        for draw in range(draws):
            seconds, digest = self.generate(draw, f"draw{draw}")
            self.setup_times.append(seconds)
            self.input_sha256.append(digest)

    def regenerate(self, draw):
        """Generates a draw again before it is assembled, failing unless the
        copy is byte-identical: the generator self-test, and one more
        set-up sample taken at another moment of the run."""
        seconds, digest = self.generate(draw, f"draw{draw}")
        self.setup_times.append(seconds)
        if digest != self.input_sha256[draw]:
            raise BenchError(f"draw {draw}: the same seed generated "
                             f"different inputs")

    def cleanup(self):
        for draw in range(DRAWS):
            if os.path.exists(self.fastq(draw)):
                os.remove(self.fastq(draw))

    # ---- Correctness. ----------------------------------------------------
    def check_contigs(self, fasta):
        """Canonical digest of a contig FASTA (None if missing or malformed),
        with its quality evaluated once per distinct digest."""
        try:
            with open(fasta) as f:
                text = f.read()
        except OSError:
            return None
        seqs, current = [], None
        for line in text.splitlines():
            if line.startswith(">"):
                current = []
                seqs.append(current)
            elif current is None or line.strip("ACGTN"):
                return None
            else:
                current.append(line)
        seqs = ["".join(s) for s in seqs]
        if not seqs or not all(seqs):
            return None
        canonical = sorted(min(s, s.translate(COMPLEMENT)[::-1]) for s in seqs)
        digest = hashlib.sha256("\n".join(canonical).encode()).hexdigest()
        if digest not in self.quality:
            self.quality[digest] = self.tool("asmbench_eval", {
                "reference": self.reference, "contigs": fasta,
                "min-contig": MIN_CONTIG})
        return digest

    def assembly_ok(self, digest):
        if digest is None:
            return False
        q = self.quality[digest]
        return (q["misassemblies"] == 0 and
                q["genome_fraction"] >= self.wl["min_genome_fraction"])

    def tally(self, draw, digest, what):
        self.attempted += 1
        if not self.assembly_ok(digest):
            self.failed += 1
            log(f"FAILED {what} of draw {draw}: contig digest {digest}")
        elif draw not in self.draw_digest:
            self.draw_digest[draw] = digest

    # ---- One untraced assembly. ------------------------------------------
    def assemble(self, draw):
        fasta = self.path("contigs.fasta")
        if os.path.exists(fasta):
            os.remove(fasta)
        argv = [os.path.join(BUILD_DIR, "ppa_assemble"), self.fastq(draw),
                "--threads", str(THREADS), "--theta", str(self.wl["theta"]),
                "--labeling", self.wl["labeling"], "--contigs", fasta]
        code, wall, ru = spawn(argv, self.path("assemble.out"),
                               self.path("assemble.err"), self.env)
        digest = self.check_contigs(fasta) if code == 0 else None
        self.tally(draw, digest, f"assembly (exit {code})")
        return {"wall": wall, "cpu": ru.ru_utime + ru.ru_stime,
                "rss_mb": ru.ru_maxrss / 1024.0, "digest": digest}

    # ---- One traced in-process replay of draw 0. -------------------------
    def traced(self, untraced_digest):
        fasta = self.path("traced_contigs.fasta")
        try:
            layers = self.tool("asmbench_traced", {
                "fastq": self.fastq(0), "threads": THREADS,
                "theta": self.wl["theta"], "labeling": self.wl["labeling"],
                "contigs": fasta, "trace-json": self.path("trace.json"),
                "run-label": f"{self.name}/seed={self.seed}"})
        except BenchError as e:
            log(str(e))
            layers, digest = None, None
        else:
            digest = self.check_contigs(fasta)
        if digest is not None and digest != untraced_digest:
            log(f"traced contigs {digest} differ from untraced "
                f"{untraced_digest}")
            digest = None
        self.tally(0, digest, "traced run")
        return layers


def measure_loop(seconds, step, at_least):
    """Closed loop: calls step(i) for i = 0, 1, ... at least `at_least`
    times, then until the next call would overrun `seconds`."""
    samples, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        samples.append(step(len(samples)))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if (len(samples) >= at_least and
                elapsed + statistics.median(durations) > seconds):
            return samples


def build(env):
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    configured = os.path.join(BUILD_DIR, "configured.stamp")
    steps = []
    if not os.path.exists(configured):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(BUILD_JOBS)])
    for argv in steps:
        code, _, _ = spawn(argv, log_path, log_path + ".err", env)
        if code != 0:
            with open(log_path + ".err") as f:
                raise BenchError(f"build failed: {' '.join(argv)}\n"
                                 f"{f.read()[-3000:]}")
        open(configured, "a").close()


def recorded_digests(workload, seed):
    """Per-draw contig digests baseline.json recorded for this run."""
    try:
        with open(BASELINE) as f:
            return json.load(f)["digests"][workload].get(str(seed))
    except (OSError, KeyError, ValueError):
        return None


def measure_untraced(runner, seconds):
    def step(i):
        runner.regenerate(i % DRAWS)
        return runner.assemble(i % DRAWS)

    samples = measure_loop(seconds, step, at_least=DRAWS)
    # Quality is a property of each draw's contigs, so every draw counts
    # once however often it was assembled.
    quality = [runner.quality[d] for d in runner.draw_digest.values()]
    metrics = {
        "assemble_s": statistics.median(s["wall"] for s in samples),
        "cpu_s": statistics.median(s["cpu"] for s in samples),
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in samples),
        "n50_bp": statistics.median(q["n50"] for q in quality)
                  if quality else 0,
        "genome_fraction_pct":
            statistics.median(q["genome_fraction"] for q in quality)
            if quality else 0.0,
    }
    counts = {"assemble_s": len(samples), "cpu_s": len(samples),
              "peak_rss_mb": len(samples), "n50_bp": len(quality),
              "genome_fraction_pct": len(quality)}
    return metrics, counts, [s["wall"] for s in samples]


def measure_traced(runner, seconds):
    def pair(_):
        runner.regenerate(0)
        untraced = runner.assemble(0)
        return untraced, runner.traced(untraced["digest"])

    pairs = measure_loop(seconds, pair, at_least=1)
    traced = [layers for _, layers in pairs if layers is not None]
    if not traced:
        raise BenchError("no traced run succeeded")
    metrics = {name: statistics.median(t[name] for t in traced)
               for name in LAYER_UNITS if name in traced[0]}
    metrics["pipeline.traced_vs_untraced"] = (
        metrics["pipeline.traced_s"] /
        statistics.median(u["wall"] for u, _ in pairs))
    log(f"trace: {runner.path('trace.json')}")
    return (metrics, {name: len(traced) for name in metrics},
            [u["wall"] for u, _ in pairs])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    env = dict(os.environ)
    tmp = os.path.join(WORK_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # keep every temporary file inside the tree

    build(env)
    runner = Runner(args.workload, args.seed, env)
    try:
        if args.trace == 0:
            runner.setup(DRAWS)
            metrics, counts, walls = measure_untraced(runner, args.seconds)
            metrics["setup_s"] = statistics.median(runner.setup_times)
            counts["setup_s"] = len(runner.setup_times)
            units = E2E_UNITS
        else:
            runner.setup(1)  # the traced run replays draw 0 only
            metrics, counts, walls = measure_traced(runner, args.seconds)
            units = LAYER_UNITS
        log(f"{args.workload} seed={args.seed}: inputs of "
            f"{runner.input_size}, generated {len(runner.setup_times)} "
            f"times, median {statistics.median(runner.setup_times):.4f} s")
    finally:
        runner.cleanup()
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics missing: {sorted(missing)}")

    # Contig digests are reported, not gated: a PR may change contigs when
    # it says why, and every workload keeps its own digests.
    digests = [runner.draw_digest.get(d) for d in range(DRAWS)]
    recorded = recorded_digests(args.workload, args.seed)
    if recorded is None:
        status = "no record for this seed"
    else:
        changed = [d for d in range(DRAWS) if digests[d] is not None and
                   digests[d] != recorded[d]]
        status = (f"CHANGED on draws {changed}" if changed else
                  "match the record")
    for name in sorted(metrics):
        log(f"  {name:36s} {metrics[name]:>14.6g} {units[name]:6s}"
            f" median of {counts[name]}")
    for digest in sorted(set(digests) - {None}):
        log(f"  quality: {json.dumps(runner.quality[digest])}")
    log(f"  contig digests {[(d or '-')[:16] for d in digests]}: {status}")
    log(f"  provenance: {json.dumps(runner.provenance)}")

    with open(runner.path(f"result-trace{args.trace}.json"), "w") as f:
        json.dump({
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "seconds": args.seconds, "threads": THREADS,
            "input": runner.input_size, "input_sha256": runner.input_sha256,
            "contig_digests": digests, "digest_status": status,
            "samples": counts, "assemble_walls": walls,
            "provenance": runner.provenance,
            "metrics": metrics}, f, indent=1)

    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def terminate(signum, frame):
    raise SystemExit(128 + signum)  # spawn() kills and reaps its child


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, terminate)
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"asmbench: {e}")
        sys.exit(1)
