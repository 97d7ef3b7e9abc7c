#!/usr/bin/env python3
"""Benchmark of audiocap: training, captioning and gradient checking.

Usage (from the repository root):
    python3 bench/run.py --workload {train,caption,gradcheck} --seed N \
        --seconds S --trace {0,1}

Runs whole rounds of `audiocap` commands in this process for at least S
seconds, checks every output, and prints as its last stdout line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 traced and untraced rounds
alternate and the metrics are the per-layer ones (see bench/README.md).
Run records and traces go to .bench_out/ under the repository root.
"""

import os
import sys
import time

PROCESS_START = time.perf_counter()

# one BLAS thread, set before numpy loads: two BLAS threads on the two
# shared cores leave nothing for anything else on the machine
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
MIN_ROUNDS = 3          # per kind of round (untraced, traced)


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
    }


def layer_metrics(tracer, workload, traced_items: int, overhead_pct: float) -> dict:
    """Per-layer numbers from the traced rounds. Time spans are per unit of
    the workload (train: Adam step, caption: clip, gradcheck: evaluation,
    i.e. one encoder forward pass); per-call numbers are per call."""
    calls, counts = tracer.calls, tracer.counts
    units = calls[workload.unit_call]

    def per(x, base):
        return x / base if base else 0.0

    def ms_per_unit(name, self_time=False):
        total = tracer.self_time[name] if self_time else tracer.inclusive[name]
        return per(1e3 * total, units)

    def ms_per_call(name):
        return per(1e3 * tracer.inclusive[name], calls[name])

    clips = calls["decoding.beam"]
    scalars = traced_items if workload.name == "gradcheck" else 0
    values = {
        "autodiff.backward_ms": ms_per_unit("autodiff.backward"),
        "autodiff.ops_per_step": per(counts["autodiff.ops"], calls["optim.adam"]),
        "autodiff.ops_per_eval": per(counts["autodiff.ops"], calls["model.encode"]),
        "model.forward_ms": ms_per_unit("model.forward"),
        "model.encode_ms": ms_per_unit("model.encode"),
        "model.decode_ms": ms_per_unit("model.decode"),
        "model.encoder_layer_ms": ms_per_unit("model.encoder_layer", True),
        "model.decoder_layer_ms": ms_per_unit("model.decoder_layer", True),
        "model.attention_ms": ms_per_unit("model.attention", True),
        "model.ffn_ms": ms_per_unit("model.ffn", True),
        "model.layer_norm_ms": ms_per_unit("model.layer_norm", True),
        "training.loss_ms": ms_per_unit("training.loss"),
        "optim.adam_ms": ms_per_unit("optim.adam"),
        "optim.zero_grad_ms": ms_per_unit("optim.zero_grad"),
        "word2vec.train_ms": ms_per_call("word2vec.train"),
        "checkpoint.save_ms": ms_per_call("checkpoint.save"),
        "checkpoint.bytes": per(counts["checkpoint.bytes"], calls["checkpoint.save"]),
        "checkpoint.load_ms": ms_per_call("checkpoint.load"),
        "decoding.beam_ms": ms_per_unit("decoding.beam"),
        "model.decode_calls_per_clip": per(calls["model.decode"], clips),
        "model.decode_rows_per_clip": per(counts["model.decode_rows"], clips),
        "decoding.tokens_per_clip": per(counts["decoding.tokens"], clips),
        "decoding.rows_per_token": per(counts["model.decode_rows"],
                                       counts["model.decode_last_rows"]),
        "audio.log_mel_ms": ms_per_unit("audio.log_mel"),
        "metrics.eval_ms": ms_per_call("metrics.eval"),
        "gradcheck.encode_calls_per_scalar": per(calls["model.encode"], scalars),
        "gradcheck.decode_calls_per_scalar": per(calls["model.decode"], scalars),
        "synth.corpus_ms": ms_per_call("synth.corpus"),
        "trace.overhead_pct": overhead_pct,
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "audiocap" / "cli.py").is_file():
        print(f"error: audiocap sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import audiocap.cli  # noqa: F401  (the import is part of set-up time)
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    imported = time.perf_counter()

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out_dir / f"work-{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    tracer = Tracer() if args.trace else None
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        if tracer:
            tracer.install()
        setups = []
        for rep in range(SETUP_REPS):
            start = time.perf_counter()
            workload.setup(work / f"setup{rep}")
            setups.append(time.perf_counter() - start)
        start = time.perf_counter()
        workload.finish_setup()
        finish = time.perf_counter() - start
        if tracer:
            tracer.uninstall()
        setup_s = (imported - PROCESS_START) + statistics.median(setups) + finish

        plain, traced = [], []
        begin = time.perf_counter()
        k = 0
        while (time.perf_counter() - begin < args.seconds or len(plain) < MIN_ROUNDS
               or (tracer and len(traced) < MIN_ROUNDS)):
            use_trace = tracer is not None and k % 2 == 1
            if use_trace:
                tracer.round = k
                tracer.install()
            try:
                rnd = workload.run_round(k)
            finally:
                if use_trace:
                    tracer.uninstall()
            (traced if use_trace else plain).append(rnd)
            k += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errors = workload.verify()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = plain + traced
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    rate = statistics.median(r.items / r.seconds for r in plain)
    if tracer:
        overhead = 100.0 * (statistics.median(r.seconds for r in traced)
                            / statistics.median(r.seconds for r in plain) - 1.0)
        metrics = layer_metrics(tracer, workload, sum(r.items for r in traced), overhead)
        tracer.write(out_dir / f"{tag}-spans.json")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "items_per_s": {"value": rate, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "setup_reps_s": setups,
        "finish_setup_s": finish, "import_s": imported - PROCESS_START,
        "round_seconds": [r.seconds for r in plain],
        "traced_round_seconds": [r.seconds for r in traced],
        "errors": errors, "outputs": workload.summary(), "metrics": metrics,
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
