"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's tables or figures; the
regenerated rows are attached to the benchmark record via
``benchmark.extra_info`` so ``--benchmark-json`` output carries the
full reproduction alongside the wall-clock numbers.
"""


def backend_stamp(side=None):
    """Provenance block for BENCH_* payloads: active matrix backend,
    native kernel impl, and the packed-plane word width for ``side``.

    Values are strings on purpose — the trend gate only tracks numeric
    top-level keys, and provenance is context, not a metric.
    """
    import os

    from repro.rag import batch, native

    stamp = {
        "matrix_backend": os.environ.get("REPRO_MATRIX_BACKEND",
                                         "bitmask"),
        "native_impl": native.impl_name() or "none",
        "numpy": "yes" if batch.HAS_NUMPY else "no",
    }
    if side is not None:
        stamp["plane_words"] = str(batch.plane_words(side))
    return stamp


def sample_pair_ms(fast, reference, repeats: int,
                   sample_seconds: float) -> tuple:
    """``repeats`` per-call millisecond samples of each side, taken
    alternately so both sides see the same minutes of a shared host.

    Each sample times as many calls as fill about ``sample_seconds``,
    so sub-millisecond calls are not timed singly.
    """
    import time

    samplers = []
    for fn in (fast, reference):
        start = time.perf_counter()
        fn()
        calls = max(1, round(sample_seconds
                             / (time.perf_counter() - start)))
        samplers.append((fn, calls, []))
    for _ in range(repeats):
        for fn, calls, samples in samplers:
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            samples.append((time.perf_counter() - start) * 1e3 / calls)
    return samplers[0][2], samplers[1][2]


def spread(samples) -> float:
    """Interquartile range over median: the run-to-run noise figure."""
    import statistics

    low, _, high = statistics.quantiles(samples, n=4)
    return (high - low) / statistics.median(samples)


def bench_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` through pytest-benchmark with fixed, small round
    counts — the simulations are deterministic, so statistical
    averaging adds nothing but wall-clock."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=3, iterations=1, warmup_rounds=0)
