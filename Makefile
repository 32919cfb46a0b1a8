# Convenience targets for the reproduction repository.

PYTHON ?= python
# make targets work from a clean checkout, without `pip install -e .`
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: install test lint bench perfbench-smoke bench-service bench-slo bench-stream trace-smoke cache-smoke multidevice-smoke ir-smoke queue-smoke slo-smoke fuse-smoke stream-smoke experiments examples results clean

install:
	pip install -e . --no-build-isolation

test: lint perfbench-smoke trace-smoke cache-smoke multidevice-smoke ir-smoke queue-smoke slo-smoke fuse-smoke stream-smoke
	$(PYTHON) -m pytest tests/

# ruff when installed, stdlib fallback (syntax, unused imports, debug
# leftovers) otherwise — style regressions fail alongside tier-1 tests
lint:
	$(PYTHON) tools/lint.py src tests benchmarks tools examples

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# repo benchmark smoke: the perfbench self-tests, then a short loops run
# whose result line must report correct outputs and no failed ops
perfbench-smoke:
	$(PYTHON) -m pytest -q perfbench/test_perfbench.py
	$(PYTHON) perfbench/run.py --workload loops --seed 1 --seconds 4 --trace 0 > .perfbench_smoke.out
	tail -n 1 .perfbench_smoke.out | $(PYTHON) -c "import json, sys; r = json.load(sys.stdin); \
		sys.exit(0 if r['correct'] is True and r['failed'] == 0 else 'perfbench-smoke: ' + json.dumps(r)[:400])"

# disk artifact cache end-to-end: a second process must hit the plan/run
# tiers the first one wrote, a different template must reuse the shared
# workload analysis, corrupted entries must degrade to misses, and a copy
# of the source with one cost-model line edited must miss every entry
cache-smoke:
	$(PYTHON) tools/cache_smoke.py

# tracing layer end-to-end: emitted Chrome trace validates (schema +
# required span names), stats invariants balance, disabled path is silent
trace-smoke:
	$(PYTHON) tools/trace_smoke.py

# multi-device execution end-to-end: 1- vs 4-device runs of a loop and a
# tree app must conserve work (per-device counters sum to single-device
# totals), merge as max-time/sum-busy, and keep devices=1 bit-for-bit
multidevice-smoke:
	$(PYTHON) tools/multidevice_smoke.py

# persistent task-queue backend end-to-end: task conservation
# (enqueued == executed + cancelled), async fixpoints bit-identical to
# the serial references, queue beating launch-per-round BSP on a
# high-diameter grid, and barrier-dependent templates falling back to
# BSP bit-for-bit
queue-smoke:
	$(PYTHON) tools/queue_smoke.py

# parallelization IR + auto-select end-to-end: pass pipeline reproduces
# the golden decision table, selection fingerprints are rebuild-stable,
# and a warm template="auto" run stays within 5% of naming the selected
# template directly
ir-smoke:
	$(PYTHON) tools/ir_smoke.py

# fused batch execution end-to-end: GpuExecutor.run_many over a mixed
# batch (block-mapped + dynamic-parallelism graphs) bit-identical to
# sequential runs, empty/singleton demux, backend accounting, and the
# executor.fused_graphs counter
fuse-smoke:
	$(PYTHON) tools/fuse_smoke.py

# streaming mutation differential fuzz: random mutation streams over
# random workloads; incremental analysis must stay bit-identical to
# from-scratch re-analysis at every step, in-place and functional
# mutation forms must agree, and every nested-loop template must produce
# cycle-identical results from either analysis path
stream-smoke:
	$(PYTHON) tools/stream_fuzz.py

# serving-layer throughput: micro-batched repro.serve vs per-request
# repro.run; acceptance requires the batched path to win by >= 2x
bench-service:
	$(PYTHON) benchmarks/bench_service_throughput.py --min-speedup 2

# SLO-aware serving under overload: an open-loop multi-tenant mix at 2x
# measured capacity, SLO-aware (priorities/quotas/deadlines/autoscale)
# vs no-SLO FIFO; acceptance requires >= 3x better high-priority p99
bench-slo:
	$(PYTHON) benchmarks/bench_slo_serving.py --min-p99-ratio 3.0

# streaming throughput: incremental analysis maintenance vs from-scratch
# re-analysis under a mutation stream, plus one serving process
# sustaining mutations and snapshot-pinned queries; acceptance requires
# incremental >= 3x and zero torn snapshot reads
bench-stream:
	$(PYTHON) benchmarks/bench_streaming.py --min-speedup 3

# tiny version of bench-slo wired into `make test`: same two-sided run,
# relaxed 1.3x floor (the small mix is noisier), scratch output file
slo-smoke:
	$(PYTHON) benchmarks/bench_slo_serving.py --smoke \
		--min-p99-ratio 1.3 --out .bench_slo_smoke.json

# regenerate every paper artifact into results/
experiments:
	$(PYTHON) -m repro.bench all --scale 0.03 --out results/

examples:
	@for ex in examples/*.py; do \
		echo "=== $$ex"; $(PYTHON) $$ex || exit 1; \
	done

results: experiments

clean:
	rm -rf results .pytest_cache .benchmarks .bench_slo_smoke.json \
		.perfbench_smoke.out .perfbench_tmp
	find . -name __pycache__ -type d -exec rm -rf {} +
