# Convenience targets for the reproduction repository.

PYTHON ?= python
# make targets work from a clean checkout, without `pip install -e .`
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: install test lint bench perfbench-smoke trace-smoke cache-smoke multidevice-smoke ir-smoke queue-smoke fuse-smoke stream-smoke experiments examples results clean

install:
	pip install -e . --no-build-isolation

# the repo's own checks first, the benchmark smoke last: a failure in
# perfbench/ still fails `make test`, but after everything else has run;
# the examples run after the smokes, so removing a public name one of
# them uses fails `make test`
test: lint trace-smoke cache-smoke multidevice-smoke ir-smoke queue-smoke fuse-smoke stream-smoke examples
	$(PYTHON) -m pytest tests/
	$(MAKE) perfbench-smoke

# ruff when installed, stdlib fallback (syntax, unused imports, debug
# leftovers) otherwise — style regressions fail alongside tier-1 tests
lint:
	$(PYTHON) tools/lint.py src tests benchmarks tools examples

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# repo benchmark smoke: the perfbench self-tests, then a short loops run,
# a short recursion run (the nested-launch path end to end) and a short
# serve run (the service's one execution path), each of whose result
# lines must report correct outputs and no failed ops
PERFBENCH_SMOKE_CHECK = tail -n 1 .perfbench_smoke.out | $(PYTHON) -c "import json, sys; r = json.load(sys.stdin); \
	sys.exit(0 if r['correct'] is True and r['failed'] == 0 else 'perfbench-smoke: ' + json.dumps(r)[:400])"

perfbench-smoke:
	$(PYTHON) -m pytest -q perfbench/test_perfbench.py
	$(PYTHON) perfbench/run.py --workload loops --seed 1 --seconds 4 --trace 0 > .perfbench_smoke.out
	$(PERFBENCH_SMOKE_CHECK)
	$(PYTHON) perfbench/run.py --workload recursion --seed 1 --seconds 3 --trace 0 > .perfbench_smoke.out
	$(PERFBENCH_SMOKE_CHECK)
	$(PYTHON) perfbench/run.py --workload serve --seed 1 --seconds 3 --trace 0 > .perfbench_smoke.out
	$(PERFBENCH_SMOKE_CHECK)

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
# and a warm template="auto" run executes nothing: one memory hit each
# for select, plan and run, and the named run's result
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

# regenerate every paper artifact into results/
experiments:
	$(PYTHON) -m repro.bench all --scale 0.03 --out results/

examples:
	@for ex in examples/*.py; do \
		echo "=== $$ex"; $(PYTHON) $$ex || exit 1; \
	done

results: experiments

clean:
	rm -rf results .pytest_cache .benchmarks .perfbench_smoke.out \
		.perfbench_tmp
	find . -name __pycache__ -type d -exec rm -rf {} +
