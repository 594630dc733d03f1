"""Benchmark for qdiscrim: seeded closed-loop workloads with answer checks.

Run `python3 perfbench/run.py --help` from the repository root.

Each workload module (pe_sweep, perfect_decide, oracle_crosscheck,
cli_cold) provides NAME; CYCLE, the input mix that repeats; the fixed
TAIL_PERCENTILE; DIGEST_OPS and WARMUP_OPS; make_op(seed, index), which
depends only on its arguments; run(op), the timed call into qdiscrim;
encode(answer), exact bytes for digests and traced-versus-untraced
comparison; check(op, answer), which returns a failure reason or None;
and expected_spans(op). Optional: prepare(op, workdir) for inputs that
live in files, run_inprocess(op) for the traced run, answer_tags(answer)
for mix counts that depend on the answer, and known_defect(op, answer)
with KNOWN_DEFECTS for seed bugs that stay in the corpus.
"""
