#!/usr/bin/env bash
# Runs the gate benchmarks for the CI bench-diff job and writes the raw
# `go test -bench` output to the given file. The job copies this script
# to /tmp before checking out the merge-base, so head and base run the
# exact same harness even when the script itself changed in the PR.
#
#   scripts/bench.sh /tmp/bench-head.txt
#
# BENCH_COUNT (default 6) controls the sample count benchstat and
# cmd/benchdiff aggregate over; BENCH_TIME (default 300ms) the per-run
# benchtime.
set -euo pipefail

out="${1:?usage: bench.sh <output-file>}"
count="${BENCH_COUNT:-6}"
benchtime="${BENCH_TIME:-300ms}"

# The gate set: the branch-heavy search (sequential and parallel), the
# incremental stability sessions (PR 5), the Solver-session
# amortization, the assumption-based SAT solving primitive, the store
# branching primitive, the adversarial join-order body pinning the
# PR 6 planner, and the PR 9 packed-store levers — the 10⁶-fact bulk
# load (AddAll vs per-fact Add) and point probes against that base.
# SolverQueryDB pins that a compiled Solver's query over a large
# database costs what the query costs, not what the database does.
# HomDeltaLayered pins the id join kernel in the regime that dominates
# the search: cached delta joins of a 9-atom body over a depth-16
# snapshot chain. GroundBulkLP pins the LP write path: one-pass
# grounding of bulkdb's LP rules over a database of its shape.
# DatabaseVersion pins a whole write: both bulkdb solvers compiled
# against a frozen Database of that shape, and their first reads.
# Experiments/E8 runs the Section 5.3 2-QBF∃ encoding through the SO
# search and fails on a wrong verdict: refutations of that shape are
# where the perfbench search workload spends most of its time.
# Names must stay unique across packages — cmd/benchdiff and benchstat
# aggregate on the bare benchmark name.
pattern='StableSearchChoiceWide|ParallelSearch|StabilitySession|SolveAssumptions|SolverReuse|SolverQueryDB|StoreBranch|JoinOrderAdversarial|HomDeltaLayered|BulkLoad|StoreProbe|GroundBulkLP|DatabaseVersion'

go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -count "$count" \
  ./ ./internal/core/ ./internal/logic/ ./internal/sat/ ./internal/ground/ | tee "$out"
# A '/' in the shared pattern would apply per sub-benchmark level and
# drop the other benchmarks' sub-benchmarks, so E8 gets its own run.
go test -run '^$' -bench 'Experiments/E8$' -benchtime "$benchtime" -count "$count" \
  ./cmd/smsbench/ | tee -a "$out"
