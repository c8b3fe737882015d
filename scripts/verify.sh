#!/usr/bin/env bash
# Canonical hermetic verification: build, test, and document the whole
# workspace with the network disabled. Run from the repository root.
#
# The workspace has no external dependencies — a bare Rust toolchain and an
# empty registry cache are enough for every step below to succeed.
#
# Profiling artifacts (BENCH_*.json snapshots and per-loop trace
# directories) are left under target/bench/ so CI can upload them.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

bench_dir=target/bench
rm -rf "$bench_dir"
mkdir -p "$bench_dir"

echo "==> corpus determinism across thread counts (with --profile)"
t1_log=$(mktemp)
t4_log=$(mktemp)
doc_log=$(mktemp)
trap 'rm -f "$t1_log" "$t4_log" "$doc_log"' EXIT
cargo run --release --offline -q -p ims-bench --bin corpus -- \
    --loops 120 --threads 1 --profile "$bench_dir/BENCH_corpus_t1.json" \
    >"$t1_log" 2>/dev/null
cargo run --release --offline -q -p ims-bench --bin corpus -- \
    --loops 120 --threads 4 --profile "$bench_dir/BENCH_corpus_t4.json" \
    >"$t4_log" 2>/dev/null
if ! diff -q "$t1_log" "$t4_log" >/dev/null; then
    echo "FAIL: corpus output differs between --threads 1 and --threads 4" >&2
    diff "$t1_log" "$t4_log" | head >&2
    exit 1
fi
echo "    byte-identical at --threads 1 and --threads 4 (120 loops)"

echo "==> profile snapshot determinism and benchdiff gates"
# Deterministic sections must be identical across thread counts; the wall
# section is expected to differ and is excluded.
cargo run --release --offline -q -p ims-bench --bin benchdiff -- \
    "$bench_dir/BENCH_corpus_t1.json" "$bench_dir/BENCH_corpus_t4.json" \
    --strict-counters --no-wall
# A snapshot always passes a self-compare, wall section included.
cargo run --release --offline -q -p ims-bench --bin benchdiff -- \
    "$bench_dir/BENCH_corpus_t4.json" "$bench_dir/BENCH_corpus_t4.json"
# The perf-regression gate: deterministic work must match the committed
# baseline exactly; wall time gets generous headroom (different machines).
# This strict-counter compare against the pre-press baseline is also the
# zero-cost-when-disabled proof for register-pressure support: with no
# --pressure-limit, the default path must reproduce every baseline
# counter bit-for-bit.
cargo run --release --offline -q -p ims-bench --bin benchdiff -- \
    BENCH_baseline.json "$bench_dir/BENCH_corpus_t4.json" \
    --strict-counters --wall-threshold 25
cargo run --release --offline -q -p ims-bench --bin profile_report -- \
    "$bench_dir/BENCH_corpus_t4.json" >/dev/null
echo "    deterministic sections thread-invariant; baseline gate and report OK"

echo "==> optgap determinism across thread counts (with --profile/--trace)"
og1_log=$(mktemp)
og4_log=$(mktemp)
trap 'rm -f "$t1_log" "$t4_log" "$doc_log" "$og1_log" "$og4_log"' EXIT
cargo run --release --offline -q -p ims-bench --bin optgap -- \
    --loops 240 --threads 1 --profile "$bench_dir/BENCH_optgap_t1.json" \
    --trace "$bench_dir/trace_optgap_t1" >"$og1_log" 2>/dev/null
cargo run --release --offline -q -p ims-bench --bin optgap -- \
    --loops 240 --threads 4 --profile "$bench_dir/BENCH_optgap_t4.json" \
    --trace "$bench_dir/trace_optgap_t4" >"$og4_log" 2>/dev/null
if ! diff -q "$og1_log" "$og4_log" >/dev/null; then
    echo "FAIL: optgap output differs between --threads 1 and --threads 4" >&2
    diff "$og1_log" "$og4_log" | head >&2
    exit 1
fi
if ! diff -r -q "$bench_dir/trace_optgap_t1" "$bench_dir/trace_optgap_t4" >/dev/null; then
    echo "FAIL: optgap --trace output differs between --threads 1 and --threads 4" >&2
    diff -r "$bench_dir/trace_optgap_t1" "$bench_dir/trace_optgap_t4" | head >&2
    exit 1
fi
cargo run --release --offline -q -p ims-bench --bin benchdiff -- \
    "$bench_dir/BENCH_optgap_t1.json" "$bench_dir/BENCH_optgap_t4.json" \
    --strict-counters --no-wall
echo "    byte-identical at --threads 1 and --threads 4 (240 loops, exact + 4 budgets)"

echo "==> optgap --backend sat: determinism and cross-prover agreement"
sat1_log=$(mktemp)
sat4_log=$(mktemp)
trap 'rm -f "$t1_log" "$t4_log" "$doc_log" "$og1_log" "$og4_log" "$sat1_log" "$sat4_log"' EXIT
cargo run --release --offline -q -p ims-bench --bin optgap -- \
    --loops 240 --threads 1 --backend sat \
    --profile "$bench_dir/BENCH_optgap_sat_t1.json" \
    --trace "$bench_dir/trace_optgap_sat_t1" >"$sat1_log" 2>/dev/null
cargo run --release --offline -q -p ims-bench --bin optgap -- \
    --loops 240 --threads 4 --backend sat \
    --profile "$bench_dir/BENCH_optgap_sat_t4.json" >"$sat4_log" 2>/dev/null
if ! diff -q "$sat1_log" "$sat4_log" >/dev/null; then
    echo "FAIL: optgap --backend sat differs between --threads 1 and --threads 4" >&2
    diff "$sat1_log" "$sat4_log" | head >&2
    exit 1
fi
# The SAT prover and the branch-and-bound prover must agree loop-for-loop
# on proved bounds (neither hits a limit at these sizes): compare the
# per-loop exact_lb/exact_ub fields against the exact run above.
if ! diff -q <(grep -o '"exact_lb":[0-9-]*,"exact_ub":[0-9-]*' "$og1_log") \
            <(grep -o '"exact_lb":[0-9-]*,"exact_ub":[0-9-]*' "$sat1_log") >/dev/null; then
    echo "FAIL: SAT and branch-and-bound provers disagree on proved bounds" >&2
    exit 1
fi
# sat.* counters (conflicts, propagations, learned clauses, ...) are
# deterministic work: strict across thread counts.
cargo run --release --offline -q -p ims-bench --bin benchdiff -- \
    "$bench_dir/BENCH_optgap_sat_t1.json" "$bench_dir/BENCH_optgap_sat_t4.json" \
    --strict-counters --no-wall
echo "    byte-identical across thread counts; bounds agree with exact on all 240 loops"

echo "==> corpus --pressure-limit: determinism, fit coverage, press.* gates"
pl1_log=$(mktemp)
pl4_log=$(mktemp)
trap 'rm -f "$t1_log" "$t4_log" "$doc_log" "$og1_log" "$og4_log" "$sat1_log" "$sat4_log" "$pl1_log" "$pl4_log"' EXIT
cargo run --release --offline -q -p ims-bench --bin corpus -- \
    --loops 120 --threads 1 --pressure-limit 16 \
    --profile "$bench_dir/BENCH_press_t1.json" >"$pl1_log" 2>/dev/null
cargo run --release --offline -q -p ims-bench --bin corpus -- \
    --loops 120 --threads 4 --pressure-limit 16 \
    --profile "$bench_dir/BENCH_press_t4.json" >"$pl4_log" 2>/dev/null
if ! diff -q "$pl1_log" "$pl4_log" >/dev/null; then
    echo "FAIL: pressure-limited corpus output differs between --threads 1 and --threads 4" >&2
    diff "$pl1_log" "$pl4_log" | head >&2
    exit 1
fi
# Aggregate sanity: the verdict fields must cover the whole corpus and
# at least some loops must fit a 16-register file.
press_fit=$(grep -o '"press_fit":[0-9]*' "$pl1_log" | grep -o '[0-9]*$')
press_inf=$(grep -o '"press_infeasible":[0-9]*' "$pl1_log" | grep -o '[0-9]*$')
if [ -z "$press_fit" ] || [ "$press_fit" -lt 1 ] || [ "$((press_fit + press_inf))" -ne 120 ]; then
    echo "FAIL: pressure verdicts wrong: fit=$press_fit infeasible=$press_inf over 120 loops" >&2
    exit 1
fi
# press.* counters (maxlive updates, rejects, II bumps) are deterministic
# work: strict across thread counts.
cargo run --release --offline -q -p ims-bench --bin benchdiff -- \
    "$bench_dir/BENCH_press_t1.json" "$bench_dir/BENCH_press_t4.json" \
    --strict-counters --no-wall
echo "    byte-identical at --threads 1 and --threads 4 ($press_fit fit, $press_inf infeasible at 16 registers)"

echo "==> trace determinism across thread counts"
tr1_dir="$bench_dir/trace_corpus_t1"
tr4_dir="$bench_dir/trace_corpus_t4"
cargo run --release --offline -q -p ims-bench --bin corpus -- \
    --loops 60 --threads 1 --trace "$tr1_dir" >/dev/null 2>/dev/null
cargo run --release --offline -q -p ims-bench --bin corpus -- \
    --loops 60 --threads 4 --trace "$tr4_dir" >/dev/null 2>/dev/null
if ! diff -r -q "$tr1_dir" "$tr4_dir" >/dev/null; then
    echo "FAIL: --trace output differs between --threads 1 and --threads 4" >&2
    diff -r "$tr1_dir" "$tr4_dir" | head >&2
    exit 1
fi
n_traces=$(ls "$tr1_dir" | wc -l)
echo "    $n_traces per-loop traces byte-identical at --threads 1 and --threads 4"
cargo run --release --offline -q -p ims-bench --bin trace_report -- \
    "$tr1_dir" --top 3 >"$bench_dir/trace_report.txt"
echo "    trace_report renders the trace directory"

echo "==> explain: II attribution determinism + exact-match accounting"
ex1_log=$(mktemp)
ex4_log=$(mktemp)
exr_log=$(mktemp)
trap 'rm -f "$t1_log" "$t4_log" "$doc_log" "$og1_log" "$og4_log" "$sat1_log" "$sat4_log" "$ex1_log" "$ex4_log" "$exr_log"' EXIT
ex_traces="$bench_dir/explain_traces"
# The driver itself asserts, per loop, that mined trace totals equal the
# scheduler's counters (exit 1 otherwise), so a clean run IS the
# accounting gate. --trace also writes every event stream for the replay
# leg below.
cargo run --release --offline -q -p ims-bench --bin explain -- \
    --threads 1 --trace "$ex_traces" \
    --profile "$bench_dir/BENCH_explain_t1.json" >"$ex1_log" 2>/dev/null
cargo run --release --offline -q -p ims-bench --bin explain -- \
    --threads 4 \
    --profile "$bench_dir/BENCH_explain_t4.json" >"$ex4_log" 2>/dev/null
if ! diff -q "$ex1_log" "$ex4_log" >/dev/null; then
    echo "FAIL: explain output differs between --threads 1 and --threads 4" >&2
    diff "$ex1_log" "$ex4_log" | head >&2
    exit 1
fi
# Re-analyzing the written traces must reproduce the in-process bytes:
# the JSONL trace encoding is lossless and the analyzer is one code path.
cargo run --release --offline -q -p ims-bench --bin explain -- \
    --threads 4 --from-trace "$ex_traces" >"$exr_log" 2>/dev/null
if ! diff -q "$ex1_log" "$exr_log" >/dev/null; then
    echo "FAIL: --from-trace analysis differs from the in-process run" >&2
    diff "$ex1_log" "$exr_log" | head >&2
    exit 1
fi
# explain.* counters (bound tallies, gap loops, wasted steps) are
# deterministic work: strict across thread counts.
cargo run --release --offline -q -p ims-bench --bin benchdiff -- \
    "$bench_dir/BENCH_explain_t1.json" "$bench_dir/BENCH_explain_t4.json" \
    --strict-counters --no-wall
# Leave the top-K digest under target/bench/ for CI upload.
cp "$ex1_log" "$bench_dir/explain_report.txt"
n_exp=$(grep -c '"loop":"' "$ex1_log")
echo "    $n_exp loops attributed; bytes identical across thread counts and via --from-trace replay"

echo "==> scheduled service: replay + cache determinism across thread counts"
reqs="$bench_dir/serve_requests.jsonl"
doubled="$bench_dir/serve_requests_x2.jsonl"
sv1_log=$(mktemp)
sv4_log=$(mktemp)
trap 'rm -f "$t1_log" "$t4_log" "$doc_log" "$og1_log" "$og4_log" "$sat1_log" "$sat4_log" "$ex1_log" "$ex4_log" "$exr_log" "$sv1_log" "$sv4_log"' EXIT
cargo run --release --offline -q -p ims-serve --bin scheduled -- \
    --gen-requests 40 --seed 7 >"$reqs"
cat "$reqs" "$reqs" >"$doubled"
cargo run --release --offline -q -p ims-serve --bin scheduled -- \
    --threads 1 --requests "$doubled" \
    --profile "$bench_dir/BENCH_serve_t1.json" >"$sv1_log" 2>/dev/null
cargo run --release --offline -q -p ims-serve --bin scheduled -- \
    --threads 4 --requests "$doubled" \
    --profile "$bench_dir/BENCH_serve_t4.json" >"$sv4_log" 2>/dev/null
if ! diff -q "$sv1_log" "$sv4_log" >/dev/null; then
    echo "FAIL: scheduled output differs between --threads 1 and --threads 4" >&2
    diff "$sv1_log" "$sv4_log" | head >&2
    exit 1
fi
# The file was replayed twice: the two response halves must be identical
# bytes (a warm cache is indistinguishable from a cold one)...
n_half=$(wc -l <"$reqs")
if ! diff -q <(head -n "$n_half" "$sv1_log") <(tail -n "$n_half" "$sv1_log") >/dev/null; then
    echo "FAIL: cold and warm response halves differ" >&2
    exit 1
fi
# ...and the second pass must be fully cache-served: at most one miss per
# distinct canonical problem, everything else a hit.
misses=$(grep -o '"serve\.cache\.misses": [0-9]*' "$bench_dir/BENCH_serve_t1.json" | grep -o '[0-9]*$')
hits=$(grep -o '"serve\.cache\.hits": [0-9]*' "$bench_dir/BENCH_serve_t1.json" | grep -o '[0-9]*$')
if [ "$misses" -gt "$n_half" ] || [ "$((hits + misses))" -ne "$((2 * n_half))" ]; then
    echo "FAIL: cache counters wrong: hits=$hits misses=$misses over $((2 * n_half)) requests" >&2
    exit 1
fi
# Hit/miss tallies are deterministic too: thread counts must agree.
cargo run --release --offline -q -p ims-bench --bin benchdiff -- \
    "$bench_dir/BENCH_serve_t1.json" "$bench_dir/BENCH_serve_t4.json" \
    --strict-counters --no-wall
echo "    $((2 * n_half)) responses byte-identical across thread counts; second pass fully cached ($hits hits, $misses misses)"

echo "==> scheduled service: portfolio(ims,exact) race determinism"
preqs="$bench_dir/serve_portfolio.jsonl"
pdoubled="$bench_dir/serve_portfolio_x2.jsonl"
pf1_log=$(mktemp)
pf4_log=$(mktemp)
trap 'rm -f "$t1_log" "$t4_log" "$doc_log" "$og1_log" "$og4_log" "$sat1_log" "$sat4_log" "$pl1_log" "$pl4_log" "$ex1_log" "$ex4_log" "$exr_log" "$sv1_log" "$sv4_log" "$pf1_log" "$pf4_log"' EXIT
cargo run --release --offline -q -p ims-serve --bin scheduled -- \
    --gen-requests 30 --seed 11 --backend "portfolio(ims,exact)" >"$preqs"
cat "$preqs" "$preqs" >"$pdoubled"
cargo run --release --offline -q -p ims-serve --bin scheduled -- \
    --threads 1 --requests "$pdoubled" >"$pf1_log" 2>/dev/null
cargo run --release --offline -q -p ims-serve --bin scheduled -- \
    --threads 4 --requests "$pdoubled" >"$pf4_log" 2>/dev/null
# The race winner (lowest II, member order breaking ties) must be a pure
# function of the request: byte-identical responses at any thread count,
# and the cache-warm second half identical to the cold first half.
if ! diff -q "$pf1_log" "$pf4_log" >/dev/null; then
    echo "FAIL: portfolio responses differ between --threads 1 and --threads 4" >&2
    diff "$pf1_log" "$pf4_log" | head >&2
    exit 1
fi
pn_half=$(wc -l <"$preqs")
if ! diff -q <(head -n "$pn_half" "$pf1_log") <(tail -n "$pn_half" "$pf1_log") >/dev/null; then
    echo "FAIL: portfolio cold and warm response halves differ" >&2
    exit 1
fi
echo "    $((2 * pn_half)) portfolio responses byte-identical across thread counts, cache hot or cold"

echo "==> golden gate: every deterministic artifact matches scripts/golden.sha256"
# The gates above compare runs against each other; this one pins their
# bytes. The logs and snapshots written above are reused; only the
# corpus runs of the two provers and the malformed-request replay are
# new.
for b in exact sat; do
    cargo run --release --offline -q -p ims-bench --bin corpus -- \
        --loops 120 --threads 4 --backend "$b" \
        --profile "$bench_dir/BENCH_corpus_$b.json" >"$bench_dir/corpus_$b.jsonl" 2>/dev/null
done
# Malformed and edge-case request lines: each must get exactly the
# response bytes it got before (error strings reach the wire), and the
# neighbouring good request and stats probe must still be answered.
cargo run --release --offline -q -p ims-serve --bin scheduled -- \
    --threads 2 >"$bench_dir/scheduled_malformed.jsonl" 2>/dev/null <<'EOF'
not json
{"id":"trail","machine":"minimal","ops":["add"]} x
{"id":"esc\q","machine":"minimal","ops":["add"]}
{"id":"plus","machine":"minimal","max_ii":+2,"ops":["add"]}
{"id":"dup1","machine":"minimal","id":"dup2","ops":["add"],"ops":["mul"]}
{"id":"big","machine":"minimal","max_ii":1e17,"ops":["add"]}
{"id":"bigint","machine":"minimal","max_ii":100000000000000000,"ops":["add"]}
{"id":"negzero","machine":"minimal","budget_ratio":-0,"ops":["add"]}
{"id":"types","machine":"minimal","ops":"add"}
{"id":"types2","machine":7,"ops":["add"]}
{"id":"types3","machine":"minimal","ops":["add","add"],"edges":[[0,1,1.5,0,"flow",false]]}
{"id":"opcode","machine":"minimal","ops":["frobnicate"]}
{"id":"ctl\u0007é\ud83d","machine":"minimal","ops":["add"],"node_limit":2.0}
{"id":"probe","stats":true}
{"id":"good","machine":"minimal","ops":["add","mul"],"edges":[[0,1,1,0,"flow",false]]}
EOF
# The snapshot's "deterministic" object, without the wall section.
det() { awk '/^  "deterministic": \{/{p=1} p{print} p&&/^  \}/{exit}' "$1"; }
# sha256 of stdin, and of a directory tree (relative names + contents).
sum() { sha256sum | cut -d' ' -f1; }
tree_sum() { (cd "$1" && find . -type f | LC_ALL=C sort | xargs sha256sum) | sum; }
golden="$bench_dir/golden.sha256"
{
    echo "$(sum <"$t1_log")  corpus.stdout"
    echo "$(det "$bench_dir/BENCH_corpus_t1.json" | sum)  corpus.profile"
    for b in exact sat; do
        echo "$(sum <"$bench_dir/corpus_$b.jsonl")  corpus_$b.stdout"
        echo "$(det "$bench_dir/BENCH_corpus_$b.json" | sum)  corpus_$b.profile"
    done
    echo "$(sum <"$pl1_log")  corpus_press16.stdout"
    echo "$(det "$bench_dir/BENCH_press_t1.json" | sum)  corpus_press16.profile"
    echo "$(tree_sum "$tr1_dir")  corpus.trace"
    echo "$(sum <"$og1_log")  optgap_exact.stdout"
    echo "$(tree_sum "$bench_dir/trace_optgap_t1")  optgap_exact.trace"
    echo "$(det "$bench_dir/BENCH_optgap_t1.json" | sum)  optgap_exact.profile"
    echo "$(sum <"$sat1_log")  optgap_sat.stdout"
    echo "$(tree_sum "$bench_dir/trace_optgap_sat_t1")  optgap_sat.trace"
    echo "$(det "$bench_dir/BENCH_optgap_sat_t1.json" | sum)  optgap_sat.profile"
    echo "$(sum <"$ex1_log")  explain.stdout"
    echo "$(sum <"$sv1_log")  scheduled.stdout"
    echo "$(sum <"$pf1_log")  scheduled_portfolio.stdout"
    echo "$(sum <"$bench_dir/scheduled_malformed.jsonl")  scheduled_malformed.stdout"
    echo "$(sum <"$bench_dir/trace_report.txt")  trace_report.stdout"
} >"$golden"
if ! diff -u scripts/golden.sha256 "$golden" >&2; then
    echo "FAIL: deterministic artifacts differ from scripts/golden.sha256" >&2
    exit 1
fi
echo "    $(wc -l <"$golden") artifacts byte-identical to the committed checksums"

echo "==> cargo doc --no-deps --offline (warnings are errors)"
cargo doc --no-deps --offline --workspace 2>&1 | tee "$doc_log"
if grep -q "^warning" "$doc_log"; then
    echo "FAIL: rustdoc emitted warnings" >&2
    exit 1
fi

echo "OK: build, tests, determinism, cross-prover agreement, profiling gates, pressure gates, II attribution, service cache, portfolio racing, and docs all clean offline"
