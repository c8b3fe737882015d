#!/usr/bin/env bash
# Canonical hermetic verification: build, test, lint, and document the whole
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

echo "==> cargo clippy --offline (warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

# The packages that are rustfmt-clean must stay so; the rest of the
# workspace still carries formatting debt (ROADMAP.md).
echo "==> cargo fmt --check on the rustfmt-clean packages"
cargo fmt --check -p ims -p ims-testkit -p ims-sat -p ims-exact -p ims-press \
    -p ims-prof -p ims-codegen -p ims-explain -p ims-serve -p ims-trace -p ims-bench \
    -p ims-vliw -p ims-deps -p ims-core -p ims-machine -p ims-benchmark \
    -p ims-ir -p ims-loopgen -p ims-graph

bench_dir=target/bench
rm -rf "$bench_dir"
mkdir -p "$bench_dir"
# Scratch logs live in one temp directory, removed however the script ends.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# The snapshot's "deterministic" object, without the wall section.
det() { awk '/^  "deterministic": \{/{p=1} p{print} p&&/^  \}/{exit}' "$1"; }
# Fails unless two profile snapshots have the same non-empty deterministic
# section, byte for byte: counters and every histogram field.
# Their wall sections are expected to differ and are not compared.
same_det() {
    if [ -n "$(det "$1")" ] && cmp -s <(det "$1") <(det "$2"); then
        return
    fi
    echo "FAIL: deterministic sections of $1 and $2 differ or are missing" >&2
    diff <(det "$1") <(det "$2") | head -n 20 >&2
    exit 1
}

echo "==> corpus determinism across thread counts (with --profile)"
t1_log="$tmp/t1.log"
t4_log="$tmp/t4.log"
doc_log="$tmp/doc.log"
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

echo "==> profile snapshot determinism"
same_det "$bench_dir/BENCH_corpus_t1.json" "$bench_dir/BENCH_corpus_t4.json"
cargo run --release --offline -q -p ims-bench --bin profile_report -- \
    "$bench_dir/BENCH_corpus_t4.json" >/dev/null
echo "    deterministic sections thread-invariant; profile_report renders the snapshot"

echo "==> optgap determinism across thread counts (with --profile/--trace)"
og1_log="$tmp/og1.log"
og4_log="$tmp/og4.log"
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
same_det "$bench_dir/BENCH_optgap_t1.json" "$bench_dir/BENCH_optgap_t4.json"
echo "    byte-identical at --threads 1 and --threads 4 (240 loops, exact + 4 budgets)"

echo "==> optgap --backend sat: determinism and cross-prover agreement"
sat1_log="$tmp/sat1.log"
sat4_log="$tmp/sat4.log"
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
# deterministic work: byte-identical across thread counts.
same_det "$bench_dir/BENCH_optgap_sat_t1.json" "$bench_dir/BENCH_optgap_sat_t4.json"
echo "    byte-identical across thread counts; bounds agree with exact on all 240 loops"

echo "==> corpus --pressure-limit: determinism, fit coverage, press.* gates"
pl1_log="$tmp/pl1.log"
pl4_log="$tmp/pl4.log"
# The per-loop traces pin every step's slot search, placement and eviction
# under a register limit. They hold about 43 MB a directory, so they stay
# in $tmp rather than in the uploaded $bench_dir.
pl1_dir="$tmp/trace_press_t1"
pl4_dir="$tmp/trace_press_t4"
cargo run --release --offline -q -p ims-bench --bin corpus -- \
    --loops 120 --threads 1 --pressure-limit 16 --trace "$pl1_dir" \
    --profile "$bench_dir/BENCH_press_t1.json" >"$pl1_log" 2>/dev/null
cargo run --release --offline -q -p ims-bench --bin corpus -- \
    --loops 120 --threads 4 --pressure-limit 16 --trace "$pl4_dir" \
    --profile "$bench_dir/BENCH_press_t4.json" >"$pl4_log" 2>/dev/null
if ! diff -q "$pl1_log" "$pl4_log" >/dev/null; then
    echo "FAIL: pressure-limited corpus output differs between --threads 1 and --threads 4" >&2
    diff "$pl1_log" "$pl4_log" | head >&2
    exit 1
fi
if ! diff -r -q "$pl1_dir" "$pl4_dir" >/dev/null; then
    echo "FAIL: pressure-limited --trace output differs between --threads 1 and --threads 4" >&2
    diff -r -q "$pl1_dir" "$pl4_dir" | head >&2
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
# work: byte-identical across thread counts.
same_det "$bench_dir/BENCH_press_t1.json" "$bench_dir/BENCH_press_t4.json"
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

echo "==> explain: II attribution determinism + trace replay"
ex1_log="$tmp/ex1.log"
ex4_log="$tmp/ex4.log"
exr_log="$tmp/exr.log"
ex_traces="$bench_dir/explain_traces"
# Gates thread determinism of the report, the --from-trace replay of the
# event streams --trace writes, and the deterministic profile sections.
# Mined totals and counters fold the same events, so they need no check.
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
# deterministic work: byte-identical across thread counts.
same_det "$bench_dir/BENCH_explain_t1.json" "$bench_dir/BENCH_explain_t4.json"
# Leave the top-K digest under target/bench/ for CI upload.
cp "$ex1_log" "$bench_dir/explain_report.txt"
n_exp=$(grep -c '"loop":"' "$ex1_log")
echo "    $n_exp loops attributed; bytes identical across thread counts and via --from-trace replay"

echo "==> scheduled service: replay + cache determinism across thread counts"
reqs="$bench_dir/serve_requests.jsonl"
doubled="$bench_dir/serve_requests_x2.jsonl"
sv1_log="$tmp/sv1.log"
sv4_log="$tmp/sv4.log"
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
same_det "$bench_dir/BENCH_serve_t1.json" "$bench_dir/BENCH_serve_t4.json"
echo "    $((2 * n_half)) responses byte-identical across thread counts; second pass fully cached ($hits hits, $misses misses)"

echo "==> scheduled service: portfolio(ims,exact) race determinism"
preqs="$bench_dir/serve_portfolio.jsonl"
pdoubled="$bench_dir/serve_portfolio_x2.jsonl"
pf1_log="$tmp/pf1.log"
pf4_log="$tmp/pf4.log"
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
# corpus runs of the two provers and the service replays below are new.
for b in exact sat; do
    cargo run --release --offline -q -p ims-bench --bin corpus -- \
        --loops 120 --threads 4 --backend "$b" \
        --profile "$bench_dir/BENCH_corpus_$b.json" >"$bench_dir/corpus_$b.jsonl" 2>/dev/null
done
# The SAT member of the serve-portfolio benchmark: every corpus loop at
# budget ratio 2. Its stdout and the sat.* counters of its profile pin
# the solver's search: every decision, propagation and model.
cargo run --release --offline -q -p ims-bench --bin corpus -- \
    --loops 1327 --budget 2 --backend sat --threads 4 \
    --profile "$bench_dir/BENCH_corpus_sat_b2.json" \
    >"$bench_dir/corpus_sat_b2.jsonl" 2>/dev/null
# Two paper-artifact binaries no other line reaches: unroll_comparison
# unrolls 300 corpus loops (ims_deps::unroll) at five factors, and
# registers runs the rotating allocator, with each register's deepest
# read lag, on all 1327.
for b in unroll_comparison registers; do
    cargo run --release --offline -q -p ims-bench --bin "$b" >"$bench_dir/$b.txt" 2>/dev/null
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
# Lines with more than one fault, or whose fields are read out of order:
# non-object documents, duplicate fields (the last one wins), edges
# before a later ops, containers where a scalar is due, a stats probe
# whose other fields are bad, and an error after a complete object. Each
# reply pins which fault is reported and which id is echoed.
cargo run --release --offline -q -p ims-serve --bin scheduled -- \
    --threads 2 >"$bench_dir/scheduled_precedence.jsonl" 2>/dev/null <<'EOF'
[1,2]
"s"
{"id":"a","ops":["frobnicate"],"machine":"pdp11"}
{"id":"a","machine":"minimal","ops":["frobnicate"],"ops":["add"]}
{"id":"a","machine":"minimal","ops":["add"],"ops":"add"}
{"edges":[[0,1,1,0,"flow",false]],"id":"a","machine":"minimal","ops":["add","mul"],"ops":["add"]}
{"id":"a","machine":"minimal","ops":["add"],"edges":[[0,0,1,0,"flow"],[5,0,1,0,"flow",false]]}
{"id":"a","machine":["minimal"],"ops":["add"]}
{"id":7,"machine":"pdp11","ops":["add"]}
{"id":"p","stats":true,"ops":"junk","machine":7}
{"id":"q","stats":true,"stats":false,"machine":"minimal","ops":["add"]}
{"id":["p"],"stats":true}
{"id":"a","machine":"minimal","ops":["add",["mul"]]}
{"id":"a","machine":"minimal","ops":["add"],"edges":[[0,0,[1],0,"flow",false]]}
{"id":"a","machine":"minimal","ops":["add"],"edges":null}
{"id":"a","machine":"minimal","max_ii":{"n":1},"ops":["add"]}
{"id":"a","ops":["frobnicate"]} x
{"id":"a","machine":"minimal","ops":["add"],"edges":[[0,0,1,0,"flow",false]],"id":"b","backend":"magic"}
EOF
# Valid request lines in shapes the generator never writes: keys out of
# order, unknown and nested fields, escaped keys and ids, float and
# integral-float numbers, null caps, whitespace between tokens (a tab
# included), a duplicate key and a stats probe with extra fields. Each
# must keep the reply it gets from the tree parser.
cargo run --release --offline -q -p ims-serve --bin scheduled -- \
    --threads 2 >"$bench_dir/scheduled_wire.jsonl" 2>/dev/null <<'EOF'
{"ops":["add","mul"],"edges":[[0,1,1,0,"flow",false]],"backend":"ims","machine":"minimal","id":"order"}
{"id":"extra-π","note":{"a":[1,{"b":null}],"c":"x\"y"},"machine":"minimal","tags":[[],{},true,-0.5e3],"ops":["add","mul"],"edges":[[1,0,2,1,"anti",true]],"zz":null}
{"\u0069d":"esc\"id\\é\/\t","m\u0061chine":"minimal","ops":["add"]}
{"id":"nums","machine":"cydra","budget_ratio":2.5,"max_ii":40.0,"node_limit":null,"pressure_limit":null,"ops":["load","add","store"],"edges":[[0,1,13,0,"flow",false],[1,2,1,0,"flow",false]]}
{"id":"ints","machine":"cydra","budget_ratio":3,"max_ii":1e2,"ops":["load","add","store"],"edges":[[0,1,13.0,-0,"flow",false],[1,2,1,0,"output",false],[2,0,-4,2,"control",true]]}
 { "id" : "ws" ,	"machine" : "minimal" , "ops" : [ "add" , "mul" ] , "edges" : [ [ 0 , 1 , 1 , 0 , "flow" , false ] ] }
{"id":"dupA","machine":"minimal","ops":["add"],"ops":["add","mul"],"id":"dupB"}
{"id":"probe","ops":["add"],"stats":true,"extra":{"k":[1,2]}}
{"id":"race","machine":"minimal","backend":" portfolio( exact , ims ) ","node_limit":500,"ops":["add","mul"],"edges":[[0,1,1,0,"flow",false]]}
{"id":"press","machine":"cydra_rf16","pressure_limit":16.0,"ops":["load","add"],"edges":[[0,1,13,0,"flow",false]]}
EOF
# Same-iteration (distance-0) dependence cycles, between good requests:
# two adds, a zero-delay self-edge, and a unit-delay self-edge under ims,
# a portfolio and a pressure limit. Each is refused with one structured
# error before any backend runs.
cargo run --release --offline -q -p ims-serve --bin scheduled -- \
    --threads 2 >"$bench_dir/scheduled_cycles.jsonl" 2>/dev/null <<'EOF'
{"id":"ok","machine":"minimal","ops":["add"]}
{"id":"c0","machine":"cydra","ops":["add","add"],"edges":[[0,1,0,0,"flow",false],[1,0,0,0,"flow",false]]}
{"id":"c3","machine":"cydra","ops":["add"],"edges":[[0,0,0,0,"flow",false]]}
{"id":"z","machine":"minimal","ops":["add"],"edges":[[0,0,1,0,"flow",false]]}
{"id":"zp","machine":"minimal","backend":"portfolio(ims,sat)","ops":["add"],"edges":[[0,0,1,0,"flow",false]]}
{"id":"zr","machine":"cydra_rf16","pressure_limit":16,"ops":["add"],"edges":[[0,0,1,0,"flow",false]]}
{"id":"good","machine":"minimal","ops":["add","mul"],"edges":[[0,1,1,0,"flow",false]]}
EOF
# Graph shapes the corpus never sends to the canonicalizer: delays at the
# wire's ±9·10¹⁵ limit, distance 4294967295, self-loops, parallel edges
# between one pair, two renumberings of one graph (one key), a ring of
# three linked add→mul pairs, seven unconnected adds (5,040 leaves) and
# an II-cap error, whose reply still carries its key.
cargo run --release --offline -q -p ims-serve --bin scheduled -- \
    --threads 2 >"$bench_dir/scheduled_canon.jsonl" 2>/dev/null <<'EOF'
{"id":"dmax","machine":"minimal","ops":["add","mul"],"edges":[[0,1,9000000000000000,0,"flow",false],[1,0,-9000000000000000,1,"anti",true]]}
{"id":"dmin","machine":"cydra","ops":["load","store","load"],"edges":[[1,0,-9000000000000000,1,"anti",true],[0,1,13,0,"flow",false],[1,2,-9000000000000000,2,"anti",true]]}
{"id":"dist","machine":"minimal","ops":["add","mul"],"edges":[[0,0,1,4294967295,"flow",false],[0,1,1,0,"flow",false],[1,1,2,4294967295,"output",false]]}
{"id":"loops","machine":"cydra","ops":["add","add","mul"],"edges":[[0,0,1,1,"flow",false],[1,1,1,1,"flow",false],[2,2,3,2,"flow",false],[0,2,1,0,"flow",false]]}
{"id":"par","machine":"cydra","ops":["load","add"],"edges":[[0,1,13,0,"flow",false],[0,1,13,0,"flow",false],[0,1,1,0,"anti",false],[0,1,13,1,"flow",true],[1,0,-1,1,"anti",false]]}
{"id":"copyA","machine":"cydra","ops":["load","add","mul","store"],"edges":[[0,1,13,0,"flow",false],[0,2,13,0,"flow",false],[1,3,1,0,"flow",false],[2,3,2,0,"flow",false],[3,0,1,1,"anti",true]]}
{"id":"copyB","machine":"cydra","ops":["store","mul","add","load"],"edges":[[0,3,1,1,"anti",true],[1,0,2,0,"flow",false],[3,1,13,0,"flow",false],[2,0,1,0,"flow",false],[3,2,13,0,"flow",false]]}
{"id":"ring","machine":"cydra","ops":["mul","add","mul","add","add","mul"],"edges":[[1,0,1,0,"flow",false],[0,3,2,1,"flow",false],[3,2,1,0,"flow",false],[2,4,2,1,"flow",false],[4,5,1,0,"flow",false],[5,1,2,1,"flow",false]]}
{"id":"adds7","machine":"cydra","ops":["add","add","add","add","add","add","add"]}
{"id":"cap","machine":"minimal","max_ii":1,"ops":["add","add","add"]}
EOF
# The portfolio(ims,sat) requests of the serve-portfolio benchmark, and
# the provers behind the service on request loop-00004 of that set: ims
# alone answers II 5 and both provers II 4; a one-node exact budget falls
# back to the ims schedule; and a portfolio whose every member fails
# answers with its first member's error.
psreqs="$bench_dir/serve_portfolio_sat.jsonl"
cargo run --release --offline -q -p ims-serve --bin scheduled -- \
    --gen-requests 30 --seed 11 --backend "portfolio(ims,sat)" >"$psreqs"
cargo run --release --offline -q -p ims-serve --bin scheduled -- \
    --threads 1 --requests "$psreqs" >"$bench_dir/scheduled_portfolio_sat.jsonl" 2>/dev/null
cargo run --release --offline -q -p ims-serve --bin scheduled -- \
    --threads 2 >"$bench_dir/scheduled_provers.jsonl" 2>/dev/null <<'EOF'
{"id":"l4-ims","machine":"cydra","backend":"ims","ops":["load","load","load","load","mul","add","mul","add","mul","add","store","aadd","aadd","aadd","aadd","aadd"],"edges":[[12,0,3,1,"flow",false],[13,1,3,1,"flow",false],[14,2,3,1,"flow",false],[15,3,3,1,"flow",false],[3,4,20,0,"flow",false],[2,5,20,0,"flow",false],[4,5,5,0,"flow",false],[5,6,4,0,"flow",false],[0,7,20,0,"flow",false],[6,7,5,0,"flow",false],[1,8,20,0,"flow",false],[7,9,4,0,"flow",false],[8,9,5,0,"flow",false],[11,10,3,1,"flow",false],[9,10,4,0,"flow",false],[11,11,3,3,"flow",false],[12,12,3,3,"flow",false],[13,13,3,3,"flow",false],[14,14,3,3,"flow",false],[15,15,3,3,"flow",false]]}
{"id":"l4-exact","machine":"cydra","backend":"exact","ops":["load","load","load","load","mul","add","mul","add","mul","add","store","aadd","aadd","aadd","aadd","aadd"],"edges":[[12,0,3,1,"flow",false],[13,1,3,1,"flow",false],[14,2,3,1,"flow",false],[15,3,3,1,"flow",false],[3,4,20,0,"flow",false],[2,5,20,0,"flow",false],[4,5,5,0,"flow",false],[5,6,4,0,"flow",false],[0,7,20,0,"flow",false],[6,7,5,0,"flow",false],[1,8,20,0,"flow",false],[7,9,4,0,"flow",false],[8,9,5,0,"flow",false],[11,10,3,1,"flow",false],[9,10,4,0,"flow",false],[11,11,3,3,"flow",false],[12,12,3,3,"flow",false],[13,13,3,3,"flow",false],[14,14,3,3,"flow",false],[15,15,3,3,"flow",false]]}
{"id":"l4-exact-n1","machine":"cydra","backend":"exact","node_limit":1,"ops":["load","load","load","load","mul","add","mul","add","mul","add","store","aadd","aadd","aadd","aadd","aadd"],"edges":[[12,0,3,1,"flow",false],[13,1,3,1,"flow",false],[14,2,3,1,"flow",false],[15,3,3,1,"flow",false],[3,4,20,0,"flow",false],[2,5,20,0,"flow",false],[4,5,5,0,"flow",false],[5,6,4,0,"flow",false],[0,7,20,0,"flow",false],[6,7,5,0,"flow",false],[1,8,20,0,"flow",false],[7,9,4,0,"flow",false],[8,9,5,0,"flow",false],[11,10,3,1,"flow",false],[9,10,4,0,"flow",false],[11,11,3,3,"flow",false],[12,12,3,3,"flow",false],[13,13,3,3,"flow",false],[14,14,3,3,"flow",false],[15,15,3,3,"flow",false]]}
{"id":"l4-sat","machine":"cydra","backend":"sat","ops":["load","load","load","load","mul","add","mul","add","mul","add","store","aadd","aadd","aadd","aadd","aadd"],"edges":[[12,0,3,1,"flow",false],[13,1,3,1,"flow",false],[14,2,3,1,"flow",false],[15,3,3,1,"flow",false],[3,4,20,0,"flow",false],[2,5,20,0,"flow",false],[4,5,5,0,"flow",false],[5,6,4,0,"flow",false],[0,7,20,0,"flow",false],[6,7,5,0,"flow",false],[1,8,20,0,"flow",false],[7,9,4,0,"flow",false],[8,9,5,0,"flow",false],[11,10,3,1,"flow",false],[9,10,4,0,"flow",false],[11,11,3,3,"flow",false],[12,12,3,3,"flow",false],[13,13,3,3,"flow",false],[14,14,3,3,"flow",false],[15,15,3,3,"flow",false]]}
{"id":"l4-cap","machine":"cydra","backend":"portfolio(exact,ims)","max_ii":3,"ops":["load","load","load","load","mul","add","mul","add","mul","add","store","aadd","aadd","aadd","aadd","aadd"],"edges":[[12,0,3,1,"flow",false],[13,1,3,1,"flow",false],[14,2,3,1,"flow",false],[15,3,3,1,"flow",false],[3,4,20,0,"flow",false],[2,5,20,0,"flow",false],[4,5,5,0,"flow",false],[5,6,4,0,"flow",false],[0,7,20,0,"flow",false],[6,7,5,0,"flow",false],[1,8,20,0,"flow",false],[7,9,4,0,"flow",false],[8,9,5,0,"flow",false],[11,10,3,1,"flow",false],[9,10,4,0,"flow",false],[11,11,3,3,"flow",false],[12,12,3,3,"flow",false],[13,13,3,3,"flow",false],[14,14,3,3,"flow",false],[15,15,3,3,"flow",false]]}
EOF
# Three members racing with two provers among them: 30 generated
# requests under portfolio(sat,exact,ims) at --threads 2. Past the MII
# both provers decide on threads of their own, and where both reach one
# II, member order picks sat's schedule over exact's.
p3reqs="$bench_dir/serve_portfolio3.jsonl"
cargo run --release --offline -q -p ims-serve --bin scheduled -- \
    --gen-requests 30 --seed 11 --backend "portfolio(sat,exact,ims)" >"$p3reqs"
cargo run --release --offline -q -p ims-serve --bin scheduled -- \
    --threads 2 --requests "$p3reqs" >"$bench_dir/scheduled_portfolio3.jsonl" 2>/dev/null
# The base requests of the serve-replay and serve-portfolio benchmarks:
# every corpus loop as one request (seed 50389 is 0xC4D5). Each reply
# carries its canonical key and its times mapped through the canonical
# permutation, so this pins the canonical order of every corpus graph.
creqs="$bench_dir/serve_corpus.jsonl"
cargo run --release --offline -q -p ims-serve --bin scheduled -- \
    --gen-requests 1327 --seed 50389 >"$creqs"
cargo run --release --offline -q -p ims-serve --bin scheduled -- \
    --threads 2 --requests "$creqs" >"$bench_dir/scheduled_corpus.jsonl" 2>/dev/null
# Pressure-limited service replies: generated requests retargeted by sed
# to a rotating register file with a matching pressure_limit, all 120 at
# 16 registers and the first 60 at 8.
sreqs="$bench_dir/serve_requests_seed11.jsonl"
cargo run --release --offline -q -p ims-serve --bin scheduled -- \
    --gen-requests 120 --seed 11 >"$sreqs"
sed 's/"machine":"cydra"/"machine":"cydra_rf16","pressure_limit":16/' "$sreqs" \
    >"$bench_dir/serve_press16.jsonl"
head -n 60 "$sreqs" | sed 's/"machine":"cydra"/"machine":"cydra_rf8","pressure_limit":8/' \
    >"$bench_dir/serve_press8.jsonl"
for rf in 16 8; do
    cargo run --release --offline -q -p ims-serve --bin scheduled -- \
        --threads 1 --requests "$bench_dir/serve_press$rf.jsonl" \
        >"$bench_dir/scheduled_press$rf.jsonl" 2>/dev/null
done
# sha256 of stdin, and of a directory tree (relative names + contents).
sum() { sha256sum | cut -d' ' -f1; }
tree_sum() { (cd "$1" && find . -type f | LC_ALL=C sort | xargs sha256sum) | sum; }
golden="$bench_dir/golden.sha256"
{
    echo "$(sum <"$t1_log")  corpus.stdout"
    # The corpus profile's line is also the zero-cost-when-disabled proof
    # for register-pressure support: with no --pressure-limit, the default
    # path must reproduce every pinned count bit for bit.
    echo "$(det "$bench_dir/BENCH_corpus_t1.json" | sum)  corpus.profile"
    for b in exact sat; do
        echo "$(sum <"$bench_dir/corpus_$b.jsonl")  corpus_$b.stdout"
        echo "$(det "$bench_dir/BENCH_corpus_$b.json" | sum)  corpus_$b.profile"
    done
    # The per-loop II, proved bounds and limit-hit flags of the budget-2
    # SAT run, apart from the whole stdout below. A solver change that finds
    # other models re-pins the stdout (it holds schedule lengths); these
    # must not move, so they keep a line of their own.
    bounds='"loop":[0-9]*\|"ii":[0-9]*\|"proved_lb":[0-9]*,"best_ub":[0-9]*,"limit_hit":[a-z]*\|"proven_optimal":[0-9]*,"open_gap":[0-9]*,"limit_hits":[0-9]*'
    echo "$(grep -o "$bounds" "$bench_dir/corpus_sat_b2.jsonl" | sum)  corpus_sat_b2.bounds"
    echo "$(sum <"$bench_dir/corpus_sat_b2.jsonl")  corpus_sat_b2.stdout"
    echo "$(det "$bench_dir/BENCH_corpus_sat_b2.json" | sum)  corpus_sat_b2.profile"
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
    echo "$(tree_sum "$ex_traces")  explain.trace"
    echo "$(sum <"$sv1_log")  scheduled.stdout"
    echo "$(sum <"$pf1_log")  scheduled_portfolio.stdout"
    echo "$(sum <"$bench_dir/scheduled_portfolio_sat.jsonl")  scheduled_portfolio_sat.stdout"
    echo "$(sum <"$bench_dir/scheduled_provers.jsonl")  scheduled_provers.stdout"
    echo "$(sum <"$bench_dir/scheduled_corpus.jsonl")  scheduled_corpus.stdout"
    echo "$(sum <"$bench_dir/scheduled_press16.jsonl")  scheduled_press16.stdout"
    echo "$(sum <"$bench_dir/scheduled_press8.jsonl")  scheduled_press8.stdout"
    echo "$(sum <"$bench_dir/scheduled_malformed.jsonl")  scheduled_malformed.stdout"
    echo "$(sum <"$bench_dir/scheduled_precedence.jsonl")  scheduled_precedence.stdout"
    echo "$(sum <"$bench_dir/scheduled_wire.jsonl")  scheduled_wire.stdout"
    echo "$(sum <"$bench_dir/scheduled_cycles.jsonl")  scheduled_cycles.stdout"
    echo "$(sum <"$bench_dir/trace_report.txt")  trace_report.stdout"
    echo "$(sum <"$bench_dir/unroll_comparison.txt")  unroll_comparison.stdout"
    echo "$(sum <"$bench_dir/registers.txt")  registers.stdout"
    echo "$(sum <"$bench_dir/scheduled_portfolio3.jsonl")  scheduled_portfolio3.stdout"
    echo "$(sum <"$bench_dir/scheduled_canon.jsonl")  scheduled_canon.stdout"
    echo "$(tree_sum "$pl1_dir")  corpus_press16.trace"
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

echo "OK: build, tests, clippy, determinism, cross-prover agreement, profiling gates, pressure gates, II attribution, service cache, portfolio racing, and docs all clean offline"
