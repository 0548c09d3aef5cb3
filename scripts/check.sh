#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 verification the roadmap
# requires (release build + root test suite). Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> unit tests: event kernel, network model, workbench core, probe sinks, trace generators"
# The window-barrier, fan-out, sharded-runner, CLI, probe-sink and
# generator unit tests live in member crates, which the root-package
# `cargo test -q` does not run.
cargo test -q -p pearl -p mermaid-network -p mermaid -p mermaid-probe -p mermaid-tracegen

echo "==> example: quickstart (full pipeline)"
cargo run --release --example quickstart > /dev/null

echo "==> example: traced_run (validates the emitted Chrome trace round-trips)"
cargo run --release --example traced_run > /dev/null

echo "==> cli: traced simulation emits parseable Chrome-trace JSON"
trace_file="$(mktemp -t mermaid-check-trace.XXXXXX.json)"
serial_out="$(mktemp -t mermaid-check-serial.XXXXXX.txt)"
sharded_out="$(mktemp -t mermaid-check-sharded.XXXXXX.txt)"
trap 'rm -f "$trace_file" "$serial_out" "$sharded_out"' EXIT
cargo run --release -p mermaid --bin mermaid-cli -- sim --machine test \
    --topology mesh:2x2 --mode task --phases 2 --trace-out "$trace_file" --metrics > /dev/null
test -s "$trace_file" || { echo "trace file is empty" >&2; exit 1; }

echo "==> cli: sharded run is bit-identical to the serial run"
for mode in detailed task; do
    for spec in torus:4x4 ring:8; do
        # The detailed-mode slowdown figure is host wall-clock based and
        # legitimately varies run to run — compare everything else.
        cargo run --release -p mermaid --bin mermaid-cli -- sim --machine test \
            --topology "$spec" --mode "$mode" --pattern all2all --phases 3 \
            --shards 1 | grep -v "slowdown" > "$serial_out"
        cargo run --release -p mermaid --bin mermaid-cli -- sim --machine test \
            --topology "$spec" --mode "$mode" --pattern all2all --phases 3 \
            --shards 3 | grep -v "slowdown" > "$sharded_out"
        diff -u "$serial_out" "$sharded_out" \
            || { echo "sharded output diverged ($mode $spec)" >&2; exit 1; }
    done
done

echo "==> cli: sim output matches the pre-migration golden snapshot"
# The checked-in snapshot predates the arena-world migration, so this diff
# is a literal before/after smoke test of the storage refactor: any drift
# in the simulated results shows up as a byte diff here.
for shards in 1 3; do
    cargo run --release -p mermaid --bin mermaid-cli -- sim --machine test \
        --topology mesh:4x4 --mode task --phases 2 --pattern all2all \
        --seed 5 --shards "$shards" > "$serial_out"
    diff -u tests/golden/sim_task_healthy.txt "$serial_out" \
        || { echo "sim output drifted from golden snapshot (shards=$shards)" >&2; exit 1; }
done

echo "==> cli: traced detailed run matches its golden snapshot"
# Pins the per-node computational-model counters and the order they reach
# the probe in, whatever the host core count. The host-time lines (the
# slowdown figure and the self-profile) are dropped. Sharded runs carry no
# engine-internal delivery events (DESIGN.md section 11), so those two
# lines are left out of the --shards 3 comparison.
for shards in 1 3; do
    cargo run --release -p mermaid --bin mermaid-cli -- sim --machine test \
        --topology mesh:2x2 --mode detailed --phases 2 --pattern all2all \
        --seed 5 --metrics --shards "$shards" \
        | sed '/^Self-profile:/,$d' | grep -v "slowdown" > "$serial_out"
    if [ "$shards" -eq 1 ]; then
        diff -u tests/golden/sim_detailed_metrics.txt "$serial_out"
    else
        diff -u <(grep -v "engine.deliveries" tests/golden/sim_detailed_metrics.txt) \
            <(grep -v "engine.deliveries" "$serial_out")
    fi || { echo "detailed metrics drifted from golden snapshot (shards=$shards)" >&2; exit 1; }
done

echo "==> bench: comm-heavy hot path (quick mode)"
MERMAID_BENCH_QUICK=1 cargo bench -p mermaid-bench --bench arena_hot_path

echo "==> tier-1: fault-injection conformance suite"
cargo test -q --test fault_injection

echo "==> tier-1: checkpoint/restore conformance suite"
cargo test -q --test checkpoint_conformance

echo "==> cli: faulty runs are bit-identical serial vs sharded"
# A scripted outage (link 0-1 down at 2 us, healed at 60 us) plus 2%
# transient loss: retries recover everything, and the sharded run must
# reproduce the serial output byte for byte.
for spec in "link:0-1:2000:60000; drop:20000" "link:15-11:0; link:15-14:0"; do
    cargo run --release -p mermaid --bin mermaid-cli -- sim --machine test \
        --topology mesh:4x4 --mode task --pattern all2all --phases 2 \
        --faults "$spec" --fault-seed 9 --shards 1 > "$serial_out"
    cargo run --release -p mermaid --bin mermaid-cli -- sim --machine test \
        --topology mesh:4x4 --mode task --pattern all2all --phases 2 \
        --faults "$spec" --fault-seed 9 --shards 3 > "$sharded_out"
    diff -u "$serial_out" "$sharded_out" \
        || { echo "faulty sharded output diverged ($spec)" >&2; exit 1; }
    grep -q "fault injection:" "$serial_out" \
        || { echo "fault summary missing from output ($spec)" >&2; exit 1; }
done
# The permanent corner partition must surface the degraded-mode report.
grep -q "Degraded mode:" "$serial_out" \
    || { echo "degraded-mode report missing for permanent partition" >&2; exit 1; }

echo "==> cli: bad fault specs fail cleanly (no panic)"
for spec in "frob:1" "link:0-99:1000" "drop:2000000" "drop:100000;cap:0" "recv-timeout:0" \
    "drop:1000;timeout:18446744073709552"; do
    if cargo run --release -p mermaid --bin mermaid-cli -- sim --machine test \
        --topology ring:4 --mode task --faults "$spec" > /dev/null 2>&1; then
        echo "fault spec $spec should have been rejected" >&2; exit 1
    fi
done

echo "==> cli: butterfly on a non-power-of-two node count fails cleanly (no panic)"
# Exit status 1 is a reported error; a panic would exit with 101.
butterfly_runs=(
    "sim --machine test --topology ring:3 --pattern butterfly"
    "sim --machine test --topology ring:3 --mode task --pattern butterfly"
    "analyze --machine test --topology ring:6 --pattern butterfly"
)
for args in "${butterfly_runs[@]}"; do
    status=0
    # shellcheck disable=SC2086
    cargo run --release -p mermaid --bin mermaid-cli -- $args > /dev/null 2>&1 || status=$?
    [ "$status" -eq 1 ] \
        || { echo "'$args' should fail with an error, got exit $status" >&2; exit 1; }
done
status=0
cargo run --release -p mermaid --bin mermaid-cli -- campaign \
    "topo = ring:3; pattern = butterfly" --dry-run > /dev/null 2>&1 || status=$?
[ "$status" -eq 1 ] \
    || { echo "campaign dry run should reject butterfly on ring:3, got exit $status" >&2; exit 1; }

echo "==> cli: invalid topology specs fail cleanly (no panic)"
for spec in ring:1 mesh:0x4 hypercube:21 mesh:100000x100000; do
    if cargo run --release -p mermaid --bin mermaid-cli -- topo "$spec" > /dev/null 2>&1; then
        echo "spec $spec should have been rejected" >&2; exit 1
    fi
done

echo "==> cli: attribution JSON is byte-identical serial vs sharded"
attr_serial="$(mktemp -t mermaid-check-attr-serial.XXXXXX.json)"
attr_sharded="$(mktemp -t mermaid-check-attr-sharded.XXXXXX.json)"
trap 'rm -f "$trace_file" "$serial_out" "$sharded_out" "$attr_serial" "$attr_sharded"' EXIT
cargo run --release -p mermaid --bin mermaid-cli -- sim --machine test \
    --topology torus:4x4 --mode task --pattern all2all --phases 2 \
    --attribution "$attr_serial" --shards 1 > /dev/null
cargo run --release -p mermaid --bin mermaid-cli -- sim --machine test \
    --topology torus:4x4 --mode task --pattern all2all --phases 2 \
    --attribution "$attr_sharded" --shards 3 > /dev/null
diff "$attr_serial" "$attr_sharded" \
    || { echo "attribution JSON diverged serial vs sharded" >&2; exit 1; }
grep -q '"schema":"mermaid-attribution-v1"' "$attr_serial" \
    || { echo "attribution JSON missing schema tag" >&2; exit 1; }

echo "==> cli: analyze renders the attribution report"
cargo run --release -p mermaid --bin mermaid-cli -- analyze --machine test \
    --topology torus:4x4 --pattern all2all --phases 2 > "$serial_out"
for want in "Latency decomposition" "Hottest links" "Hottest routers" "heatmap"; do
    grep -q "$want" "$serial_out" \
        || { echo "analyze report missing '$want'" >&2; cat "$serial_out" >&2; exit 1; }
done

echo "==> cli: bad attribution flags fail cleanly (no panic)"
# analyze owns the report (sim-only flags rejected); --shard-profile needs
# a sharded run; writes into a missing directory name the path and cause.
if cargo run --release -p mermaid --bin mermaid-cli -- analyze --machine test \
    --topology ring:4 --metrics > /dev/null 2>&1; then
    echo "analyze --metrics should have been rejected" >&2; exit 1
fi
if cargo run --release -p mermaid --bin mermaid-cli -- sim --machine test \
    --topology ring:4 --mode task --shard-profile > /dev/null 2>&1; then
    echo "--shard-profile without --shards should have been rejected" >&2; exit 1
fi
if cargo run --release -p mermaid --bin mermaid-cli -- sim --machine test \
    --topology ring:4 --mode task \
    --attribution /nonexistent-mermaid-dir/attr.json > /dev/null 2>&1; then
    echo "missing output directory should have been rejected" >&2; exit 1
fi

echo "==> cli: campaign smoke (run, resume, golden CSV)"
# A tiny 3-topology x 2-pattern grid: 6 runs. The first invocation records
# all of them; the second must find everything recorded and do zero new
# work (the resume contract); the CSV view is pinned to a golden snapshot
# (BLESS=1 cargo test --test campaign_end_to_end regenerates it).
campaign_dir="$(mktemp -d -t mermaid-check-campaign.XXXXXX)"
campaign_out="$(mktemp -t mermaid-check-campaign-out.XXXXXX.txt)"
trap 'rm -f "$trace_file" "$serial_out" "$sharded_out" "$attr_serial" "$attr_sharded" "$campaign_out"; rm -rf "$campaign_dir"' EXIT
campaign_spec="topo = ring:4, mesh:2x2, torus:2x2; pattern = ring, all2all; machine = test; phases = 2; ops = 500; seed = 5"
cargo run --release -p mermaid --bin mermaid-cli -- campaign "$campaign_spec" \
    --out "$campaign_dir" --jobs 2 2> /dev/null > "$campaign_out"
grep -q "6 run(s) expanded, 0 already recorded, 6 executed" "$campaign_out" \
    || { echo "campaign did not execute the full grid" >&2; cat "$campaign_out" >&2; exit 1; }
[ "$(wc -l < "$campaign_dir/runs.jsonl")" -eq 6 ] \
    || { echo "expected 6 JSONL records" >&2; exit 1; }
cargo run --release -p mermaid --bin mermaid-cli -- campaign "$campaign_spec" \
    --out "$campaign_dir" --jobs 2 2> /dev/null > "$campaign_out"
grep -q "6 run(s) expanded, 6 already recorded, 0 executed" "$campaign_out" \
    || { echo "campaign resume re-ran recorded work" >&2; cat "$campaign_out" >&2; exit 1; }
diff -u tests/golden/campaign_summary.csv "$campaign_dir/summary.csv" \
    || { echo "campaign CSV diverged from the golden snapshot" >&2; exit 1; }

echo "==> cli: checkpoint/restore reproduces the uninterrupted run"
# Capture a run at a 200 ns cadence, then restore its middle checkpoint
# both serially and on 3 shards: each restored output must be byte-
# identical to the straight-through run (restored runs intentionally
# print no banner so this diff IS the conformance check). Serial and
# sharded captures must also write byte-identical snapshot files.
ckpt_serial_dir="$(mktemp -d -t mermaid-check-ckpt1.XXXXXX)"
ckpt_sharded_dir="$(mktemp -d -t mermaid-check-ckpt3.XXXXXX)"
trap 'rm -f "$trace_file" "$serial_out" "$sharded_out" "$attr_serial" "$attr_sharded" "$campaign_out"; rm -rf "$campaign_dir" "$ckpt_serial_dir" "$ckpt_sharded_dir"' EXIT
ckpt_args=(sim --machine test --topology torus:4x4 --mode task --pattern all2all --phases 2)
cargo run --release -p mermaid --bin mermaid-cli -- "${ckpt_args[@]}" > "$serial_out"
cargo run --release -p mermaid --bin mermaid-cli -- "${ckpt_args[@]}" \
    --checkpoint-every 200000 --checkpoint-dir "$ckpt_serial_dir" > /dev/null
cargo run --release -p mermaid --bin mermaid-cli -- "${ckpt_args[@]}" --shards 3 \
    --checkpoint-every 200000 --checkpoint-dir "$ckpt_sharded_dir" > /dev/null
diff -r "$ckpt_serial_dir" "$ckpt_sharded_dir" \
    || { echo "serial and sharded captures wrote different snapshot files" >&2; exit 1; }
snaps=("$ckpt_serial_dir"/ckpt-*.snap)
mid="${snaps[$(( ${#snaps[@]} / 2 ))]}"
for shards in 1 3; do
    cargo run --release -p mermaid --bin mermaid-cli -- "${ckpt_args[@]}" \
        --restore "$mid" --shards "$shards" > "$sharded_out"
    diff -u "$serial_out" "$sharded_out" \
        || { echo "restored run diverged from straight-through (shards=$shards)" >&2; exit 1; }
done

echo "==> cli: damaged or mismatched snapshots fail cleanly (no panic, no hang)"
# Every refusal must exit 1 (a panic exits 101, a hang is killed by
# timeout with 124) with the same error serially and on 3 shards. The
# malformed snapshot keeps a valid body hash, so it reaches the restore
# itself: its router 9 record carries one integer too many.
head -c 40 "$mid" > "$ckpt_serial_dir/torn.snap"
python3 - "$mid" "$ckpt_serial_dir/malformed.snap" <<'PY'
import sys
header, body = open(sys.argv[1]).read().split("\n", 1)
body = "".join(l + " 7\n" if l.startswith("router 9 ") else l + "\n" for l in body.splitlines())
h = 0xCBF29CE484222325
for b in body.encode():
    h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
header = " ".join("body=%016x" % h if f.startswith("body=") else f for f in header.split(" "))
open(sys.argv[2], "w").write(header + "\n" + body)
PY
refusals=(
    "--restore $ckpt_serial_dir/torn.snap"
    "--seed 2 --restore $mid"
    "--restore $ckpt_serial_dir/malformed.snap"
)
for extra in "${refusals[@]}"; do
    for shards in 1 3; do
        status=0
        # shellcheck disable=SC2086
        timeout 60 cargo run -q --release -p mermaid --bin mermaid-cli -- "${ckpt_args[@]}" \
            $extra --shards "$shards" > /dev/null 2> "$sharded_out" || status=$?
        [ "$status" -eq 1 ] \
            || { echo "'$extra --shards $shards' should fail with an error, got exit $status" >&2; exit 1; }
        head -n 1 "$sharded_out" > "$sharded_out.$shards"
    done
    diff -u "$sharded_out.1" "$sharded_out.3" \
        || { echo "'$extra' fails differently serially and on 3 shards" >&2; exit 1; }
    rm -f "$sharded_out.1" "$sharded_out.3"
done
grep -q "1 trailing integer(s) after the router state" "$sharded_out" \
    || { echo "the malformed snapshot was refused for the wrong reason" >&2; exit 1; }

echo "All checks passed."
