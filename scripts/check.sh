#!/usr/bin/env bash
# Repo-wide check: build, full test suite, lints, and the deterministic
# fault-injection campaign's reproducibility gate. This is the command CI
# (and humans) run before merging.
#
# Tiers:
#   check.sh --quick   build + tests + clippy (the inner-loop gate)
#   check.sh --full    everything: quick tier plus the repository
#                      benchmark's tests, verifier corpus sweep,
#                      fault-campaign determinism and repro-bundle gates,
#                      record->replay smoke, the hotpath ratio guard, and
#                      the exact gate on the regenerated BENCH_*.json
#   check.sh           same as --full
#
# Clippy is best-effort locally (minimal toolchains may lack clippy-driver)
# but mandatory when CI=true: CI images ship the component, so a missing
# clippy there is a broken image, not a reason to skip lints.
set -euo pipefail
cd "$(dirname "$0")/.."

tier=full
case "${1:-}" in
    --quick) tier=quick ;;
    --full|"") tier=full ;;
    *)
        echo "usage: $0 [--quick|--full]" >&2
        exit 2
        ;;
esac

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# Same policy as clippy below: formatting is best-effort locally (minimal
# toolchains may lack rustfmt) but mandatory when CI=true.
if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --check
elif [ "${CI:-false}" = "true" ]; then
    echo "==> cargo fmt unavailable but CI=true; formatting is mandatory in CI" >&2
    exit 1
else
    echo "==> cargo fmt unavailable; skipping format check (mandatory in CI)"
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
elif [ "${CI:-false}" = "true" ]; then
    echo "==> cargo clippy unavailable but CI=true; lints are mandatory in CI" >&2
    exit 1
else
    echo "==> cargo clippy unavailable; skipping lints (mandatory in CI)"
fi

echo "==> serve smoke (short multi-tenant run under live faults)"
target/release/regvault-cli serve --smoke > /dev/null

echo "==> fleet smoke (snapshot-forked fleet under a chaos kill schedule)"
target/release/regvault-cli fleet --smoke > /dev/null

if [ "$tier" = "quick" ]; then
    echo "OK (quick tier)"
    exit 0
fi

echo "==> repository benchmark's own tests (every workload's --smoke round and its checks)"
# Cargo prunes a stale entry from the committed benchmark/Cargo.lock when
# it builds the benchmark; put the file back so the run leaves no change.
cp benchmark/Cargo.lock /tmp/regvault_benchmark_Cargo.lock
cargo test --manifest-path benchmark/Cargo.toml
cp /tmp/regvault_benchmark_Cargo.lock benchmark/Cargo.lock

echo "==> protection verifier over the full benchmark corpus"
target/release/regvault-cli verify --workloads

echo "==> verifier ratchet (whole-program lints vs committed baseline)"
target/release/regvault-cli verify --workloads --interprocedural \
    --baseline verifier-baseline.txt

echo "==> fault campaign determinism (two runs must be identical)"
campaign=(target/release/fault_campaign --seed 42 --trials 50)
"${campaign[@]}" > /tmp/fault_campaign_run1.txt
"${campaign[@]}" > /tmp/fault_campaign_run2.txt
diff /tmp/fault_campaign_run1.txt /tmp/fault_campaign_run2.txt

echo "==> record -> replay smoke (bit-for-bit bundle round trip)"
cat > /tmp/regvault_replay_smoke.s <<'ASM'
li   t1, 0x9000
li   s0, 0x9000
li   s2, 400
loop:
li   a0, 0xbeef
creak a0, a0[3:0], t1
sd   a0, 0(s0)
ld   a1, 0(s0)
crdak a1, a1, t1, [3:0]
addi s2, s2, -1
blt  zero, s2, loop
ebreak
ASM
target/release/regvault-cli record /tmp/regvault_replay_smoke.s \
    /tmp/regvault_smoke.bundle --steps 20000 --flip 50:0x9000:3
target/release/regvault-cli replay /tmp/regvault_smoke.bundle \
    | grep -q "bit-for-bit"

echo "==> 10k-step lockstep divergence check (SWAR datapath vs reference)"
target/release/regvault-cli divergence /tmp/regvault_replay_smoke.s 10000 256 \
    | grep -q "lockstep OK"

echo "==> superblock tier lockstep sweep (tier vs interpreter, all guests)"
target/release/regvault-cli divergence --tiers 200000 \
    | grep -q "tier lockstep OK"

echo "==> campaign repro bundle: replay bit-for-bit, shrink to <= 10%"
rm -rf /tmp/regvault_repro && mkdir -p /tmp/regvault_repro
target/release/fault_campaign --trials 2 --config full --noise 20 \
    --repro-dir /tmp/regvault_repro > /dev/null
bundle=$(ls /tmp/regvault_repro/*.bundle | head -1)
target/release/fault_campaign --replay "$bundle" | grep -q "bit-for-bit"
shrink=$(target/release/fault_campaign --shrink "$bundle")
echo "$shrink"
pct=$(echo "$shrink" | sed -n 's/.*(\([0-9]*\)%).*/\1/p')
test -n "$pct" && test "$pct" -le 10

target/release/fault_campaign --replay "$bundle.min" | grep -q "bit-for-bit"

echo "==> observability smoke (Chrome trace + metrics JSON on a traced guest)"
target/release/regvault-cli trace /tmp/regvault_replay_smoke.s --chrome \
    > /tmp/regvault_trace.json
grep -q '"traceEvents"' /tmp/regvault_trace.json
target/release/regvault-cli metrics /tmp/regvault_replay_smoke.s --json \
    | grep -q '"clb_hits"'

echo "==> hotpath ratio guard (SWAR/reference QARMA, tier on/off, FULL/off, rekey/FULL)"
target/release/hotpath

# The committed BENCH_*.json are exact: delete them, regenerate all six,
# and fail on any changed byte, deleted file or untracked file.
echo "==> delete the committed bench artifacts; the steps below regenerate them"
rm -f BENCH_*.json

echo "==> serve under faults (sustained multi-tenant run, rewrites BENCH_serve.json)"
target/release/serve

echo "==> fleet bench (64 forked instances, chaos recovery, rewrites BENCH_fleet.json)"
target/release/fleet

echo "==> leakage gate (trimmed ciphertext-side-channel campaign, 10x reduction floor)"
target/release/regvault-cli leakage --smoke > /dev/null

echo "==> leakage campaign (full corpus off vs on, rewrites BENCH_leakage.json)"
target/release/regvault-cli leakage --json > BENCH_leakage.json

echo "==> figure 5 overheads (rewrites BENCH_fig5{a,b,c}_*.json)"
for fig in fig5a_unixbench fig5b_lmbench fig5c_spec; do
    "target/release/$fig" > /dev/null
done

echo "==> committed bench artifacts are exact (git status over BENCH_*.json)"
if [ -n "$(git status --porcelain -- 'BENCH_*.json')" ]; then
    git status --porcelain -- 'BENCH_*.json' >&2
    git --no-pager diff -- 'BENCH_*.json' >&2
    echo "FAIL: the regenerated BENCH_*.json differ from the committed files" >&2
    exit 1
fi

echo "OK (full tier)"
