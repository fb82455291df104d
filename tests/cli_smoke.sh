#!/usr/bin/env bash
# The h2sim command-line contract: every usage or configuration error
# exits 2 before anything simulates, and a sweep given as flags renders
# the byte-identical report of the same sweep given as an experiment
# file.
#
# Usage: cli_smoke.sh <h2sim-binary> <workdir>
set -u

H2SIM=$1
WORKDIR=$2

rm -rf "$WORKDIR"
mkdir -p "$WORKDIR"
cd "$WORKDIR" || exit 1

failures=0

# expect_usage_error <label> <stderr-substring|""> <h2sim args...>
expect_usage_error() {
    local label=$1 needle=$2
    shift 2
    "$H2SIM" "$@" > /dev/null 2> err.txt
    local rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "FAIL: $label: expected exit 2, got $rc"
        failures=$((failures + 1))
    elif [ -n "$needle" ] && ! grep -qF -- "$needle" err.txt; then
        echo "FAIL: $label: stderr does not mention '$needle':"
        cat err.txt
        failures=$((failures + 1))
    else
        echo "ok: $label"
    fi
}

RUN=(--design dfc --workload lbm --cores 1 --instr 2000)

printf 'design dfc\nworkload lbm\ncores 1\ninstr 2000\n' > tiny.experiment

expect_usage_error "unknown option" "" "${RUN[@]}" --frobnicate
expect_usage_error "non-numeric --cores" "" \
    --design dfc --workload lbm --cores x
expect_usage_error "--experiment with a config flag" "instr" \
    --experiment tiny.experiment --instr 5
expect_usage_error "--resume without --journal" "" "${RUN[@]}" --resume
expect_usage_error "--dump-trace with --design" "" \
    --dump-trace t.trace --design dfc --workload lbm --cores 1 \
    --instr 2000

if ! "$H2SIM" --dump-trace two.trace --workload lbm --cores 2 \
        --instr 2000 2> /dev/null; then
    echo "FAIL: could not capture a two-stream trace"
    exit 1
fi
expect_usage_error "trace replayed with the wrong --cores" "2 streams" \
    --design dfc --workload trace:two.trace --cores 1 --instr 2000

# Values past a setting's range are rejected, not truncated: a u32 count
# one past 4294967295 used to wrap to 1, and an MiB count whose byte
# count overflows 64 bits wrapped to a tiny capacity.
for flag in cores jobs retries; do
    expect_usage_error "--$flag past 32 bits" "$flag" \
        "${RUN[@]}" "--$flag" 4294967297
done
for flag in nm-mib fm-mib; do
    expect_usage_error "--$flag past 2^44-1" "$flag" \
        "${RUN[@]}" "--$flag" 17592186044417
done
for line in "cores 4294967297" "jobs 4294967297" "retries 4294967297" \
            "nm-mib 17592186044417" "fm-mib 17592186044417"; do
    printf 'design dfc\nworkload lbm\ninstr 2000\n%s\n' "$line" \
        > range.experiment
    expect_usage_error "directive '$line'" "${line%% *}" \
        --experiment range.experiment
done

# A journal written under one instruction budget is not resumed under
# another: the points it holds simulated something else.
if ! "$H2SIM" "${RUN[@]}" --journal budget.jnl > /dev/null 2>&1; then
    echo "FAIL: journaled run failed"
    exit 1
fi
expect_usage_error "--resume under another --instr" "budget.jnl" \
    --design dfc --workload lbm --cores 1 --instr 8000 \
    --journal budget.jnl --resume
if ! grep -qF "instr" err.txt; then
    echo "FAIL: the refused resume does not name the differing setting"
    failures=$((failures + 1))
fi

# The same sweep as flags and as a file renders byte-identical JSON.
"$H2SIM" --design dfc --design hybrid2 --workload lbm --cores 1 \
    --instr 3000 --seed 7 --queue off --fm pcm --speedup --format json \
    --out flags.json
rc=$?
if [ "$rc" -ne 0 ]; then
    echo "FAIL: flag run exited $rc"
    exit 1
fi
cat > same.experiment << 'EOF'
design   dfc
design   hybrid2
workload lbm
cores    1
instr    3000
seed     7
queue    off
fm       pcm
speedup  on
format   json
EOF
"$H2SIM" --experiment same.experiment --out file.json
rc=$?
if [ "$rc" -ne 0 ]; then
    echo "FAIL: experiment-file run exited $rc"
    exit 1
fi
if cmp flags.json file.json; then
    echo "ok: flags and experiment file render byte-identical JSON"
else
    echo "FAIL: flags and experiment file render different JSON"
    failures=$((failures + 1))
fi

if [ "$failures" -ne 0 ]; then
    echo "FAIL: $failures CLI contract check(s) failed"
    exit 1
fi
echo "PASS: h2sim CLI contract holds"
