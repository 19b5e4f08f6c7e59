#!/usr/bin/env bash
# Runs the chaos and stress test binaries once per seed, at CHAOS_SEED
# 0..N-1 (N is the first argument, 256 by default), and fails with the
# list of every failing seed and the tests that failed at it. The
# binaries build under the `sweep` profile (release with debug
# assertions, see Cargo.toml).
#
#   .github/scripts/seed_sweep.sh        # 256 seeds
#   .github/scripts/seed_sweep.sh 16     # a quick look
set -euo pipefail

seeds=${1:-256}
cd "$(dirname "$0")/../.."

failed=()
for target in "pscc-sim crates/sim chaos" "pscc-core crates/core stress"; do
    read -r package dir test <<<"$target"
    bin=$(cargo test --profile sweep --no-run -p "$package" --test "$test" 2>&1 |
        sed -n 's/.*Executable .*(\(.*\))$/\1/p')
    bin=$(realpath "$bin")
    for ((seed = 0; seed < seeds; seed++)); do
        if ! out=$(cd "$dir" && CHAOS_SEED=$seed "$bin" -q 2>&1); then
            tests=$(printf '%s\n' "$out" | sed -n 's/^    \([a-z0-9_]*\)$/\1/p' | xargs)
            failed+=("$test seed $seed: $tests")
        fi
    done
done

if ((${#failed[@]})); then
    echo "${#failed[@]} failing runs:" >&2
    printf '  %s\n' "${failed[@]}" >&2
    exit 1
fi
echo "chaos and stress pass at CHAOS_SEED 0..$((seeds - 1))"
