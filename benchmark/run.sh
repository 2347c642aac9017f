#!/usr/bin/env bash
# Builds the benchmark package from source (release, offline) and runs it
# from the repository root. Every argument goes to the binary:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run
#   benchmark/run.sh [--seed N] [--smoke] [--aa]                     the suite
#
# See benchmark/README.md. Exits non-zero when the sources of the crates it
# measures are not next to it (the build fails).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# A relative CARGO_TARGET_DIR means "relative to where the caller stands".
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cd "$root"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$target/release/dimboost-benchmark" "$@"
