#!/usr/bin/env bash
# Print the `counts:` and `fingerprint:` lines of one `--seconds 0`
# perfbench run per workload at seeds 1-3. Both lines are deterministic
# per (workload, seed), so a change that keeps the dynamics reproduces
# .github/perfbench-golden.txt byte for byte. Run from the repository
# root after `cargo build --release --manifest-path perfbench/Cargo.toml`;
# any failed run or missing line exits non-zero or drops a line the
# golden holds.
set -euo pipefail
bin=perfbench/target/release/perfbench
for w in churn-heap retune-dp spatial-dense spatial-wide; do
  for s in 1 2 3; do
    echo "== $w seed $s"
    out=$("$bin" --workload "$w" --seed "$s" --seconds 0 --trace 0)
    grep -E '^(counts|fingerprint):' <<<"$out"
  done
done
