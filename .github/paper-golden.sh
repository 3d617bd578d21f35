#!/usr/bin/env bash
# Print what the paper binaries report: for each one, its stdout without
# the `[written] <absolute path>` lines, then the sha256 of every result
# file it wrote, by path relative to the repository root. The binaries
# are seeded and deterministic, so a change that keeps the paper's
# numbers reproduces .github/paper-golden.txt byte for byte. Run from the
# repository root after `cargo build --release -p mrca-experiments`.
# t6_distributed (about 40 s) and the scale binaries t9-t12 stay out.
set -euo pipefail
bin=target/release
for b in fig1_example fig3_rate_functions fig45_ne_examples \
  t1_characterization t2_efficiency t3_algorithm t4_convergence \
  t5_bianchi t7_extensions t8_suite; do
  echo "== $b"
  out=$("$bin/$b")
  grep -v '\[written\] ' <<<"$out" || true
  grep -o '\[written\] .*' <<<"$out" | while read -r _ path; do
    sha256sum "${path#"$PWD"/}"
  done
done
