#!/usr/bin/env bash
# Non-test line count per crate and in total.
#
# A file's non-test lines are its lines before the first line that starts
# with `#[cfg(test)]` (all of them when it has none); a mention inside a
# comment or string does not end the count. Counted over every `.rs` file under
# `crates/*/src` and the root package's `src/`; `tests/`, `benches/`,
# `examples/` and `e2ebench/` are not counted.
#
# Usage: scripts/loc.sh   (from anywhere inside the repo)
set -euo pipefail

cd "$(dirname "$0")/.."

count_dir() {
  find "$1" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { live = 1 }
    /^[ \t]*#\[cfg\(test\)\]/ { live = 0 }
    live { n++ }
    END { print n + 0 }'
}

total=0
for dir in crates/*/src src; do
  name=${dir%/src}
  [[ $dir == src ]] && name="(root) src"
  n=$(count_dir "$dir")
  total=$((total + n))
  printf '%-22s %7d\n' "$name" "$n"
done
printf '%-22s %7d\n' total "$total"
