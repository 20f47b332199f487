#!/usr/bin/env bash
# Prints the line counts of src/ and tests/ (.cpp, .hpp and CMakeLists.txt
# files), the measure ROADMAP.md tracks. Counts the tree under the current
# directory, so the same script can measure another checkout:
#
#   scripts/src_lines.sh                        # this checkout
#   (cd ../other-checkout && /path/to/scripts/src_lines.sh)
#
# Output: one "<dir> <lines>" line per directory.
set -euo pipefail

for dir in src tests; do
  lines=0
  if [ -d "$dir" ]; then
    lines=$(find "$dir" -type f \
      \( -name '*.cpp' -o -name '*.hpp' -o -name CMakeLists.txt \) \
      -print0 | xargs -0 -r cat | wc -l)
  fi
  echo "$dir $lines"
done
