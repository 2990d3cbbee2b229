#!/usr/bin/env bash
# Unused-export gate for CI (also runnable locally, needs no build): every
# `val` declared in a lib/**/*.mli must be named somewhere outside its own
# module, i.e. in some .ml/.mli under lib bin bench perfbench test examples
# other than the module's own .ml and .mli. The match is by whole word, so
# a common name counts as used; the gate catches the exports nothing else
# mentions at all, which belong in the implementation only or nowhere.
set -u
cd "$(dirname "$0")/.."

dirs="lib bin bench perfbench test examples"

# One "file word" line per distinct identifier per source file.
words=$(mktemp)
trap 'rm -f "$words"' EXIT
# shellcheck disable=SC2086
grep -rowE --include='*.ml' --include='*.mli' "[A-Za-z_][A-Za-z0-9_']*" $dirs \
  | sed 's/:/ /' | sort -u > "$words"

# Exported values: "<mli path> <name>" for every `val name` line.
exports=$(grep -roE --include='*.mli' "^ *val +[a-z_][A-Za-z0-9_']*" lib \
  | sed -E 's/: *val +/ /' | sort -u)

findings=$(
  printf '%s\n' "$exports" | awk -v words="$words" '
    BEGIN {
      while ((getline line < words) > 0) {
        split(line, f, " ")
        files[f[2]] = files[f[2]] " " f[1]
      }
    }
    {
      mli = $1; name = $2
      own = mli; sub(/\.mli$/, ".ml", own)
      n = split(files[name], fs, " ")
      used = 0
      for (i = 1; i <= n; i++)
        if (fs[i] != mli && fs[i] != own) { used = 1; break }
      if (!used) print mli ": val " name
    }'
)

if [ -n "$findings" ]; then
  printf '%s\n' "$findings" >&2
  echo "export gate failed: $(printf '%s\n' "$findings" | wc -l) export(s) \
unused outside their own module; delete them or drop them from the .mli" >&2
  exit 1
fi
echo "export gate passed ($(printf '%s\n' "$exports" | wc -l) exports checked)"
