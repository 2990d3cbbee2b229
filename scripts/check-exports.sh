#!/usr/bin/env bash
# Unused-export gate for CI (also runnable locally, needs no build): every
# `val name` declared in lib/<d>/<m>.mli must be used outside its own
# module, searching the .ml/.mli files under lib bin bench perfbench test
# examples other than <m>.ml and <m>.mli. With M the module name of <m>, a
# use is one of:
#   - the qualified name `M.name`;
#   - `Aig.name`, for lib/aig/graph.mli, which aig.ml includes;
#   - `Vars.name`, for the nested `Symbolic.Vars` signature;
#   - the bare word `name` in a file that opens M (`open M`, `let open M`,
#     or an opened path ending in M, such as `open Rtl.Expr`).
# A bare name alone does not count: common names such as `pp` or `equal`
# appear in many modules, and would hide an export that nothing calls.
set -u
cd "$(dirname "$0")/.."

dirs="lib bin bench perfbench test examples"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# "file Mod.name" for every qualified value reference, "file word" for every
# identifier and "file Mod" for every module a file opens; one line each.
# shellcheck disable=SC2086
grep -rowE --include='*.ml' --include='*.mli' \
  "[A-Z][A-Za-z0-9_']*\.[a-z_][A-Za-z0-9_']*" $dirs \
  | sed 's/:/ /' | sort -u > "$tmp/qualified"
# shellcheck disable=SC2086
grep -rowE --include='*.ml' --include='*.mli' "[A-Za-z_][A-Za-z0-9_']*" $dirs \
  | sed 's/:/ /' | sort -u > "$tmp/words"
# shellcheck disable=SC2086
grep -roE --include='*.ml' --include='*.mli' \
  "\bopen!? +([A-Z][A-Za-z0-9_']*\.)*[A-Z][A-Za-z0-9_']*" $dirs \
  | sed -E 's/:open!? +/ /; s/ .*\./ /' | sort -u > "$tmp/opens"

# Exported values: "<mli path> <name>" for every `val name` line.
exports=$(grep -roE --include='*.mli' "^ *val +[a-z_][A-Za-z0-9_']*" lib \
  | sed -E 's/: *val +/ /' | sort -u)

findings=$(
  printf '%s\n' "$exports" | awk -v tmp="$tmp" '
    function add(tbl, key, file) { tbl[key] = tbl[key] " " file }
    BEGIN {
      while ((getline l < (tmp "/qualified")) > 0) {
        split(l, f, " "); add(qual, f[2], f[1])
      }
      while ((getline l < (tmp "/words")) > 0) {
        split(l, f, " "); add(bare, f[2], f[1])
      }
      while ((getline l < (tmp "/opens")) > 0) {
        split(l, f, " "); opens[f[1] " " f[2]] = 1
      }
    }
    # Does [list] (space-separated files) hold a file other than a or b,
    # for which, when [m] is set, the pair "file m" is in [opens]?
    function other(list, a, b, m,    n, fs, i) {
      n = split(list, fs, " ")
      for (i = 1; i <= n; i++)
        if (fs[i] != a && fs[i] != b && (m == "" || ((fs[i] " " m) in opens)))
          return 1
      return 0
    }
    {
      mli = $1; name = $2
      own = mli; sub(/\.mli$/, ".ml", own)
      m = mli; sub(/.*\//, "", m); sub(/\.mli$/, "", m)
      m = toupper(substr(m, 1, 1)) substr(m, 2)
      used = other(qual[m "." name], mli, own, "") \
        || (m == "Graph" && other(qual["Aig." name], mli, own, "")) \
        || (m == "Symbolic" && other(qual["Vars." name], mli, own, "")) \
        || other(bare[name], mli, own, m)
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
