# The pinned view of a `--metrics` stderr: the counter/gauge table whole,
# then each span row's name and count (span seconds vary run to run).
# Used by scripts/obs-smoke.sh, scripts/all-golden.sh and
# scripts/regen-golden.sh: awk -f scripts/pinned-rows.awk STDERR
/^metric / { on = 1 }
/^span / { on = 2 }
on == 1 { print }
on == 2 { print $1, $2 }
