#!/bin/sh
# Checks the README's hand-written CLI references against the live CLI:
#   tools/check_knob_table.sh <path-to-erasmus_run> [README.md]
# Fails if
#  * the knob table misses a knob `erasmus_run describe swarm_relay`
#    prints, or lists one the CLI no longer has;
#  * a knob's Default cell differs from the default `describe` prints
#    (`*(empty)*` stands for an empty default);
#  * the scenario list differs from `erasmus_run list --names`;
#  * a README list of trace categories differs from the one `describe`
#    prints for --trace-filter.
# Those are the ways a hand-written reference rots.
set -eu

run_bin=${1:?usage: check_knob_table.sh <erasmus_run> [README.md]}
readme=${2:-README.md}
status=0

# same_set <what> <names from the CLI> <names from the README>: reports
# every name only one side has.
same_set() {
  for n in $2; do
    echo "$3" | grep -qx -- "$n" || {
      echo "README $1 missing CLI name: $n" >&2; status=1; }
  done
  for n in $3; do
    echo "$2" | grep -qx -- "$n" || {
      echo "README $1 lists unknown name: $n" >&2; status=1; }
  done
}

# Knob names straight from the CLI: the first token of each indented
# parameter line, with any "=VALUE" placeholder stripped (--trace=PATH
# -> --trace).
describe=$("$run_bin" describe swarm_relay)
cli_knobs=$(echo "$describe" |
  awk '/^  /{sub(/=.*/, "", $1); print $1}' | sort -u)
[ -n "$cli_knobs" ] || { echo "describe printed no parameters" >&2; exit 1; }

# Knob names from the README table, between the knob-table markers:
# first cell of each data row, backticks stripped.
table_knobs=$(sed -n '/knob-table:begin/,/knob-table:end/p' "$readme" |
  awk -F'|' '/^\| `/{gsub(/[` ]/, "", $2); print $2}' | sort -u)
[ -n "$table_knobs" ] || { echo "no knob table found in $readme" >&2; exit 1; }
same_set "knob table" "$cli_knobs" "$table_knobs"

# Defaults: "name default" per knob from both sides, the CLI's from the
# "(default VALUE)" column (empty for an empty default), the README's from
# the Default cell. Every knob both sides list must agree.
cli_defaults=$(echo "$describe" |
  sed -n 's/^  \([^ =]*\)[^ ]* *(default \([^ ]*\) *) .*/\1 \2/p')
table_defaults=$(sed -n '/knob-table:begin/,/knob-table:end/p' "$readme" |
  awk -F'|' '/^\| `/{gsub(/[` ]/, "", $2); gsub(/[` ]/, "", $3)
    if ($3 == "*(empty)*") $3 = ""; print $2, $3}')
bad_defaults=$(printf '%s\n--\n%s\n' "$cli_defaults" "$table_defaults" |
  awk '$0 == "--" { table = 1; next }
       !table { cli[$1] = $2; next }
       ($1 in cli) && cli[$1] != $2 {
         printf "README knob table default of %s is \"%s\", describe " \
                "prints \"%s\"\n", $1, $2, cli[$1] }')
[ -z "$bad_defaults" ] || { echo "$bad_defaults" >&2; status=1; }

# Scenario names: `list --names` vs the bullets between the
# scenario-list markers.
cli_scenarios=$("$run_bin" list --names | sort -u)
readme_scenarios=$(sed -n '/scenario-list:begin/,/scenario-list:end/p' \
  "$readme" | sed -n 's/^\* `\([a-z_0-9]*\)`.*/\1/p' | sort -u)
[ -n "$readme_scenarios" ] || {
  echo "no scenario list found in $readme" >&2; exit 1; }
same_set "scenario list" "$cli_scenarios" "$readme_scenarios"

# Trace categories: every comma-joined word list in the README (backticks
# stripped) with at least three category names must be exactly the list
# describe prints. Lists after '=' are usage examples of a subset.
cli_cats=$(echo "$describe" | sed -n 's/.*trace categories: *//p')
[ -n "$cli_cats" ] || { echo "describe printed no trace categories" >&2; exit 1; }
readme_cats=$(tr -d '`' < "$readme" | awk -v vocab="$cli_cats" '
  BEGIN { n = split(vocab, v, ","); for (i = 1; i <= n; i++) known[v[i]] = 1 }
  {
    line = $0
    while (match(line, /=?[a-z]+(,[a-z]+)+/)) {
      tok = substr(line, RSTART, RLENGTH)
      line = substr(line, RSTART + RLENGTH)
      if (substr(tok, 1, 1) == "=") continue
      m = split(tok, w, ",")
      hits = 0
      for (i = 1; i <= m; i++) hits += (w[i] in known)
      if (hits >= 3) print tok
    }
  }')
[ -n "$readme_cats" ] || {
  echo "no trace category list found in $readme" >&2; exit 1; }
for list in $readme_cats; do
  [ "$list" = "$cli_cats" ] || {
    echo "README trace categories '$list' differ from describe:" \
         "'$cli_cats'" >&2
    status=1; }
done

[ $status -eq 0 ] &&
  echo "README knob table (names and defaults), scenario list and trace" \
       "categories match the CLI"
exit $status
