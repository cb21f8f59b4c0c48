#!/usr/bin/env bash
# Alternated parent/change runs of one bench/e2e workload: the A/B procedure
# a timing claim needs (one `go test -bench` pair moves ±20% on this class
# of host). Run from the root of a checkout:
#   bash bench/ab.sh <parent-rev> <workload> [pairs=5] [seconds=18]
#   make bench-ab PARENT=HEAD~1 W=batch_build N=5
# The parent revision is unpacked with `git archive` under
# .bench_build/ab/parent and builds there with a cache of its own, exactly
# as a fresh checkout would, and is removed again on exit (60 MB of another
# revision's source and build cache is a trap for every tool that walks the
# tree); the change is the working tree. Both sides build with
# GOFLAGS=-buildvcs=false: the unpacked parent has no .git, so otherwise only
# the change would carry VCS build stamps, which lengthen its build info and
# shift all of its data and read-only data by 32 bytes. Pair i runs
# both sides on seed i, the parent first when i is odd. Prints each pair's
# end-to-end metrics, then both medians and the verdict of
# `bench/e2e/run.sh -compare` on the two sample sets.
set -euo pipefail
parent=${1:?usage: bash bench/ab.sh <parent-rev> <workload> [pairs] [seconds]}
workload=${2:?usage: bash bench/ab.sh <parent-rev> <workload> [pairs] [seconds]}
pairs=${3:-5}
seconds=${4:-18}
metrics="setup_s op_ms ops_per_s peak_rss_mb"

export GOFLAGS="${GOFLAGS:+$GOFLAGS }-buildvcs=false"
root=$PWD
ab=$root/.bench_build/ab
rm -rf "$ab/parent"
trap 'rm -rf "$ab/parent"' EXIT
mkdir -p "$ab/parent"
git archive "$parent" | tar -x -C "$ab/parent"

# run <dir> <seed>: the run's last stdout line, its JSON report.
run() {
	(cd "$1" && bash bench/e2e/run.sh --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 | tail -n 1)
}
# metric <report> <name>
metric() {
	sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p" <<<"$1"
}

declare -A a b
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		ra=$(run "$ab/parent" "$i")
		rb=$(run "$root" "$i")
	else
		rb=$(run "$root" "$i")
		ra=$(run "$ab/parent" "$i")
	fi
	for r in "$ra" "$rb"; do
		grep -q '"correct":true' <<<"$r" || { echo "pair $i: a run failed its oracles: $r" >&2; exit 1; }
	done
	line="pair $i (seed $i)"
	for m in $metrics; do
		va=$(metric "$ra" "$m") vb=$(metric "$rb" "$m")
		a[$m]+="${a[$m]:+,}$va"
		b[$m]+="${b[$m]:+,}$vb"
		line+=$(printf '  %s %.4g -> %.4g' "$m" "$va" "$vb")
	done
	echo "$line"
done

# samples <a|b>: the file format `-all -out` writes and -compare reads.
samples() {
	local -n v=$1
	local sep=""
	printf '{"seed":1,"seconds":%s,"runs":{"%s":{' "$seconds" "$workload"
	for m in $metrics; do
		printf '%s"%s":[%s]' "$sep" "$m" "${v[$m]}"
		sep=,
	done
	printf '}}}\n'
}
samples a >"$ab/parent.json"
samples b >"$ab/change.json"
echo
echo "A = $parent, B = working tree"
bash bench/e2e/run.sh -compare "$ab/parent.json" "$ab/change.json" | grep -E "^workload|^$workload "
