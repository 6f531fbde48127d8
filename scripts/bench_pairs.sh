#!/bin/sh
# bench_pairs.sh — compare the benchmark at a parent commit and at HEAD.
#
#   scripts/bench_pairs.sh <parent-ref> <workload> <seed>...
#
# Exports both commits with `git archive` into two checkouts under a
# temporary directory (TMPDIR, else /tmp; removed on exit), and runs
# `bash bench/run.sh --workload <workload> --seed <seed>` in each, unchanged,
# once per seed: interleaved pairs whose order swaps every pair, so drift on
# the machine falls on both sides alike. Each side builds its own binary
# from its own source. Commit the change first: HEAD is what is measured.
#
# For every end-to-end metric of BENCHMARK.json it prints each side's median
# and quartiles and in how many pairs the change was better, then whether
# the counts (failed, attempted, and every metric but setup_s, peak_rss_mb
# and mallocs_per_delivery) match seed by seed. The raw result lines are
# kept in results.txt next to the two checkouts while the script runs and
# printed at the end.
#
# POSIX sh; needs git, tar, awk and the go toolchain.
set -eu
cd "$(dirname "$0")/.."

if [ "$#" -lt 3 ]; then
    echo "usage: $0 <parent-ref> <workload> <seed>..." >&2
    exit 2
fi
parent=$(git rev-parse --short --verify "$1^{commit}")
change=$(git rev-parse --short --verify "HEAD^{commit}")
workload=$2
shift 2

tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/parent" "$tmp/change"
git archive "$parent" | tar -x -C "$tmp/parent"
git archive "$change" | tar -x -C "$tmp/change"

# run <side> <seed>: one benchmark run; appends "<side> <seed> <json>".
run() {
    out=$(cd "$tmp/$1" && bash bench/run.sh --workload "$workload" --seed "$2" 2>"$tmp/$1.log" | tail -n 1) || {
        echo "bench_pairs: $1 run failed for seed $2; its log:" >&2
        cat "$tmp/$1.log" >&2
        exit 1
    }
    echo "$1 $2 $out" >>"$tmp/results.txt"
}

echo "bench_pairs: $workload, parent $parent vs change $change, seeds $*" >&2
i=0
for seed in "$@"; do
    if [ $((i % 2)) -eq 0 ]; then
        run parent "$seed"
        run change "$seed"
    else
        run change "$seed"
        run parent "$seed"
    fi
    i=$((i + 1))
    echo "bench_pairs: pair $i of $# done (seed $seed)" >&2
done

# Metric names and their better direction, in BENCHMARK.json's order.
defs=$(awk '
    /"end_to_end"/ { on = 1 }
    on && /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
    on && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }
' "$tmp/change/BENCHMARK.json")

echo "$defs" | awk -v results="$tmp/results.txt" '
    function val(json, key,    s) {
        s = json
        if (!sub(".*\"" key "\":", "", s)) return ""
        sub(/^\{"value":/, "", s)
        sub(/[,}].*/, "", s)
        return s
    }
    # quart(a, n, q): the q-th quartile (1, 2, 3) of the n sorted values
    # in a, each half of the list split at its median.
    function quart(a, n, q,    lo, hi, m) {
        if (q == 2) { lo = 1; hi = n }
        else if (q == 1) { lo = 1; hi = int(n / 2) }
        else { lo = int((n + 1) / 2) + 1; hi = n }
        if (hi < lo) { lo = 1; hi = n }
        m = hi - lo + 1
        if (m % 2) return a[lo + (m - 1) / 2]
        return (a[lo + m / 2 - 1] + a[lo + m / 2]) / 2
    }
    function sorted(src, n, dst,    i, j, t) {
        for (i = 1; i <= n; i++) dst[i] = src[i]
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
    }
    { names[++nm] = $1; better[$1] = $2 }
    END {
        while ((getline line < results) > 0) {
            split(line, f, " ")
            side = f[1]; seed = f[2]; json = substr(line, length(side) + length(seed) + 3)
            if (!(seed in seen)) { seen[seed] = 1; seeds[++ns] = seed }
            for (k = 1; k <= nm; k++) v[side, seed, names[k]] = val(json, names[k])
            v[side, seed, "failed"] = val(json, "failed")
            v[side, seed, "attempted"] = val(json, "attempted")
        }
        printf "%-24s %-34s %-34s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change better"
        for (k = 1; k <= nm; k++) {
            m = names[k]; wins = 0
            for (s = 1; s <= ns; s++) {
                p[s] = v["parent", seeds[s], m] + 0; c[s] = v["change", seeds[s], m] + 0
                if ((better[m] == "lower" && c[s] < p[s]) || (better[m] == "higher" && c[s] > p[s])) wins++
            }
            sorted(p, ns, ps); sorted(c, ns, cs)
            printf "%-24s %-34s %-34s %d of %d\n", m,
                sprintf("%.6g [%.6g, %.6g]", quart(ps, ns, 2), quart(ps, ns, 1), quart(ps, ns, 3)),
                sprintf("%.6g [%.6g, %.6g]", quart(cs, ns, 2), quart(cs, ns, 1), quart(cs, ns, 3)), wins, ns
        }
        differ = ""
        for (s = 1; s <= ns; s++) {
            for (k = 0; k <= nm + 1; k++) {
                m = k == 0 ? "failed" : k == nm + 1 ? "attempted" : names[k]
                if (m == "setup_s" || m == "peak_rss_mb" || m == "mallocs_per_delivery") continue
                if (v["parent", seeds[s], m] != v["change", seeds[s], m]) {
                    differ = differ sprintf("  seed %s: %s %s -> %s\n", seeds[s], m, v["parent", seeds[s], m], v["change", seeds[s], m])
                }
            }
        }
        if (differ == "") print "counts: match seed by seed"
        else printf "counts: differ\n%s", differ
    }
'
echo "raw results:"
cat "$tmp/results.txt"
