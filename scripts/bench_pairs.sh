#!/bin/sh
# Interleaved parent/change runs of the repo benchmark (choosing-metrics §8).
# usage: scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR [PAIRS=10] [SEED0=1]
# Both checkouts must hold a built harness:
#   cargo build --release --offline --manifest-path DIR/benchmark/Cargo.toml
# Pair i runs both sides on seed SEED0+i, the parent first on even i and the
# change first on odd i. Prints, per workload x end-to-end metric, each side's
# median [q1, q3], change/parent, and the pairs the change won (ties count for
# neither side). A gain is claimed at >= 9/10 pairs won and medians further
# apart than the parent's q3 - q1; failed_ratio must stay 0.
set -eu
[ $# -ge 2 ] || { sed -n '2,4p' "$0" >&2; exit 2; }
parent=$1 change=$2 pairs=${3:-10} seed0=${4:-1}
bin=benchmark/target/release/mflow-benchmark
log=$(mktemp)
trap 'rm -f "$log"' EXIT
i=0
while [ "$i" -lt "$pairs" ]; do
    if [ $((i % 2)) -eq 0 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        eval dir=\$$side
        echo "pair $i seed $((seed0 + i)): $side" >&2
        "$dir/$bin" --seed $((seed0 + i)) |
            awk -v tag="$i $side" '$6 == "is" || $2 == "failed_ratio" { print tag, $1, $2, $3, $5 }' >>"$log"
    done
    i=$((i + 1))
done
awk '
function quantile(key, n, q,    i, j, t, s, pos, lo) {
    for (i = 0; i < n; i++) s[i] = v[key, i]
    for (i = 1; i < n; i++) for (j = i; j > 0 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
    pos = (n - 1) * q; lo = int(pos)
    return lo + 1 < n ? s[lo] + (pos - lo) * (s[lo + 1] - s[lo]) : s[lo]
}
{
    m = $3 " " $4; if (!(m in seen)) { seen[m] = 1; order[k++] = m }
    v[m, $2, $1] = $5; if ($1 + 1 > n) n = $1 + 1; higher[m] = ($6 == "(higher")
}
END {
    printf "%-28s %-36s %-36s %7s %s\n", "workload metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "won"
    for (j = 0; j < k; j++) {
        m = order[j]; won = 0
        for (i = 0; i < n; i++) { p = v[m, "parent", i]; c = v[m, "change", i]; won += higher[m] ? c > p : c < p }
        for (s = 0; s < 2; s++) { key = m SUBSEP (s ? "change" : "parent")
            cell[s] = sprintf("%.5g [%.5g, %.5g]", med[s] = quantile(key, n, 0.5), quantile(key, n, 0.25), quantile(key, n, 0.75)) }
        printf "%-28s %-36s %-36s %7s %d/%d\n", m, cell[0], cell[1], med[0] ? sprintf("%.3f", med[1] / med[0]) : "-", won, n
    }
}' "$log"
