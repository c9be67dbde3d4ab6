#!/bin/sh
# Usage: scripts/pairs.sh BASE HEAD WORKLOAD PAIRS FIRST_SEED
#
# Compares two versions of the repository on one benchmark workload with
# alternating runs: pair i runs both sides on seed FIRST_SEED+i-1, BASE first
# in odd pairs and HEAD first in even ones, so a drift of the machine's speed
# over the runs falls on both sides alike. BASE and HEAD are commits
# (anything git rev-parse takes), each checked out with git worktree under a
# temporary directory that is removed on exit, or "." for the working tree as
# it stands, uncommitted changes included. Each side is built and run by its
# own benchmark/run.sh (15 measured seconds, tracing off).
#
# Prints every run's result line (the benchmark's last output line) as
# "raw SIDE SEED {json}", then for each end-to-end metric the median and
# quartiles of each side, the change of the medians, how many pairs HEAD read
# lower than BASE in, and whether the medians differ by more than BASE's
# interquartile range. Quartiles are the medians of the lower and upper
# halves. Exits non-zero if a run fails or answers wrongly.
set -eu

if [ $# -ne 5 ]; then
    echo "usage: $0 BASE HEAD WORKLOAD PAIRS FIRST_SEED" >&2
    exit 2
fi
base=$1 head=$2 workload=$3 pairs=$4 first=$5
case "$pairs$first" in
*[!0-9]*)
    echo "pairs.sh: PAIRS and FIRST_SEED must be non-negative integers" >&2
    exit 2
    ;;
esac

repo=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
cleanup() {
    for side in base head; do
        if [ -d "$tmp/$side" ]; then
            git -C "$repo" worktree remove --force "$tmp/$side" || true
        fi
    done
    git -C "$repo" worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

# checkout SIDE REV prints the directory SIDE runs from.
checkout() {
    if [ "$2" = "." ]; then
        echo "$repo"
        return
    fi
    rev=$(git -C "$repo" rev-parse --verify "$2^{commit}")
    git -C "$repo" worktree add --quiet --detach "$tmp/$1" "$rev" >&2
    echo "$tmp/$1"
}
base_dir=$(checkout base "$base")
head_dir=$(checkout head "$head")
echo "# base $base: $(git -C "$base_dir" describe --always --dirty) in $base_dir"
echo "# head $head: $(git -C "$head_dir" describe --always --dirty) in $head_dir"

# run SIDE SEED runs one side once and appends its result line.
run() {
    if [ "$1" = base ]; then dir=$base_dir; else dir=$head_dir; fi
    log="$tmp/$1-$2.out"
    if ! sh "$dir/benchmark/run.sh" --workload "$workload" --seed "$2" --seconds 15 --trace 0 > "$log" 2> "$log.err"; then
        echo "pairs.sh: $1 run on seed $2 failed:" >&2
        tail -n 5 "$log.err" "$log" >&2
        exit 1
    fi
    line=$(tail -n 1 "$log")
    echo "raw $1 $2 $line"
    echo "$1 $2 $line" >> "$tmp/results"
}

# The first run of each side would otherwise pay its build.
for dir in "$base_dir" "$head_dir"; do
    sh "$dir/benchmark/run.sh" -manifest > /dev/null
done

i=1
while [ "$i" -le "$pairs" ]; do
    seed=$((first + i - 1))
    if [ $((i % 2)) -eq 1 ]; then
        run base "$seed"
        run head "$seed"
    else
        run head "$seed"
        run base "$seed"
    fi
    i=$((i + 1))
done

awk -v workload="$workload" '
function sortv(a, n,    i, j, x) {
    for (i = 2; i <= n; i++) {
        x = a[i]
        for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]
        a[j + 1] = x
    }
}
# med returns the median of a[lo..hi], a sorted.
function med(a, lo, hi,    n) {
    n = hi - lo + 1
    if (n % 2) return a[lo + (n - 1) / 2]
    return (a[lo + n / 2 - 1] + a[lo + n / 2]) / 2
}
# stats sets m, q1 and q3 of the n values of side s for metric k.
function stats(s, k, n,    a, i, h) {
    for (i = 1; i <= n; i++) a[i] = val[s, k, i]
    sortv(a, n)
    m = med(a, 1, n)
    h = int(n / 2)
    q1 = n > 1 ? med(a, 1, h) : a[1]
    q3 = n > 1 ? med(a, n - h + 1, n) : a[1]
}
{
    side = $1; seed = $2
    line = $0
    sub(/^[^ ]+ [^ ]+ /, "", line)
    idx = ++runs[side]
    seedof[side, idx] = seed
    if (line !~ /"correct":true/) wrong[side]++
    f = line; sub(/.*"failed":/, "", f); sub(/[^0-9].*/, "", f); failed[side] += f
    rest = line; sub(/.*"metrics":\{/, "", rest)
    while (match(rest, /"[A-Za-z0-9_.]+":\{"value":[-+0-9.eE]+/)) {
        item = substr(rest, RSTART + 1, RLENGTH - 1)
        name = item; sub(/".*/, "", name)
        v = item; sub(/.*"value":/, "", v)
        if (!(name in known)) { known[name] = 1; order[++nk] = name }
        val[side, name, idx] = v + 0
        rest = substr(rest, RSTART + RLENGTH)
    }
}
END {
    n = runs["base"]
    if (n == 0 || runs["head"] != n) { print "pairs.sh: unequal runs" > "/dev/stderr"; exit 1 }
    printf "# %s, %d pairs (seeds %d..%d); failed requests: base %d, head %d\n", workload, n, seedof["base", 1], seedof["base", n], failed["base"], failed["head"]
    printf "%-22s %12s %25s %12s %25s %9s %8s %s\n", "metric", "base median", "[q1 .. q3]", "head median", "[q1 .. q3]", "change", "head<", "|gap| > base IQR"
    for (j = 1; j <= nk; j++) {
        k = order[j]
        lower = 0
        for (i = 1; i <= n; i++) if (val["head", k, i] < val["base", k, i]) lower++
        stats("base", k, n); bm = m; bq1 = q1; bq3 = q3
        stats("head", k, n); hm = m; hq1 = q1; hq3 = q3
        change = bm != 0 ? 100 * (hm - bm) / bm : 0
        gap = hm - bm; if (gap < 0) gap = -gap
        printf "%-22s %12.4f [%10.4f .. %10.4f] %12.4f [%10.4f .. %10.4f] %+8.2f%% %3d of %d %s\n", k, bm, bq1, bq3, hm, hq1, hq3, change, lower, n, (gap > bq3 - bq1 ? "yes" : "no")
    }
    if (wrong["base"] + wrong["head"] > 0) { print "pairs.sh: a run answered wrongly" > "/dev/stderr"; exit 1 }
}' "$tmp/results"
