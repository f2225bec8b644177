#!/usr/bin/env bash
# Compare the command-line output of the routes that scripts/check_bytes.sh
# does not pin, and the stdout of demos/04_rjmcmc_loglinear.py, between
# revision REV and the working tree:
#
#   scripts/compare_routes.sh REV
#
# REV's src/ and demos/ are exported with `git archive` into a temporary
# directory. Each config below runs once on REV's package and once on the
# working tree's, and the demo runs as each side's own copy on its own
# package, with the same interpreter on the same machine, so the check
# does not depend on which numpy, OpenBLAS or CPU kernel is in use. It
# exits non-zero when a route's stdout or exit code differs between the
# two, or when a route exits non-zero on either side (a config that
# fails pins nothing). The data are drawn by the standard library's
# random module, once, and shared by both sides.
set -euo pipefail
if [ "$#" -ne 1 ]; then
  echo "usage: $0 REV" >&2
  exit 2
fi
cd "$(dirname "$0")/.."
tree=$PWD
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev"
git archive "$1" src demos | tar -x -C "$tmp/rev"

python3 - "$tmp" <<'EOF'
import itertools
import random
import sys

rng = random.Random(7)
with open(f"{sys.argv[1]}/linear.csv", "w", encoding="utf-8") as f:
    f.write("y,x1,x2,x3,x4,x5\n")
    for _ in range(40):
        x = [rng.gauss(0.0, 1.0) for _ in range(5)]
        x[3] = x[2] + 0.3 * rng.gauss(0.0, 1.0)
        y = 1.0 + 2.0 * x[0] - x[2] + rng.gauss(0.0, 1.5)
        f.write(",".join(repr(v) for v in [y] + x) + "\n")
with open(f"{sys.argv[1]}/table.csv", "w", encoding="utf-8") as f:
    f.write("A,B,C,count\n")
    for cell in itertools.product(("a1", "a2"), ("b1", "b2", "b3"),
                                  ("c1", "c2")):
        f.write(",".join(cell) + f",{rng.randint(3, 30)}\n")
EOF

LINEAR="[data]
source = csv
path = $tmp/linear.csv
"
TABLE="[data]
source = csv
path = $tmp/table.csv
levels.A = a1, a2
levels.B = b1, b2, b3
levels.C = c1, c2

[space]
factors = A:2, B:3, C:2
forced = 1, A, B, C
candidates = A*B, A*C, B*C
"

status=0
# run NAME SIDE ROOT COMMAND...: run COMMAND in $tmp on the package under
# ROOT/src, keeping its stdout, stderr and exit code for compare.
run() {
  local name=$1 side=$2 root=$3 code=0
  shift 3
  (cd "$tmp" && PYTHONPATH=$root/src "$@" > "$tmp/$name.$side.out" \
    2> "$tmp/$name.$side.err") || code=$?
  echo "$code" > "$tmp/$name.$side.code"
}

# route NAME TASK: run the config read from stdin on both sides.
route() {
  local name=$1 task=$2
  cat > "$tmp/$name.ini"
  run "$name" rev "$tmp/rev" python3 -m jointbma "$task" \
    --config "$tmp/$name.ini"
  run "$name" tree "$tree" python3 -m jointbma "$task" \
    --config "$tmp/$name.ini"
  compare "$name"
}

# demo NAME FILE: run each side's own copy of the demo FILE.
demo() {
  run "$1" rev "$tmp/rev" python3 "$tmp/rev/$2"
  run "$1" tree "$tree" python3 "$tree/$2"
  compare "$1"
}

# compare NAME: report whether both sides gave the same stdout and code.
compare() {
  local name=$1
  if ! cmp -s "$tmp/$name.rev.code" "$tmp/$name.tree.code" ||
     ! cmp -s "$tmp/$name.rev.out" "$tmp/$name.tree.out"; then
    echo "DIFFERS  $name"
    diff "$tmp/$name.rev.out" "$tmp/$name.tree.out" | head -n 10 || true
    status=1
  elif [ "$(cat "$tmp/$name.tree.code")" != 0 ]; then
    echo "FAILED   $name: exit $(cat "$tmp/$name.tree.code") on both sides"
    cat "$tmp/$name.tree.err"
    status=1
  else
    echo "same     $name ($(wc -l < "$tmp/$name.tree.out") lines)"
  fi
}

route rjmcmc-identity-adjusted-info rjmcmc <<EOF
[experiment]
task = rjmcmc
seed = 1
$LINEAR
[prior]
template = identity
c2 = 9
[policy]
variants = adjusted_info
[rjmcmc]
iterations = 4000
EOF

route rjmcmc-identity-adjusted-exact-calibrated rjmcmc <<EOF
[experiment]
task = rjmcmc
seed = 2
$LINEAR
[prior]
template = identity
c2 = 100
alpha = 2
lambda = 3
[policy]
variants = adjusted_exact
baseline = calibrated
n0 = 24
psi0 = 1.5
[rjmcmc]
iterations = 4000
EOF

route rjmcmc-identity-adjusted-c-dimension rjmcmc <<EOF
[experiment]
task = rjmcmc
seed = 3
$LINEAR
[prior]
template = identity
c2 = 0.5
[policy]
variants = adjusted_c
baseline = dimension
log_weight = -0.35
[rjmcmc]
iterations = 4000
EOF

# The enumeration cap: 2^15 subsets of nott_kohn's 15 columns.
route rjmcmc-gprior-nott-kohn-p15 rjmcmc <<EOF
[experiment]
task = rjmcmc
seed = 8
[data]
source = generator
generator = nott_kohn
[prior]
template = gprior
c2 = 1e4
[policy]
variants = adjusted_info
[rjmcmc]
iterations = 5000
EOF

route rjmcmc-table-loglinear-adjusted rjmcmc <<EOF
[experiment]
task = rjmcmc
seed = 4
$TABLE
[prior]
template = term_blocks
scale = 4
[policy]
variants = loglinear_adjusted
[rjmcmc]
iterations = 2000
EOF

route cv-gelfand cv <<EOF
[experiment]
task = cv
seed = 5
$LINEAR
[prior]
c2_grid = 1,100,3
[policy]
variants = uniform, adjusted_exact
[cv]
mode = gelfand
num_draws = 200
EOF

route cv-exact-calibrated cv <<EOF
[experiment]
task = cv
$LINEAR
[prior]
c2_grid = 0.5,1e4,4
[policy]
variants = adjusted_info, adjusted_exact
baseline = calibrated
n0 = 30
psi0 = 2
EOF

route prior-probs-determinant-variants prior-probs <<EOF
[experiment]
task = prior-probs
$TABLE
[prior]
template = term_blocks
scale = 9
scale.B*C = 0.25
mean.A*B = 0.2 -0.1
[policy]
variants = adjusted_info, adjusted_exact, loglinear_adjusted
baseline = dimension
log_weight = -0.25
EOF

# Three-factor candidates: the only route where a candidate's margins
# decide which term sets it joins (113 models).
route prior-probs-three-factor prior-probs <<EOF
[experiment]
task = prior-probs
[space]
factors = A:2, B:3, C:2, D:2
forced = 1, A, B, C, D
candidates = A*B, A*C, A*D, B*C, B*D, C*D, A*B*C, A*B*D, A*C*D, B*C*D
[prior]
template = term_blocks
scale = 4
[policy]
variants = uniform, loglinear_adjusted
EOF

# A forced interaction whose margins are candidates: the only route
# where the forced terms' margins, present in every model, decide
# which candidates are left to choose (5 models).
route prior-probs-forced-margins prior-probs <<EOF
[experiment]
task = prior-probs
[space]
factors = A:2, B:3, C:2
forced = 1, A*B
candidates = A, B, C, A*C, B*C
[prior]
template = term_blocks
scale = 4
[policy]
variants = uniform, loglinear_adjusted
EOF

route sweep-adjusted-exact sweep <<EOF
[experiment]
task = sweep
$LINEAR
[prior]
c2_grid = 0.1,1e6,5
alpha = 1
lambda = 2
[policy]
variants = adjusted_exact, adjusted_info, loglinear_adjusted
[sweep]
top_k = 4
watch = 1+X1+X3
EOF

route sweep-dimension-baseline sweep <<EOF
[experiment]
task = sweep
$LINEAR
[prior]
c2_grid = 1,1e8,4
[policy]
variants = uniform, adjusted_c
baseline = dimension
log_weight = -0.5
[sweep]
top_k = 3
EOF

route sweep-calibrated-baseline sweep <<EOF
[experiment]
task = sweep
$LINEAR
[prior]
c2_grid = 1,1e8,4
[policy]
variants = uniform, adjusted_exact
baseline = calibrated
n0 = 24
psi0 = 1.5
[sweep]
top_k = 3
EOF

route shrinkage-fixed shrinkage <<EOF
[experiment]
task = shrinkage
[shrinkage]
n = 12
beta_hat = 0.8
sigma2 = 2
inv_c2_grid = 1e-6,10,9
EOF

route shrinkage-proportional shrinkage <<EOF
[experiment]
task = shrinkage
[shrinkage]
k_policy = proportional_inverse_c
k0 = 2
inv_c2_grid = 1e-6,10,9
EOF

route simulate-dfn simulate <<EOF
[experiment]
task = simulate
seed = 6
[data]
source = generator
generator = dfn
EOF

route simulate-nott-kohn simulate <<EOF
[experiment]
task = simulate
seed = 7
[data]
source = generator
generator = nott_kohn
EOF

# The only caller outside the tests of log_marginal_laplace and of
# term-block priors on a bare FactorSpec.
demo demo-04-rjmcmc-loglinear demos/04_rjmcmc_loglinear.py

exit "$status"
