#!/bin/sh
# The pinned `compc check` set: the generated-program sweeps and the
# fault-plan file checks whose reports test/check_sweeps.expected
# holds.  For each command it prints the command line (without the
# pool width), the command's stdout and stderr, and its exit code.
#
# Usage: check_sweeps.sh COMPC JOBS   (run from the test directory)

compc=$1
jobs=$2

run() {
  echo "\$ compc check $*"
  "$compc" check "$@" --jobs "$jobs" 2>&1
  echo "[exit $?]"
}

run --runs 2 --seed 11
run --runs 3 --seed 7 -O
run --runs 3 --seed 7 --residency
run --runs 2 --seed 11 --devices 3 --streams 2 \
  --faults "dev0:kill@0,dead-after=1,seed=7"
run --runs 1 --seed 7 --inject-bug
run --runs 3 --seed 7 --eval reference --nblocks 40 --devices 2 --streams 2
run --runs 5 --seed 3 --transform merge --inject-bug
run corpus/res_reset_midloop.mc --residency --faults "reset@0.001,seed=5"
run corpus/mig_deaddev.mc --devices 3 --streams 2 \
  --faults "dev0:kill@0,dead-after=1,seed=7"
