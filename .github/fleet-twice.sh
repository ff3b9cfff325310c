#!/bin/sh
# usage: sh .github/fleet-twice.sh DIR FLEET-ARGS...
#
# Run `python -m repro.fleet FLEET-ARGS` twice, once inside DIR/a and once
# inside DIR/b (relative output paths land there), then fail unless the
# two directories are byte-identical: a seeded fleet must reproduce every
# output file exactly.
set -eu
dir=$1
shift
export PYTHONPATH="$(pwd)/src"
for run in a b; do
    mkdir -p "$dir/$run"
    (cd "$dir/$run" && python -m repro.fleet "$@")
done
diff -r --brief "$dir/a" "$dir/b"
echo "ok: $dir/a and $dir/b are byte-identical"
