#!/usr/bin/env bash
# Run one fixed list of CLI commands in two checkouts and compare every
# artifact, stdout, stderr and exit code byte for byte.
#
#   tools/cli_bytes.sh BASE_TREE HEAD_TREE
#
# Each tree runs the list in a fresh directory of its own, with that tree's
# src/ first on PYTHONPATH and relative output paths, so the resolved-config
# lines on stderr match too.  Prints the differences and exits 1 if any byte
# differs.
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 BASE_TREE HEAD_TREE" >&2
  exit 2
fi

COMMANDS=(
  "catenary --alpha 2 --length 2 --step 1e-3 --out catenary.csv"
  # leaves the halfplane: exit 2
  "catenary --alpha -2 --length 2 --step 1e-3 --out catenary_halfspace.csv"
  # leaves the halfplane after 2 nodes, a path too short for a table: exit 2
  "catenary --alpha -2 --y0 0.001 --theta0 -1.5 --length 1 --step 1e-3 --out catenary_short.csv"
  # the two exits above are at stage b of step 1312 and at stage c of step 2;
  # these leave the halfplane at stage c of step 130 and at stage d of step
  # 400, where the step's node, taken past the floor, would lie above it, and
  # at the new node after the full step 67
  "catenary --alpha -0.5 --y0 0.2 --theta0 -0.59 --length 2 --step 2e-3 --out catenary_stage_c.csv"
  "catenary --alpha -0.5 --y0 0.2 --theta0 0 --length 3 --step 1e-3 --out catenary_stage_d.csv"
  "catenary --alpha -0.5 --y0 0.1 --theta0 0.41 --length 1 --step 5e-3 --out catenary_node.csv"
  # 1.3 / 3e-3 = 433.3 rounds to 433 steps of 1.3 / 433, not of --step
  "catenary --alpha 2 --theta0 0.2 --length 1.3 --step 3e-3 --out catenary_rounded.csv"
  "residual --surface catenary-cylinder --grid 20x20 --out residual_catenary.csv"
  "residual --surface catenary-cylinder --alpha -2 --grid 9x40 --out residual_catenary_m2.csv"
  # v = -e2 leaves the halfspace at s = 0, t ~ 0.0256: exit 3, after a pointwise
  # replay of the failed block through the cylinder's jet_fn
  "residual --surface catenary-cylinder --v=0,-1,0 --grid 9x40 --out residual_catenary_off.csv"
  "residual --surface helicoid --grid 20x20 --out residual_helicoid.csv"
  "residual --surface sphere --grid 12x9 --out residual_sphere.csv"
  "residual --surface hyperboloid --metric lorentz --grid 20x20 --out residual_hyperboloid.csv"
  "residual --surface lightlike-reference --grid 9x9 --out residual_lightlike.csv"
  # a sphere is not spacelike: exit 3
  "residual --surface sphere --metric lorentz --grid 12x9 --out residual_sphere_lorentz.csv"
  # v = -e1 leaves the halfspace mid-row: exit 3, at the 11th cell of the first
  # row, then in a row longer than surface.GRID_BLOCK
  "residual --surface helicoid --v=-1,0,0 --grid 20x20 --out residual_helicoid_off.csv"
  "residual --surface helicoid --v=-1,0,0 --grid 2x5000 --out residual_helicoid_wide.csv"
  "export-mesh --surface catenary-cylinder --grid 30x20 --out mesh.obj"
  # one mesh for each kind of grid evaluator: a grid_fn of its own (sphere,
  # hyperboloid) or a ruled surface's grid_jet (helicoid, lightlike-reference)
  "export-mesh --surface sphere --grid 12x9 --out mesh_sphere.obj"
  "export-mesh --surface hyperboloid --grid 20x20 --out mesh_hyperboloid.obj"
  "export-mesh --surface helicoid --grid 20x20 --out mesh_helicoid.obj"
  "export-mesh --surface lightlike-reference --grid 9x9 --out mesh_lightlike.obj"
  "sweep --metric euclid --class standard --n 5 --samples 4 --seed 9 --out sweep_euclid.json"
  "sweep --metric lorentz --class nondegenerate --delta 1 --n 5 --samples 4 --seed 9 --out sweep_lorentz_p.json"
  "sweep --metric lorentz --class nondegenerate --delta -1 --n 5 --samples 4 --seed 9 --out sweep_lorentz_m.json"
  "sweep --metric lorentz --class lightlike --n 5 --samples 4 --seed 9 --out sweep_lightlike.json"
  # the last chunk holds one draw, so its frame table is built by the scalar path
  "sweep --metric euclid --class standard --n 33 --samples 2 --seed 9 --out sweep_euclid33.json"
  "sweep --metric lorentz --class nondegenerate --delta -1 --n 33 --samples 2 --seed 9 --out sweep_lorentz_m33.json"
  "sweep --metric lorentz --class nondegenerate --delta 1 --n 33 --samples 2 --seed 9 --out sweep_lorentz_p33.json"
  # a remainder of two draws
  "sweep --metric euclid --class standard --n 34 --samples 2 --seed 9 --out sweep_euclid34.json"
  # a full chunk and a remainder chunk of 8, scored at an odd sample count
  "sweep --metric lorentz --class lightlike --n 40 --samples 17 --seed 9 --out sweep_lightlike40.json"
  "sweep --metric lorentz --class nondegenerate --delta 1 --n 40 --samples 17 --seed 9 --out sweep_lorentz_p40.json"
  "sweep --metric euclid --class standard --n 40 --samples 17 --seed 9 --out sweep_euclid40.json"
  # either side of each class's batch crossover (ruled._MIN_BATCH): 7 draws are
  # scalar builds and 8 a batch in the Euclidean class, 4 and 5 in the Lorentz
  # class (the n = 5 sweeps above)
  "sweep --metric euclid --class standard --n 7 --samples 4 --seed 9 --out sweep_euclid7.json"
  "sweep --metric euclid --class standard --n 8 --samples 4 --seed 9 --out sweep_euclid8.json"
  "sweep --metric lorentz --class nondegenerate --delta 1 --n 4 --samples 4 --seed 9 --out sweep_lorentz_p4.json"
  "sweep --metric lorentz --class nondegenerate --delta -1 --n 4 --samples 4 --seed 9 --out sweep_lorentz_m4.json"
  # a chunk of 32 and a batch remainder of 8 at delta -1
  "sweep --metric lorentz --class nondegenerate --delta -1 --n 40 --samples 17 --seed 9 --out sweep_lorentz_m40.json"
  # one sample: a (5, 1) stencil read
  "sweep --metric euclid --class standard --n 5 --samples 1 --seed 9 --out sweep_euclid1.json"
  "sweep --metric lorentz --class nondegenerate --delta 1 --n 5 --samples 1 --seed 9 --out sweep_lorentz_p1.json"
  "sweep --metric lorentz --class nondegenerate --delta -1 --n 5 --samples 1 --seed 9 --out sweep_lorentz_m1.json"
  "sweep --metric lorentz --class lightlike --n 5 --samples 1 --seed 9 --out sweep_lightlike1.json"
  # the bench's shape: one batch of 10, scored in one pass at 10 samples
  "sweep --metric euclid --class standard --n 10 --samples 10 --seed 3 --out sweep_euclid_bench.json"
  "sweep --metric lorentz --class nondegenerate --delta 1 --n 10 --samples 10 --seed 3 --out sweep_lorentz_p_bench.json"
  "sweep --metric lorentz --class nondegenerate --delta -1 --n 10 --samples 10 --seed 3 --out sweep_lorentz_m_bench.json"
  "sweep --metric lorentz --class lightlike --n 10 --samples 10 --seed 3 --out sweep_lightlike_bench.json"
  # 4000 samples cap a batch under ruled.MAX_SWEEP_SAMPLES at 25 surfaces: batches
  # of 25 and 8
  "sweep --metric lorentz --class nondegenerate --delta -1 --n 33 --samples 4000 --seed 9 --out sweep_lorentz_m_split.json"
  "variational --init noisy --noise 0.01 --seed 3 --grid 33x17 --steps 20 --out-prefix noisy"
  "residual --surface file --file noisy_field.csv --grid 20x20 --out residual_file.csv"
  "export-mesh --surface file --file noisy_field.csv --grid 20x20 --out mesh_file.obj"
  # the spline graph is not spacelike in L^3: exit 3
  "residual --surface file --file noisy_field.csv --metric lorentz --grid 20x20 --out residual_file_lorentz.csv"
  # the smallest spline a height field gives: 4x4 heights
  "variational --init noisy --noise 0.01 --seed 3 --grid 4x4 --steps 2 --out-prefix small"
  "residual --surface file --file small_field.csv --grid 7x5 --out residual_small.csv"
  "export-mesh --surface file --file small_field.csv --grid 7x5 --out mesh_small.obj"
  # alpha away from 1, where neither power in the energy kernel is an identity,
  # on a grid that is not square
  "variational --init noisy --noise 0.01 --seed 3 --alpha -0.7 --grid 23x9 --steps 15 --out-prefix alpha_m07"
  "variational --init noisy --noise 0.01 --seed 3 --alpha 2.5 --grid 23x9 --steps 15 --out-prefix alpha_25"
  # diverges: exit 5
  "variational --rate 1e9 --steps 30 --grid 17x9 --out-prefix diverged"
  # malformed grid: exit 1
  "residual --grid 3x4x99 --out residual_bad_grid.csv"
)

run_all() {  # TREE OUT_DIR
  local src k=0 code
  src="$(cd "$1" && pwd)/src"
  mkdir -p "$2"
  for cmd in "${COMMANDS[@]}"; do
    k=$((k + 1))
    code=0
    # $cmd is split on spaces on purpose: no argument in the list holds one
    (cd "$2" && PYTHONPATH="$src" python3 -m singular_geom.cli $cmd \
      >"cmd$k.stdout" 2>"cmd$k.stderr") || code=$?
    echo "$code" >"$2/cmd$k.exit"
  done
}

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
run_all "$1" "$work/base"
run_all "$2" "$work/head"
if diff -r "$work/base" "$work/head"; then
  echo "${#COMMANDS[@]} commands, $(ls "$work/head" | wc -l) files identical"
else
  echo "CLI bytes differ between $1 and $2" >&2
  exit 1
fi
