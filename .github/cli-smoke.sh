#!/bin/sh
# Run each CLI command once and fail on a non-zero exit or a traceback.
# Then run each bad input once and fail unless it ends with its documented
# exit code and exactly one "error:" line on stderr, without a traceback.
# CLI names the command to run: the installed console script by default,
# or e.g. CLI="python -m subconverge.cli" with PYTHONPATH=src.
CLI=${CLI:-subconverge}
err=$(mktemp)
# A Ricker model whose coefficients vary with n: periodic a, and a
# tabulated coefficient on the middle lag.
cfg=$(mktemp)
cat > "$cfg" <<'JSON'
{"model": "ricker",
 "params": {"lambda": 1.5, "k": 1, "a": [0.5, 1, 1.5],
            "b": [0.5, {"kind": "tabulated", "values": [0.7, 0.8, 0.9],
                        "fallback": 0.8}, 0.9]},
 "initial": [1, 1, 1], "steps": 300}
JSON
# A fold config that sets its own number of steps.
fold_cfg=$(mktemp)
cat > "$fold_cfg" <<'JSON'
{"model": "adult-juvenile", "initial": [1, 1], "steps": 3}
JSON
# Periodic coefficients, which only a config can give: each reaches a
# map (and for the swapped competition its sigma) rendered for
# step-dependent coefficients.
aj_cfg=$(mktemp)
cat > "$aj_cfg" <<'JSON'
{"model": "adult-juvenile", "params": {"s": [0.8, 0.6, 0.9]},
 "initial": [1, 1], "steps": 100}
JSON
swapped_cfg=$(mktemp)
cat > "$swapped_cfg" <<'JSON'
{"model": "competition-swapped", "params": {"r1": [1, 1.2]},
 "initial": [2, 1], "steps": 100}
JSON
sigmoid_cfg=$(mktemp)
cat > "$sigmoid_cfg" <<'JSON'
{"model": "sigmoid-bh",
 "params": {"a": [2, 1.5], "c": [1, 0.5], "q": 2, "p": 3, "b": 1,
            "k": 1, "l": 2},
 "initial": [1.1, 1.1], "steps": 300}
JSON
threed_cfg=$(mktemp)
cat > "$threed_cfg" <<'JSON'
{"model": "threed", "params": {"a": [1, 0.8], "p": [0.1, -0.2]},
 "initial": [0.9, 1.1, 1], "steps": 100}
JSON
# The benchmark's Ricker model, with a periodic a and a tabulated middle
# coefficient, over a million steps: its orbit repeats with period 12
# from step 103, and the loop copies its blocks from there.  Its analyze
# report stops its scans at the repeat the orbit records.
long_cfg=$(mktemp)
cat > "$long_cfg" <<'JSON'
{"model": "ricker",
 "params": {"lambda": 1.8, "k": 2, "a": [0.5, 1, 1.5],
            "b": [0.4, {"kind": "tabulated", "values": [0.5, 0.7, 0.6, 0.8],
                        "fallback": 0.6}, 0.3]},
 "initial": [0.5, 1, 1.5], "steps": 1000000}
JSON
# The 3D system with a periodic a and p, for a million-step fold check:
# its fold's coefficients repeat as a and p do, so both orbits are copied.
threed_long_cfg=$(mktemp)
cat > "$threed_long_cfg" <<'JSON'
{"model": "threed", "params": {"a": [1, 0.8], "p": [0.1, -0.2]},
 "initial": [0.9, 1.1, 1], "steps": 1000000}
JSON
# Adult-juvenile with a periodic s, for a million-step fold check.
aj_long_cfg=$(mktemp)
cat > "$aj_long_cfg" <<'JSON'
{"model": "adult-juvenile", "params": {"s": [0.8, 0.6, 0.9]},
 "initial": [1, 1], "steps": 1000000}
JSON
# sp3's rigorous k = 1 bound, the Ricker bound without a lag-1 coefficient.
rigorous_cfg=$(mktemp)
cat > "$rigorous_cfg" <<'JSON'
{"model": "sp3", "params": {"k": 1, "rigorous": true}, "initial": [1, 1, 1]}
JSON
# A config that gives a JSON boolean where a number belongs.
bool_cfg=$(mktemp)
cat > "$bool_cfg" <<'JSON'
{"model": "sp3", "steps": true}
JSON
# A directory that does not exist, for an --out that cannot be written.
no_dir=$(mktemp -u)
status=0
# The list below is expanded by the shell, so that $cfg, $fold_cfg,
# $rigorous_cfg, $long_cfg and the periodic configs name the files.  The
# tangent Ricker orbit from 0.99999999, which g maps to itself, starts
# outside the window.  The three 30,000-step planar commands are the
# benchmark's repeating planar cases: each orbit, and the fold check,
# repeats within its first block and is copied from there.  The last
# five commands overflow in a power whose term is finite (the maps then
# take the term in logs), so they too must exit 0.
while read -r args; do
    # shellcheck disable=SC2086  # $CLI and $args are word lists
    if ! $CLI $args > /dev/null 2> "$err" || grep -q Traceback "$err"; then
        echo "FAILED: $CLI $args" >&2
        cat "$err" >&2
        status=1
    fi
done <<COMMANDS
models
simulate --model sp3 --k 3 --init 1,1,1 --steps 300
simulate --model sigmoid-bh --p 3 --b 1 --init 0.2 --steps 30
simulate --model competition-swapped --init 2,1 --steps 50
simulate --model threed --init 0.9,1.1,1 --steps 50
simulate --model threed --init 0.9,1.1,1 --steps 200000
analyze --model sp3 --k 2 --init 1,1,1 --steps 300
analyze --model ricker --lambda 1.1 --a 2.5 --b 1 --init 0.5 --steps 50
analyze --model ricker --lambda 2 --a 1 --b 1 --init 0.99999999 --steps 5
analyze --config $cfg
analyze --config $rigorous_cfg
analyze --model sigmoid-bh --a 2 --c 1 --q 2 --p 3 --b 1 --k 1 --l 2 --init 1.1,1.1 --steps 300
analyze --model sigmoid-bh --a 0.7 --b 2.6 --p 2 --init 3.2 --steps 40
analyze --model sigmoid-bh --p 3 --b 1 --init 0.2 --steps 30
analyze --model adult-juvenile --init 1,1 --steps 200
analyze --model competition --init 2,1 --steps 200
analyze --model competition-swapped --init 2,1 --steps 200
analyze --model adult-juvenile --init 1,1 --steps 30000
analyze --model competition --init 2,1 --steps 30000
fold --model competition --r1 3 --r2 3 --a1 1 --a2 1 --b1 0.3 --b2 0.3 --init 2,1 --steps 30000
analyze --model competition --delta2 400 --init 0.5,0.5 --steps 20
analyze --model competition --r1 50 --a1 600 --init 25,1 --steps 60
analyze --model competition --r1 2 --a1 1.0000000000000002 --init 1,1 --steps 60
analyze --model adult-juvenile --lambda 21 --r -39 --init 19,19 --steps 60
analyze --model adult-juvenile --s 0.01 --init 1,1 --steps 50
analyze --model competition-swapped --b1 1e6 --init 1,1 --steps 30
analyze --model competition-swapped --delta1 30 --init 1,1 --steps 30
analyze --model competition-swapped --delta1 400 --init 0.5,0.5 --steps 20
analyze --model competition-swapped --r1 2.4775435411239406 --r2 2.1597108745573808 --a1 2.0098908143898324 --a2 1.596075972834719 --delta1 2.7115852941823113 --delta2 2.445635238355775 --b1 0.5608716508659177 --b2 0.880629950850026 --init 2.4008015981807587,0.5526209873182195 --steps 300
threshold --model sp3 --k 3 --json
threshold --model ricker --json
threshold --model competition --r1 4 --a1 1 --json
threshold --model adult-juvenile --json
threshold --model competition-swapped --r1 3 --r2 3 --a1 1 --a2 1 --json
threshold --model competition --delta1 3 --a1 1e-300 --json
analyze --model competition --delta1 3 --a1 1e-300 --init 0.5,0.5 --steps 20
fold --model adult-juvenile --init 1,1 --steps 100
fold --model competition --r1 3 --r2 3 --a1 2 --a2 2 --b1 0.5 --b2 0.5 --init 1.5,1.5 --steps 100
fold --model competition-swapped --init 2,1 --steps 100
fold --model threed --init 0.9,1.1,1 --steps 100
fold --config $fold_cfg
fold --config $aj_cfg
fold --config $swapped_cfg
analyze --config $sigmoid_cfg
fold --config $threed_cfg
simulate --config $long_cfg --format json
analyze --config $long_cfg
simulate --model ricker --lambda 1000 --b 1000 --init 2.5 --steps 3
simulate --model ricker --lambda 5 --k 1 --a 10 --b 1e-15 --init 50 --steps 50
simulate --model competition --b1 1 --delta3 2 --init 1,1e200 --steps 3
simulate --model adult-juvenile --init 1e200,1 --steps 2
fold --model adult-juvenile --init 1e200,1 --steps 3
COMMANDS
# A planar simulate --format json output reads back as a config.
orbit=$(mktemp)
# shellcheck disable=SC2086  # $CLI is a word list
if ! $CLI simulate --model adult-juvenile --init 1,1 --steps 3 \
        --format json --out "$orbit" 2> "$err" \
        || ! $CLI analyze --config "$orbit" > /dev/null 2>> "$err" \
        || grep -q Traceback "$err"; then
    echo "FAILED: simulate --format json, then analyze --config" >&2
    cat "$err" >&2
    status=1
fi
# The million-step Ricker orbit as JSON holds 1,000,003 terms (three
# initial values), and from index 103 on each term is written as the term
# 12 later is, but not the one before: the copied cycle keeps its phase
# through the console script.  The terms are read as their text.
# shellcheck disable=SC2086  # $CLI is a word list
if ! $CLI simulate --config "$long_cfg" --format json > "$orbit" \
        2> "$err" || grep -q Traceback "$err" \
        || ! python -c 'import json, sys
t = json.load(open(sys.argv[1]), parse_float=str)["terms"]
sys.exit(not (len(t) == 1000003 and t[103:-12] == t[115:]
              and t[102] != t[114]))' "$orbit"; then
    echo "FAILED: simulate --config \$long_cfg --format json must give" \
        "1,000,003 terms repeating with period 12 from index 103" >&2
    cat "$err" >&2
    status=1
fi
# A planar fold check that stops early (sigma_0 has no preimage) exits 0,
# and its payload says why it stopped.
folded=$(mktemp)
# shellcheck disable=SC2086  # $CLI is a word list
if ! $CLI fold --model competition-swapped --init 1,1e10 --steps 100 \
        > "$folded" 2> "$err" || grep -q Traceback "$err" \
        || ! grep -q '"stopped": "' "$folded"; then
    echo "FAILED: fold that stops early must exit 0 and say why" >&2
    cat "$err" "$folded" >&2
    status=1
fi
# A million-step fold check of an orbit that repeats bit for bit (the
# check ends at the first repeated block) exits 0 and passes.
# shellcheck disable=SC2086  # $CLI is a word list
if ! $CLI fold --model competition --r1 3 --r2 3 --a1 1 --a2 1 --b1 0.3 \
        --b2 0.3 --init 2,1 --steps 1000000 > "$folded" 2> "$err" \
        || grep -q Traceback "$err" || ! grep -q '"passed": true' "$folded"
then
    echo "FAILED: a million-step fold check must exit 0 and pass" >&2
    cat "$err" "$folded" >&2
    status=1
fi
# A 1,000-step fold check of the same orbit, which repeats from step 72
# with period 1: longer than a block, so it ends at the first checkpoint,
# step 105, inside the first block, and it passes.
# shellcheck disable=SC2086  # $CLI is a word list
if ! $CLI fold --model competition --r1 3 --r2 3 --a1 1 --a2 1 --b1 0.3 \
        --b2 0.3 --init 2,1 --steps 1000 > "$folded" 2> "$err" \
        || grep -q Traceback "$err" || ! grep -q '"passed": true' "$folded"
then
    echo "FAILED: a 1,000-step fold check must exit 0 and pass" >&2
    cat "$err" "$folded" >&2
    status=1
fi
# The same with periodic coefficients, whose periods divide the block.
for periodic_cfg in "$aj_long_cfg" "$threed_long_cfg"; do
    # shellcheck disable=SC2086  # $CLI is a word list
    if ! $CLI fold --config "$periodic_cfg" > "$folded" 2> "$err" \
            || grep -q Traceback "$err" \
            || ! grep -q '"passed": true' "$folded"; then
        echo "FAILED: a million-step periodic fold check must exit 0 and" \
            "pass: $periodic_cfg" >&2
        cat "$err" "$folded" >&2
        status=1
    fi
done
# A converging 3D orbit whose z underflows to 0.0 ends there (y is +inf):
# its fold check exits 0, passes, and says it stopped at step 43.
# shellcheck disable=SC2086  # $CLI is a word list
if ! $CLI fold --model threed --a -1 --r 1.5 --init 0.5,0,0.5 --steps 100 \
        > "$folded" 2> "$err" || grep -q Traceback "$err" \
        || ! grep -q '"passed": true' "$folded" \
        || ! grep -q '"stopped": ".* at step 43"' "$folded"; then
    echo "FAILED: the converging 3D fold must pass and stop at step 43" >&2
    cat "$err" "$folded" >&2
    status=1
fi
# Each line: the documented exit code, then the arguments.  The list is
# expanded by the shell, for $no_dir and $bool_cfg.  The last two ask a
# repeating orbit (sp3 k = 1 from step 29) for more steps than memory or
# an index holds: its loop stops at the first checkpoint, and the copy's
# allocation is refused at once.
while read -r code args; do
    # shellcheck disable=SC2086  # $CLI and $args are word lists
    $CLI $args > /dev/null 2> "$err"
    got=$?
    if [ "$got" -ne "$code" ] || [ "$(wc -l < "$err")" -ne 1 ] \
            || ! grep -q '^error: ' "$err" || grep -q Traceback "$err"; then
        echo "FAILED (exit $got, expected $code): $CLI $args" >&2
        cat "$err" >&2
        status=1
    fi
done <<ERRORS
2 analyze --model sigmoid-bh --a inf --p 2 --init 0.1 --steps 3
2 analyze --model sigmoid-bh --p 1e400 --b 1
2 simulate --model sigmoid-bh --p 1e400 --b 1
2 threshold --model sigmoid-bh --p 1e400 --b 1
2 analyze --model competition --r1 inf --steps 3
2 analyze --model ricker --lambda nan --steps 3
2 analyze --model competition --delta1 nan --steps 3
2 threshold --model ricker --lambda nan
2 threshold --model adult-juvenile --r nan --json
2 threshold --model competition --r1 inf --json
2 threshold --model ricker --k 2 --b 1 --json
2 threshold --model adult-juvenile --s 1.5
2 threshold --model sigmoid-bh --k 0
5 threshold --model ricker --lambda 1.001 --a 1 --json
5 threshold --model competition --delta1 1.01 --a1 1e-30
5 analyze --model competition --a1 1e-5 --b2 1 --delta1 1.01 --init 1,2 --steps 50
5 threshold --model sigmoid-bh --p 3 --b 1e300
6 fold --model competition --b1 1 --delta3 2 --init 1,0 --steps 6
3 simulate --model threed --a -1 --r 1.5 --init 0.5,0,0.5 --steps 100
3 fold --model threed --a 1e-300 --s 1e300 --q 1e300 --steps 0
2 analyze --model sp3 --k x
2 analyze --model nope
2 simulate --model sp3 --steps 3 --out $no_dir/out.csv
2 analyze --model sp3 --steps 3 --out $no_dir/out.json
2 fold --model threed --steps 3 --out $no_dir/out.json
2 analyze --config $bool_cfg
2 simulate --model sp3 --k 1 --init 1,1,1 --steps 100000000000000000
2 analyze --model sp3 --k 1 --init 1,1,1 --steps 10000000000000000000
ERRORS
# A command loads only what it runs: no command loads click, a scalar
# one no planar code, and only analyze the analysis; none without
# --config loads the config schema.  The report of a long repeating sp3
# orbit sums its tails exactly without fractions (or decimal).
# -X importtime lists on stderr every module that the importable package
# (the installed one, or PYTHONPATH=src) loads while the command runs in
# process.  Each line:
# the arguments, then a pattern of the modules the command must not load.
while IFS=';' read -r args forbidden; do
    if ! python -X importtime -c \
            "from subconverge.cli import main; main([$args])" \
            > /dev/null 2> "$err" \
            || ! grep -q ' subconverge\.models$' "$err" \
            || grep -Eq " ($forbidden)\$" "$err"; then
        echo "FAILED: [$args] imports one of $forbidden, or did not run" >&2
        grep 'subconverge\|click\|Error' "$err" >&2
        status=1
    fi
done <<'SCALAR'
"models";click(\..*)?|subconverge\.(systems|planar|analysis|config)
"simulate", "--model", "ricker", "--steps", "20";click(\..*)?|subconverge\.(systems|planar|analysis|config)
"analyze", "--model", "sp3", "--init", "1,1,1", "--steps", "30";click(\..*)?|subconverge\.(systems|planar|config)
"analyze", "--model", "sp3", "--k", "3", "--init", "1,1,1", "--steps", "30000";click(\..*)?|fractions|decimal|subconverge\.(systems|planar|config)
"threshold", "--model", "sp3", "--json";click(\..*)?|subconverge\.(systems|planar|analysis|config)
"fold", "--model", "threed", "--init", "0.9,1.1,1", "--steps", "50";click(\..*)?|subconverge\.(systems|planar|analysis|config)
"analyze", "--model", "adult-juvenile", "--init", "1,1", "--steps", "20";click(\..*)?|subconverge\.config
SCALAR
rm -f "$err" "$cfg" "$fold_cfg" "$rigorous_cfg" "$bool_cfg" "$orbit" \
    "$aj_cfg" "$swapped_cfg" "$sigmoid_cfg" "$threed_cfg" "$folded" \
    "$long_cfg" "$aj_long_cfg" "$threed_long_cfg"
exit $status
