# rpi-query protocol smoke: tiny seed-11 world, 4 daily snapshots.
# Exercises every grammar verb plus the REPL listing commands; CI pipes
# this file through `rpi-queryd --queries` and diffs the golden output.

snapshots
vantages

route AS1 4.0.0.0/13
route AS1 4.0.0.0/13 @0
resolve AS1 4.0.0.1/32
sa AS1 4.0.0.0/13
sa AS1 2.0.0.0/8 @label:day-02
rel AS1 AS701
summary AS1
diff @0..3
sa-history AS1 4.0.0.0/13
uptime AS1
top-sa AS1 3
persistence AS1 4.0.0.0/13 @all
persistence AS1 2.0.0.0/8 @1..3

# rpi-sec: route-origin validation against tests/data/smoke.roas, plus
# the hijack / leak detectors (benign world: zero events is the answer).
rov AS1 4.0.0.0/13
rov AS1 4.0.0.0/13 @0
rov AS1 3.0.0.0/14
rov AS1 2.0.0.0/12
rov AS1 2.0.0.0/8
rov AS1 1.0.0.0/8
rov AS42424 4.0.0.0/13
hijacks
hijacks @0..2
leaks
leaks @0
