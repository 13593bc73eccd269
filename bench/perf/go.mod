module sdf/bench/perf

go 1.23

require sdf v0.0.0

replace sdf => ../..
