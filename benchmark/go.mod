module multiprio/benchmark

go 1.22

require multiprio v0.0.0

replace multiprio => ../
