module vitis/bench

go 1.22

require vitis v0.0.0

replace vitis => ../
