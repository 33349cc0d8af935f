module crossinv/benchmark

go 1.22

require crossinv v0.0.0

replace crossinv => ../
