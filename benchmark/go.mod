module ptldb/benchmark

go 1.22

require ptldb v0.0.0

replace ptldb => ../
