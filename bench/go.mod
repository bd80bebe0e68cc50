module codecdb/bench

go 1.22

require codecdb v0.0.0

replace codecdb => ../
