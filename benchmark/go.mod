module worksteal/benchmark

go 1.22

require worksteal v0.0.0

replace worksteal => ../
