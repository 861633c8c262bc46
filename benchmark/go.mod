module github.com/coolrts/cool/benchmark

go 1.22

require github.com/coolrts/cool v0.0.0

replace github.com/coolrts/cool => ../
