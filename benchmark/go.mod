module casper/benchmark

go 1.22

require casper v0.0.0

replace casper => ../
