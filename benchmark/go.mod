module iochar/benchmark

go 1.23

require iochar v0.0.0

replace iochar => ../
