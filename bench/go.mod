module eon/bench

go 1.22

require eon v0.0.0

replace eon => ../
