module lshensemble/bench

go 1.22

require lshensemble v0.0.0

replace lshensemble => ../
