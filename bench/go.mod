module cdl/bench

go 1.22

require cdl v0.0.0

replace cdl => ../
