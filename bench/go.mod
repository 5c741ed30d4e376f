module cloudsync/bench

go 1.24

require cloudsync v0.0.0

replace cloudsync => ../
