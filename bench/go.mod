module kddcache/bench

go 1.22

require kddcache v0.0.0

replace kddcache => ../
