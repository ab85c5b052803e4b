module talus/bench

go 1.24

require talus v0.0.0

replace talus => ../
