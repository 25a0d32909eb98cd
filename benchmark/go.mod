module github.com/interweaving/komp/benchmark

go 1.22

require github.com/interweaving/komp v0.0.0

replace github.com/interweaving/komp => ../
