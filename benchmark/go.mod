module crossingguard/benchmark

go 1.22

require crossingguard v0.0.0

replace crossingguard => ../
