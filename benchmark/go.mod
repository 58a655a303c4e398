module peersampling/benchmark

go 1.24

require peersampling v0.0.0

replace peersampling => ../
