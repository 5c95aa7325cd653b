// The benchmark is a module of its own so that building it touches no build
// file of the repository. Its path sits under kset/, which is what lets it
// import kset/internal/...; the replace points at the checkout it lives in.
module kset/bench

go 1.22

require kset v0.0.0

replace kset => ../
