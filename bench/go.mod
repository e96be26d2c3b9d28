// The benchmark is a module of its own so that it builds from its own
// directory with its own build file. Its path sits under the parent
// module's, which is what lets it import prins/internal/...; the replace
// directive points at the checkout it is part of.
module prins/bench

go 1.22

require prins v0.0.0

replace prins => ../
