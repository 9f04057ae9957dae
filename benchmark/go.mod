// The benchmark is a module of its own so that it builds from its own
// directory; the module path sits under "cable/" so the harness may
// import cable/internal/... like any package of the repository.
module cable/benchmark

go 1.22

require cable v0.0.0

replace cable => ../
