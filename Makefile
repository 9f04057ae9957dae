# Tier-1 verification (ROADMAP.md): build + tests.
.PHONY: all build test check report soak-mesh

all: build test

build:
	go build ./...

test:
	go test ./...

# check is the pre-merge gate; ci/check.sh is its one definition.
check:
	bash ci/check.sh

# soak-mesh drives the 16-chip mesh through 1M fault-injected transfers
# (the PR-acceptance run used 10M via CABLE_MESH_SOAK_TRANSFERS=10000000):
# zero panics, every corrupted frame counted and recovered.
soak-mesh:
	CABLE_MESH_SOAK_TRANSFERS=1000000 go test -count=1 -run 'TestMeshSoak' -v ./internal/topo

report:
	go run ./cmd/cablereport -quick
