# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test vet fmtcheck race fuzz bench cover experiments examples examples-check clean

all: build vet test

build:
	go build ./...

vet: fmtcheck
	go vet ./...

# Fail when gofmt would reformat a tracked Go file; CI runs this too.
fmtcheck:
	@files=$$(git ls-files -z '*.go' | xargs -0 gofmt -l); \
	if [ -n "$$files" ]; then echo "gofmt -l lists:"; echo "$$files"; exit 1; fi

test:
	go test ./...

race:
	go test -race ./...

# Run each fuzz target for 10s (go test runs one -fuzz target at a time).
fuzz:
	go test -run '^$$' -fuzz '^FuzzEdgeListUnmarshal$$' -fuzztime 10s ./internal/graph/
	go test -run '^$$' -fuzz '^FuzzReadEdgeList$$' -fuzztime 10s ./internal/graph/
	go test -run '^$$' -fuzz '^FuzzDeltaApply$$' -fuzztime 10s ./internal/graph/
	go test -run '^$$' -fuzz '^FuzzReadJSON$$' -fuzztime 10s ./internal/core/
	go test -run '^$$' -fuzz '^FuzzScheduleRequest$$' -fuzztime 10s ./internal/serve/

# Every Go benchmark across all packages (EXPERIMENTS.md, "Benchmarks"). The
# service benchmark is benchmark/run.sh.
bench:
	go test -run '^$$' -bench . -benchmem ./...

cover:
	go test -cover ./...

# Full-scale experiment tables (EXPERIMENTS.md source data).
experiments:
	go run ./cmd/ltbench -seed 42 | tee results_full.txt

examples:
	go run ./examples/quickstart
	go run ./examples/figure1
	go run ./examples/sensornet
	go run ./examples/faulttolerant
	go run ./examples/distributed
	go run ./examples/planner

# Run the six examples and diff what they print against
# examples/testdata/output.txt; CI runs this. After an intended change,
# refresh the pin with `make -s examples > examples/testdata/output.txt`.
examples-check:
	@$(MAKE) -s examples > examples/testdata/output.got
	diff -u examples/testdata/output.txt examples/testdata/output.got
	@rm examples/testdata/output.got

clean:
	go clean ./...
