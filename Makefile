# Tier-1 verification lives behind `make verify`: formatting, vet, build,
# the test suite, and the race detector over the concurrent encoding
# engine.

GO ?= go

.PHONY: all build fmt test vet race verify bench smoke

all: verify

build:
	$(GO) build ./...

# -shuffle=on randomizes test (and subtest-source) execution order so
# order-dependent tests cannot hide behind file ordering; failures print
# the shuffle seed for replay with -shuffle=<seed>.
test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# gofmt -l lists every file whose formatting differs; any listed file
# fails the target.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race -shuffle=on ./...

verify: fmt vet build test race

bench:
	$(GO) test -run NONE -bench . -benchtime 1x .

# End-to-end smoke of the novad serving layer: cache replay is
# byte-identical, counters move, SIGTERM drains.
smoke:
	bash scripts/server_smoke.sh
