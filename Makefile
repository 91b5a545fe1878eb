GO ?= go

.PHONY: check fmt vet lint lint-human build test bench-smoke race bench-json fuzz-smoke

## check: the full pre-PR gate. Everything below must pass before merging.
check: fmt vet lint-human build test bench-smoke race
	@echo "check: OK"

fmt:
	@out="$$(gofmt -l cmd internal examples bench *.go)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

## lint: simulator-aware static analysis (call-graph reachability rules,
## config/stat invariants; see DESIGN.md §7 and §11), emitting the
## machine-readable report CI uploads as an artifact. Exit 1 means any
## finding: one is accepted only by a //brlint:allow at its site that
## gives the reason.
BRLINT_REPORT ?= brlint-report.json
lint:
	@$(GO) run ./cmd/brlint -json > $(BRLINT_REPORT); \
	status=$$?; \
	cat $(BRLINT_REPORT); \
	exit $$status

## lint-human: the same gate with human-readable file:line output, for the
## local pre-PR `make check` path; exit 1 means any finding.
lint-human:
	$(GO) run ./cmd/brlint ./...

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

## bench-smoke: the benchmark module's own tests (every BENCHMARK.json
## workload, untraced and traced, at a tiny budget; ~10 s). bench/ is a
## separate Go module, so `go test ./...` at the root never reaches it, and
## these tests are the only check that BENCHMARK.json and the code agree.
bench-smoke:
	cd bench && $(GO) test ./...

## race: the packages with cross-structure pointer protocols, the
## parallel experiment runner and the job-queue server get an extra
## race-detector pass. internal/runahead alone takes about 7 min of it on
## 2 vCPUs, so the per-package limit is raised above go test's 10 min.
race:
	$(GO) test -race -timeout 20m ./internal/sim ./internal/runahead ./internal/experiments/... ./internal/server

## bench-json: record every BENCHMARK.json workload over three seeds
## through bench/run.sh (about 7 min on 2 vCPUs) as the snapshot
## BENCH_OUT, with each metric's median and quartiles. BENCH_OUT has no
## default, so a bare `make bench-json` cannot overwrite a committed
## snapshot. With BENCH_PREV set to an earlier snapshot, -compare then
## judges each end-to-end metric against its bound in BENCHMARK.json.
bench-json:
	@if [ -z "$(BENCH_OUT)" ]; then \
		echo "usage: make bench-json BENCH_OUT=BENCH_<n>.json [BENCH_PREV=<earlier snapshot>]" >&2; \
		exit 2; \
	fi
	bash bench/run.sh --runs 3 --out $(BENCH_OUT)
	@if [ -n "$(BENCH_PREV)" ]; then bash bench/run.sh -compare $(BENCH_PREV) $(BENCH_OUT); fi

## fuzz-smoke: a bounded pass over each native fuzz target — the brstate
## codec reader, the branch-trace decoder, the persistent-cache result
## decoder and brserve's request decoding and normalization. CI runs this
## on every push;
## for a real fuzzing session raise FUZZTIME or run the targets
## individually.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzReader$$' -fuzztime $(FUZZTIME) ./internal/brstate
	$(GO) test -run '^$$' -fuzz 'FuzzTraceReader$$' -fuzztime $(FUZZTIME) ./internal/btrace
	$(GO) test -run '^$$' -fuzz 'FuzzLoadResult$$' -fuzztime $(FUZZTIME) ./internal/experiments
	$(GO) test -run '^$$' -fuzz 'FuzzNormalizeRequest$$' -fuzztime $(FUZZTIME) ./internal/server
