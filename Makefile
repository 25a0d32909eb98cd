# Tier-1 verification recipe (see ROADMAP.md). The -race pass covers the
# packages that run real goroutines under the real execution layer — the
# root package's public-API tests included — and the simulator, whose
# finished coroutines are recycled through a mutex-guarded free list
# shared by every Sim of the process.
RACE_PKGS = . ./internal/omp/ ./internal/exec/ ./internal/tenancy/ ./internal/device/ ./internal/sim/

.PHONY: verify build test vet staticcheck race fma-scan race-stress fuzz-smoke figures bench-smoke pin-check bench-diff trace-smoke loc reach prof

verify: build vet staticcheck test race fma-scan

build:
	go build ./...

# The benchmark is a nested module, invisible to the root ./...: vet it
# too, so an internal API change that breaks its build fails tier-1.
vet:
	go vet ./...
	go vet -C benchmark ./...

# staticcheck runs when the tool is on PATH (CI installs it; a local
# checkout without it still gets the full verify, minus this pass).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	go test ./...

race:
	go test -race $(RACE_PKGS)

# fma-scan cross-compiles ./internal/... for arm64, ppc64le and riscv64
# and fails on a fused multiply-add outside the NAS kernels: fusion
# rounds differently from amd64, so the byte-pinned artifacts would
# differ on those architectures. Fix a hit with an explicit float64(...)
# around the product.
fma-scan:
	@bash scripts/fma-scan.sh

# race-stress repeats the race pass at 1, 2 and 4 Ps: the races this
# runtime has had (a straggler leaving one region's join against the
# master forking the next) depend on the scheduler's width and do not
# show on every run. CI runs it after `verify`.
race-stress:
	go test -race -count=3 -cpu 1,2,4 $(RACE_PKGS)

# fuzz-smoke fuzzes every Fuzz* target of the module for 5 s, one target
# per `go test` run (-fuzz accepts only one). `go test -list` finds them,
# so a new target joins without editing this file. CI runs it after
# race-stress; a crasher lands in the package's testdata/fuzz/.
fuzz-smoke:
	@go test -list '^Fuzz' ./... | \
	awk '/^Fuzz/ { names = names " " $$1 } /^ok/ { if (names != "") print $$2 names; names = "" }' | \
	while read pkg targets; do \
		for t in $$targets; do \
			echo "fuzz-smoke: $$pkg $$t"; \
			go test "$$pkg" -run '^$$' -fuzz "^$$t\$$" -fuzztime 5s || exit 1; \
		done; \
	done

figures:
	go run ./cmd/kompbench -quick

# bench-smoke builds kompbench once and runs the two EPCC figures, every
# ablation (-ablation all, so a new one joins without editing this file)
# and the per-construct profile twice at -quick scale, then diffs the
# outputs byte-for-byte: stdout must be a pure function of the seed
# (simulator determinism). Not part of `verify` but documented next to
# it in ROADMAP.md; run it when touching the runtime's synchronization
# paths or the instrumentation spine. The binary and both outputs land
# in .bench_build/bench-smoke/ (gitignored).
SMOKE = .bench_build/bench-smoke

bench-smoke:
	@mkdir -p $(SMOKE)
	@go build -o $(SMOKE)/kompbench ./cmd/kompbench
	@for run in 1 2; do \
		( $(SMOKE)/kompbench -quick -figure fig7 && \
		  $(SMOKE)/kompbench -quick -figure fig13 && \
		  $(SMOKE)/kompbench -quick -ablation all && \
		  $(SMOKE)/kompbench -quick -profile ) \
		  > $(SMOKE)/run$$run.txt 2>/dev/null || exit 1; \
	done
	@cmp $(SMOKE)/run1.txt $(SMOKE)/run2.txt && \
		echo "bench-smoke: two runs byte-identical"

# pin-check holds the checked-in full-scale artifacts to the code: it
# regenerates `kompbench -ablation all` (~3 s) and compares it byte for
# byte with ABLATIONS.txt, then every figure (`kompbench`, ~90 s on 2
# vCPUs) with FIGURES.txt minus its "[figN regenerated in ...]"
# wall-clock lines. A change that moves an artifact fails here until the
# file is regenerated. The binary and outputs land in
# .bench_build/pin-check/ (gitignored).
PIN = .bench_build/pin-check

pin-check:
	@mkdir -p $(PIN)
	@go build -o $(PIN)/kompbench ./cmd/kompbench
	@$(PIN)/kompbench -ablation all >$(PIN)/ablations.txt 2>/dev/null
	@cmp ABLATIONS.txt $(PIN)/ablations.txt
	@$(PIN)/kompbench >$(PIN)/figures.txt 2>/dev/null
	@grep -v '^\[fig[0-9]* regenerated in ' FIGURES.txt | cmp - $(PIN)/figures.txt
	@echo "pin-check: ABLATIONS.txt and FIGURES.txt match the code"

# bench-diff compares every deterministic kompbench artifact — the
# -quick figures, all -quick ablations (faults included), the profile,
# and every -json record — built at git ref BASE against the working
# tree, and fails on the first byte that differs. A change meant to keep
# virtual time identical must pass it against its parent:
# make bench-diff BASE=HEAD~1
bench-diff:
	@test -n "$(BASE)" || { echo "usage: make bench-diff BASE=<git-ref>"; exit 2; }
	@bash scripts/bench-diff.sh "$(BASE)"

# trace-smoke re-renders the synthetic spine stream through the Chrome
# trace emitter and compares it byte-for-byte against the checked-in
# golden file (internal/trace/testdata/chrome_trace.json). Regenerate the
# golden after an intentional format change with:
#   go test ./internal/trace/ -run Golden -update
trace-smoke:
	@go test ./internal/trace/ -run TestGoldenChromeTrace -count=1 && \
		echo "trace-smoke: trace JSON matches golden file"

# loc prints the Go code lines (non-test, non-blank, non-comment) of
# every package of the root module and their total — the count a change
# meant to simplify quotes before and after.
loc:
	@bash scripts/loc.sh

# reach builds every main package of both modules with inlining off and
# fails on a function of the root module that none of them links, unless
# a line of scripts/reach-keep.txt keeps it with its reason; a keep line
# that matches nothing fails too. Binaries land in .bench_build/reach/.
reach:
	@bash scripts/reach.sh

# prof profiles one figure's regeneration on the simulator: it runs the
# root BenchmarkFigN once with CPU and memory profiles into
# .bench_build/prof/ and prints the top of each (CPU time, then bytes
# allocated). BenchmarkSimCell measures a single cell the same way:
#   go test -run '^$$' -bench SimCell -benchmem .
# Usage: make prof FIG=fig13
PROF = .bench_build/prof

prof:
	@test -n "$(FIG)" || { echo "usage: make prof FIG=figN"; exit 2; }
	@mkdir -p $(PROF)
	@go test -run '^$$' -bench '^BenchmarkFig$(FIG:fig%=%)[^0-9]' -benchtime 1x \
		-cpuprofile $(PROF)/$(FIG).cpu -memprofile $(PROF)/$(FIG).mem \
		-o $(PROF)/komp.test . >$(PROF)/$(FIG).txt
	@grep '^BenchmarkFig' $(PROF)/$(FIG).txt || \
		{ echo "prof: no root benchmark for $(FIG)"; exit 2; }
	@go tool pprof -top -nodecount 25 $(PROF)/komp.test $(PROF)/$(FIG).cpu
	@go tool pprof -top -nodecount 25 -sample_index alloc_space $(PROF)/komp.test $(PROF)/$(FIG).mem
