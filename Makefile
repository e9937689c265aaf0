.PHONY: all build test check bench csv loc clean

all: build

# Compiles everything; runs no experiment (see the root dune file).
build:
	dune build

# Tier-1: the unit tests, the golden/ diffs (every experiment's
# counters, span tallies and tables) and the cram tests under test/
# (serve CSVs, the fleet series, CLI identities and smokes).  After an
# intended change, read the diff and run `dune promote`.
test:
	dune runtest

# Everything CI runs: the full build, tier-1, and @slow (S6 traced with
# request flows, too slow for tier-1; see test/dune).
check:
	dune build @all @runtest @slow

# The repository's benchmark: the command BENCHMARK.json declares
# (benchsuite/README.md has the options).  The paper's tables come
# from `dune exec bin/main.exe -- run all`.
bench:
	dune exec --root . --display quiet ./benchsuite/suite.exe --

csv:
	dune exec bin/main.exe -- csv out

# The two sizes a simplicity change is counted by: the lines of lib's
# .ml, .mli and dune files, and the vals its interfaces export.
loc:
	@echo "lib lines: $$(cat lib/*/*.ml lib/*/*.mli lib/*/dune | wc -l)"
	@echo "lib vals:  $$(cat lib/*/*.mli | grep -c '^ *val ')"

clean:
	dune clean
