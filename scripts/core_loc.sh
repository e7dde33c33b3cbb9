#!/usr/bin/env bash
# Prints the non-blank, non-comment, non-test Go lines of each internal/*
# package (or of the package directories given as arguments), one
# "lines package" row each plus a per-file breakdown when a single package
# is asked for. This is the counter behind ROADMAP's "observation vs
# protocol code" comparison and the size criteria of simplification PRs.
# A comment line is one whose first non-blank characters are "//".
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # count FILE...: code lines across the files
	cat "$@" | grep -v '^[[:space:]]*$' | grep -vc '^[[:space:]]*//' || true
}

sources() { # sources DIR: the package's non-test Go files
	find "$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' | sort
}

if [ "$#" -eq 0 ]; then
	set -- internal/*/
fi
for dir in "$@"; do
	dir=${dir%/}
	mapfile -t files < <(sources "$dir")
	[ "${#files[@]}" -gt 0 ] || continue
	if [ "$#" -eq 1 ]; then
		for f in "${files[@]}"; do
			printf '%6d  %s\n' "$(count "$f")" "$f"
		done
	fi
	printf '%6d  %s\n' "$(count "${files[@]}")" "$dir"
done
