//go:build kddbug_lsraid

package lsraid

// Mutation build: see bugflag.go.
const bugSummaryFirst = true
