//go:build kddbug_lsraid_gc

package lsraid

// Mutation build: see bugflag_gc.go.
const bugFreeVictimFirst = true
