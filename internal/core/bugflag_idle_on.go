//go:build kddbug_idle

package core

// Mutation build: see bugflag_idle.go.
const bugReclaimAtPlan = true
