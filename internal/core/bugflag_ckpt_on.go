//go:build kddbug_checkpoint

package core

// Mutation build: see bugflag_ckpt.go.
const bugCheckpointAhead = true
